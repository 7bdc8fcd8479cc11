"""K-fold evaluation of embedding + linear-model pipelines.

``kfold_sweep`` runs one fold loop over a grid of walk lengths T, and
``kfold_cv`` is its one-T case. A fold's vertex embedding does not depend
on T, so it is made once per call: a random embedding is label-free and
serves every fold; a trained one is trained inside each training fold
only, by the default ``CbowConfig`` at width r and seed ``cfg.seed +
fold``, remembers which rows it saw, and a fold refuses to score rows it
was trained on. Rows embed independently of their batch mates, so each T
embeds the corpus once per distinct embedding and every fold scores row
slices of that matrix, unit-l2 normalized and not level scaled. The linear
head has the squared-l2 penalty; its lambda, when not given, is picked per
training fold by 3 inner folds over ``LAMBDA_GRID``. Folds run outside and
lambda inside: each inner training fold fits the whole grid with one
``linear.fit_path`` call, which does the work that does not depend on
lambda (the checks, the start point and its Hessian, and the QR of a
row-space fit) once per fold. Features can be exported to CSV/binary with
a manifest sufficient to reproduce them."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrixio
from .linear import DegenerateLabels, compute_metric, fit_path
from .ngram import embed_corpus, feature_column_names
from .schema import AttributeSchema
from .vertex import VertexEmbeddingMatrix, random_embedding

LAMBDA_GRID = tuple(10.0 ** e for e in range(-4, 2))  # 1e-4 .. 1e1


class LeakageError(ValueError):
    """A fold tried to score rows its embedding was trained on."""


@dataclass(frozen=True)
class PipelineConfig:
    embedding: str = "random-gaussian"  # random-gaussian | random-rademacher | trained
    r: int = 100
    T: int = 6
    variant: str = "walk"
    task: str = "logistic"
    lam: float | None = None  # None selects from LAMBDA_GRID by inner CV
    metric: str = "roc-auc"
    seed: int = 0


@dataclass
class EvalReport:
    metric: str
    fold_values: list
    task: str = "logistic"
    unconverged: int = 0  # fits, lambda-search fits included, that did not converge

    @property
    def values(self) -> list:
        return [v for v in self.fold_values if v is not None]

    @property
    def mean(self) -> float | None:
        vals = self.values
        return float(np.mean(vals)) if vals else None

    @property
    def std(self) -> float | None:
        vals = self.values
        return float(np.std(vals)) if vals else None

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "task": self.task,
            "fold_values": self.fold_values,
            "mean": self.mean,
            "std": self.std,
        }

    def __str__(self) -> str:
        folds = ", ".join(
            "absent" if v is None else f"{v:.4f}" for v in self.fold_values
        )
        mean = "absent" if self.mean is None else f"{self.mean:.4f}"
        return f"{self.metric}: mean={mean} folds=[{folds}]"


def _higher_is_better(metric: str) -> bool:
    return metric.lower() in ("roc-auc", "pr-auc")


def fold_indices(n: int, folds: int, seed: int, labels=None, stratified: bool = False):
    """Deterministic fold assignment; stratification deals classes round-robin."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise ValueError(f"cannot split {n} samples into {folds} folds")
    rng = np.random.default_rng(seed)
    assign = np.empty(n, dtype=np.int64)
    if stratified and labels is not None:
        labels = np.asarray(labels)
        pos = 0
        for cls in np.unique(labels):
            members = np.nonzero(labels == cls)[0]
            members = members[rng.permutation(members.size)]
            assign[members] = (pos + np.arange(members.size)) % folds
            pos += members.size
    else:
        order = rng.permutation(n)
        for fold, chunk in enumerate(np.array_split(order, folds)):
            assign[chunk] = fold
    return [
        (np.nonzero(assign != f)[0], np.nonzero(assign == f)[0]) for f in range(folds)
    ]


def _score_path(X_tr, y_tr, X_te, y_te, task, metric, lams) -> list:
    """Fit every lambda in ``lams`` on one training fold and score it on the
    test fold: one (score, 1 if the fit did not converge else 0) per lambda.
    Single-class training labels score None."""
    try:
        models = fit_path(X_tr, y_tr, lams, task=task)
    except DegenerateLabels:
        return [(None, 0)] * len(lams)
    return [(compute_metric(metric, y_te, m.decision(X_te)), int(not m.report.converged))
            for m in models]


def _select_lambda(X, y, task, metric, seed) -> tuple[float, int]:
    """The LAMBDA_GRID value with the best mean over 3 inner folds (the first
    wins a tie) and the number of inner fits that did not converge. Each inner
    training fold fits the whole grid at once. Falls back to 1e-3 when the
    data is too small or no lambda scores."""
    if X.shape[0] < 6 or (task == "logistic" and np.unique(y).size < 2):
        return 1e-3, 0
    splits = fold_indices(X.shape[0], 3, seed, labels=y, stratified=task == "logistic")
    by_fold = [_score_path(X[tr], y[tr], X[te], y[te], task, metric, LAMBDA_GRID)
               for tr, te in splits]
    best_lam, best_score = 1e-3, None
    sign = 1.0 if _higher_is_better(metric) else -1.0
    for lam, scored in zip(LAMBDA_GRID, zip(*by_fold)):
        score = _report(metric, task, scored).mean
        if score is not None and (best_score is None or sign * score > sign * best_score):
            best_score, best_lam = score, lam
    return best_lam, sum(u for scored in by_fold for _, u in scored)


def _score_fold(X_tr, y_tr, X_te, y_te, task, metric, lam, seed):
    """Fit on a training fold (lambda by inner CV when None) and score its test
    fold; returns the score and the number of fits that did not converge."""
    unconverged = 0
    if lam is None:
        lam, unconverged = _select_lambda(X_tr, y_tr, task, metric, seed)
    value, stalled = _score_path(X_tr, y_tr, X_te, y_te, task, metric, (lam,))[0]
    return value, unconverged + stalled


def _report(metric, task, scored) -> EvalReport:
    """One report from ``_score_fold`` results."""
    return EvalReport(metric=metric, fold_values=[v for v, _ in scored], task=task,
                      unconverged=sum(u for _, u in scored))


def kfold_features(
    X,
    y,
    task: str = "logistic",
    metric: str = "roc-auc",
    folds: int = 5,
    seed: int = 0,
    lam: float | None = None,
    stratified: bool = False,
) -> EvalReport:
    """Cross-validate a linear model on a fixed feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    splits = fold_indices(X.shape[0], folds, seed, labels=y, stratified=stratified)
    return _report(metric, task, [
        _score_fold(X[tr], y[tr], X[te], y[te], task, metric, lam, seed)
        for tr, te in splits])


def check_no_failed_rows(manifest: dict) -> None:
    """Raise ValueError when a feature manifest records graphs that failed to
    embed, naming the failed count and the first one's id and reason."""
    errors = manifest.get("errors")
    if errors:
        row = min(errors, key=int)
        raise ValueError(f"{len(errors)} of {len(manifest['ids'])} graphs failed to "
                         f"embed; the first, {manifest['ids'][int(row)]!r} (row {row}): "
                         f"{errors[row]}")


def _fold_embedding(graphs, train_idx, schema, cfg: PipelineConfig, fold: int):
    """CBOW-train a vertex embedding on one fold's training graphs only."""
    from .cbow import CbowConfig, extract_contexts, train_cbow  # trained embeddings only

    samples = extract_contexts([graphs[i] for i in train_idx], schema)
    emb, _ = train_cbow(samples, schema, CbowConfig(r=cfg.r, seed=cfg.seed + fold),
                        dataset_id=f"cv-fold-{fold}")
    prov = dict(emb.provenance)
    prov["train_rows"] = sorted(int(i) for i in train_idx)
    return VertexEmbeddingMatrix(matrix=emb.matrix, schema=schema, provenance=prov)


def _check_no_leakage(emb: VertexEmbeddingMatrix, test_idx) -> None:
    trained_on = emb.provenance.get("train_rows")
    if emb.provenance.get("kind") == "trained" and trained_on is not None:
        overlap = set(trained_on) & {int(i) for i in test_idx}
        if overlap:
            raise LeakageError(
                f"embedding was trained on test rows {sorted(overlap)[:5]}"
            )


def kfold_sweep(graphs, labels, schema: AttributeSchema, cfg: PipelineConfig, t_grid,
                folds: int = 5, seed: int = 0, stratified: bool = False) -> list[EvalReport]:
    """End-to-end cross-validation at every walk length in ``t_grid``, one
    report per T in order (``cfg.T`` is not read): each fold's embedding is
    made once, and each T embeds the corpus once per distinct embedding. A
    graph that fails to embed raises ValueError naming it."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != len(graphs):
        raise ValueError("labels must align with graphs")
    splits = fold_indices(len(graphs), folds, seed, labels=y, stratified=stratified)
    if cfg.embedding in ("random-gaussian", "random-rademacher"):
        dist = cfg.embedding.split("-", 1)[1]
        embs = [random_embedding(schema, cfg.r, dist=dist, seed=cfg.seed)] * folds
    elif cfg.embedding == "trained":
        embs = [_fold_embedding(graphs, tr, schema, cfg, fold)
                for fold, (tr, _) in enumerate(splits)]
    else:
        raise ValueError(f"unknown embedding source {cfg.embedding!r}")
    reports = []
    for T in t_grid:
        scored, embedded = [], None
        for emb, (tr, te) in zip(embs, splits):
            _check_no_leakage(emb, te)
            if emb is not embedded:
                X, manifest = embed_corpus(graphs, emb, T=T, variant=cfg.variant,
                                           normalization="unit-l2")
                check_no_failed_rows(manifest)
                embedded = emb
            scored.append(_score_fold(X[tr], y[tr], X[te], y[te], cfg.task, cfg.metric,
                                      cfg.lam, seed))
        reports.append(_report(cfg.metric, cfg.task, scored))
    return reports


def kfold_cv(graphs, labels, schema: AttributeSchema, cfg: PipelineConfig | None = None,
             folds: int = 5, seed: int = 0, stratified: bool = False) -> EvalReport:
    """End-to-end cross-validation at ``cfg.T``: ``kfold_sweep`` at one T."""
    cfg = cfg or PipelineConfig()
    return kfold_sweep(graphs, labels, schema, cfg, (cfg.T,), folds=folds, seed=seed,
                       stratified=stratified)[0]


# -- feature export ---------------------------------------------------------------


def manifest_hash(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def export_features(matrix, manifest: dict, base_path, formats=("bin", "csv")) -> dict:
    """Write the feature matrix next to its manifest; returns written paths."""
    base = Path(base_path)
    matrix = np.asarray(matrix, dtype=np.float64)
    paths = {}
    if "bin" in formats:
        p = base.with_suffix(".nggm")
        matrixio.write_matrix(p, matrix, meta={"manifest": manifest})
        paths["bin"] = p
    if "csv" in formats:
        p = base.with_suffix(".csv")
        T, r = int(manifest["T"]), int(manifest["r"])
        header = ["g_id"] + feature_column_names(T, r)
        matrixio.write_csv(p, matrix, header=header, row_ids=manifest["ids"])
        paths["csv"] = p
    mp = base.parent / (base.name + ".manifest.json")
    mp.write_text(json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    paths["manifest"] = mp
    return paths


def load_features(path):
    """Read a binary feature file back into (matrix, manifest); MatrixFormatError
    unless the manifest holds a schema, row ids and an error map by row."""
    matrix, meta = matrixio.read_matrix(path)
    m = meta.get("manifest")
    if not (matrix.ndim == 2 and isinstance(m, dict) and isinstance(m.get("schema"), dict)
            and isinstance(m.get("ids"), list) and isinstance(m.get("errors"), dict)
            and set(m["errors"]) <= set(map(str, range(len(m["ids"]))))):
        raise matrixio.MatrixFormatError(f"{path}: not a feature file (its manifest needs "
                                         "a schema, row ids and an error map by row)")
    return matrix, m
