"""The four benchmark workloads.

Each workload generates its inputs from the seed and then runs passes
through public entry points of ``ngram_graph`` only: the ``ngg`` CLI called
in-process through ``ngram_graph.cli.main``, or the package API. Functions
are looked up on their modules at call time, so the traced run sees every
call. A pass has three steps:

* ``run_pass(tracer)`` is the timed part;
* ``collect(raw)`` reads back everything the checks need;
* ``verify(outcome, ledger, pass_index)`` checks it and returns the
  workload's quality figure.

Checks never run inside the timed part, and the self-test corrupts the
collected outcome to prove that ``verify`` notices.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.sparse

import ngram_graph as ng
from ngram_graph import cli, crossval, matrixio, recovery

import gen

# Relative tolerance for float features against an independent reference.
RTOL = 1e-10


class Ledger:
    """Attempted and failed operations, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


def ngg(commands, tracer=None) -> dict:
    """Run ``ngg`` commands in-process, in order; returns their exit codes
    and captured stderr, keyed by subcommand."""
    codes, logs = {}, {}
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        span = (tracer.span("cli." + argv[0].replace("-", "_")) if tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            codes[argv[0]] = cli.main(argv)
        logs[argv[0]] = err.getvalue()
    return {"codes": codes, "logs": logs}


def _log_float(log: str, pattern: str):
    found = re.search(pattern + r"\s*(\S+)", log)
    return float(found.group(1)) if found else None


def _relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    return float(np.max(np.abs(got - ref))) / scale if scale else float(np.max(np.abs(got)))


def _check_exit_codes(codes: dict, ledger: Ledger) -> None:
    for command, code in codes.items():
        ledger.check(code == 0, f"ngg {command} exit code {code}")


def _check_rows(X, manifest: dict, expected_rows: int, ledger: Ledger) -> None:
    """Every graph embedded: no NaN row and no error-map entry."""
    bad = set(np.nonzero(np.isnan(X).any(axis=1))[0].tolist())
    bad |= {int(k) for k in manifest.get("errors", {})}
    ledger.count(expected_rows, len(bad) + max(expected_rows - X.shape[0], 0),
                 "graphs embedded")


# -- molecules -----------------------------------------------------------------------


class Molecules:
    """SDF -> ``ngg featurize`` -> ``ngg train-vertex`` -> ``ngg embed`` with CSV."""

    T = 6
    R = 100  # ngg train-vertex default

    def __init__(self, seed: int, workdir: Path, records: int = 500, epochs: int = 2,
                 oracle_rows: int = 8):
        self.seed = seed
        self.mols = gen.molecule_sdf(seed, records)
        self.epochs = epochs
        self.oracle_rows = oracle_rows
        self.sdf = workdir / "mols.sdf"
        self.sdf.write_text(self.mols.sdf, encoding="utf-8")
        self.graphs = workdir / "graphs.jsonl"
        self.embedding = workdir / "w.nggm"
        self.features = workdir / "feats"
        self.sizes = {
            "records": records,
            "atoms": self.mols.total_atoms,
            "vertices": sum(self.mols.heavy_atoms),
            "edges": sum(self.mols.heavy_bonds),
            "sdf_bytes": self.sdf.stat().st_size,
            "T": self.T, "r": self.R, "epochs": epochs,
        }

    def run_pass(self, tracer=None) -> dict:
        return ngg((
            ["featurize", str(self.sdf), "-o", str(self.graphs), "--schema", "full"],
            ["train-vertex", str(self.graphs), "-o", str(self.embedding),
             "--epochs", str(self.epochs), "--seed", str(self.seed)],
            ["embed", str(self.graphs), "--embedding", str(self.embedding),
             "-o", str(self.features), "--T", str(self.T)],
        ), tracer)

    def collect(self, raw: dict) -> dict:
        binary = self.features.with_suffix(".nggm")
        X, meta = matrixio.read_matrix(binary)
        csv_lines = self.features.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        return {
            "codes": raw["codes"],
            "accuracy": _log_float(raw["logs"]["train-vertex"],
                                   "held-out mean attribute accuracy:"),
            "X": X,
            "meta": meta,
            "binary": binary.read_bytes(),
            "csv_ids": [line.split(",", 1)[0] for line in csv_lines[1:]],
            "csv": np.array([[float(x) for x in line.split(",")[1:]] for line in csv_lines[1:]]),
            "graph_lines": self.graphs.read_text(encoding="utf-8").splitlines(),
            "embedding": ng.load_embedding(self.embedding),
        }

    def verify(self, oc: dict, ledger: Ledger, pass_index: int):
        n = len(self.mols.heavy_atoms)
        X, meta = oc["X"], oc["meta"]
        manifest = meta.get("manifest", {})
        _check_exit_codes(oc["codes"], ledger)
        ledger.check(len(oc["graph_lines"]) == n, "featurize wrote one graph per record")
        ledger.check(X.shape == (n, self.T * self.R), f"feature matrix shape {X.shape}")
        _check_rows(X, manifest, n, ledger)

        rewritten = self.features.parent / "roundtrip.nggm"
        header = {k: v for k, v in meta.items() if k not in ("shape", "dtype")}
        matrixio.write_matrix(rewritten, X, header)
        ledger.check(rewritten.read_bytes() == oc["binary"], ".nggm round-trip bit-identical")
        ledger.check(oc["csv_ids"] == manifest.get("ids")
                     and np.array_equal(oc["csv"], X), "CSV export equals .nggm export")

        rng = np.random.default_rng([self.seed, pass_index])
        rows = rng.choice(n, size=min(self.oracle_rows, n), replace=False)
        graphs = ng.read_json_graphs("\n".join(oc["graph_lines"][i] for i in rows),
                                     ng.FULL_SCHEMA)
        for i, g in zip(rows, graphs):
            ledger.check(g.num_vertices == self.mols.heavy_atoms[i]
                         and g.num_edges == self.mols.heavy_bonds[i],
                         f"record {i} featurized to its heavy-atom graph")
            ref = ng.oracle_embed(g, oc["embedding"], self.T, cap=64).vector
            ledger.check(_relative_error(X[i], ref) <= RTOL,
                         f"row {i} matches brute-force enumeration")
        ledger.check(oc["accuracy"] is not None, "train-vertex reported held-out accuracy")
        return oc["accuracy"]


# -- kfold-path ----------------------------------------------------------------------


class KfoldPath:
    """``kfold_cv`` with the path variant at T=4 and the default lambda search.

    The T=1 sweep point sees bit-identical features in every graph, so its
    fold scores are 0.5 whatever the seed. It runs once per run, untimed, as
    the reference that every timed T=4 pass must beat fold by fold.
    """

    R = 32
    T = 4
    BASELINE_T = 1
    FOLDS = 5

    def __init__(self, seed: int, workdir: Path, graphs: int = 600):
        self.seed = seed
        corpus = gen.planted_corpus(seed, graphs)
        self.schema = ng.AttributeSchema.from_pairs(
            [("value", tuple(f"v{i}" for i in range(corpus.k)))], name="planted")
        attr = np.arange(corpus.k).reshape(-1, 1)
        self.graphs = [
            ng.MolecularGraph(num_vertices=corpus.k, attr=attr, edges=np.array(edges),
                              graph_id=f"p{i}", schema_fingerprint=self.schema.fingerprint)
            for i, edges in enumerate(corpus.edges)
        ]
        self.labels = corpus.labels
        self.baseline = None
        self.sizes = {
            "graphs": graphs,
            "vertices": graphs * corpus.k,
            "edges": sum(len(e) for e in corpus.edges),
            "r": self.R, "T": self.T, "baseline_T": self.BASELINE_T, "folds": self.FOLDS,
        }

    def _kfold(self, T: int):
        cfg = crossval.PipelineConfig(embedding="random-gaussian", r=self.R, T=T,
                                      variant="path", seed=self.seed)
        return crossval.kfold_cv(self.graphs, self.labels, self.schema, cfg,
                                 folds=self.FOLDS, seed=self.seed)

    def run_pass(self, tracer=None):
        return self._kfold(self.T)

    def collect(self, raw) -> dict:
        if self.baseline is None:
            self.baseline = list(self._kfold(self.BASELINE_T).fold_values)
        return {"auc": {self.BASELINE_T: list(self.baseline), self.T: list(raw.fold_values)}}

    def verify(self, oc: dict, ledger: Ledger, pass_index: int):
        auc = oc["auc"]
        for T, values in auc.items():
            scored = [v for v in values if v is not None and math.isfinite(v)]
            ledger.count(self.FOLDS, self.FOLDS - len(scored), f"folds scored at T={T}")
        lo, hi = auc[self.BASELINE_T], auc[self.T]
        for fold, (a, b) in enumerate(zip(lo, hi)):
            ledger.check(a is not None and b is not None and b > a,
                         f"fold {fold}: ROC-AUC at T={self.T} beats T={self.BASELINE_T}")
        scored = [v for v in hi if v is not None]
        return float(np.mean(scored)) if scored else None


# -- large-graph ---------------------------------------------------------------------


class LargeGraph:
    """Few large sparse graphs: ``ngg train-vertex`` -> ``ngg embed``."""

    T = 6
    R = 100

    def __init__(self, seed: int, workdir: Path, sizes=(2000, 5000, 10000), epochs: int = 1):
        self.seed = seed
        self.epochs = epochs
        schema = ng.FULL_SCHEMA
        self.docs = gen.large_graph_docs(seed, sizes, schema.cardinalities, schema.schema_id)
        self.graphs = workdir / "large.jsonl"
        self.graphs.write_text(gen.jsonl(self.docs), encoding="utf-8")
        self.embedding = workdir / "w.nggm"
        self.features = workdir / "feats"
        self.sizes = {
            "graphs": len(sizes),
            "vertices": int(sum(sizes)),
            "edges": sum(len(d["edges"]) for d in self.docs),
            "max_vertices": int(max(sizes)),
            "json_bytes": self.graphs.stat().st_size,
            "T": self.T, "r": self.R, "epochs": epochs,
        }

    def run_pass(self, tracer=None) -> dict:
        return ngg((
            ["train-vertex", str(self.graphs), "-o", str(self.embedding),
             "--epochs", str(self.epochs), "--seed", str(self.seed)],
            ["embed", str(self.graphs), "--embedding", str(self.embedding),
             "-o", str(self.features), "--T", str(self.T)],
        ), tracer)

    def collect(self, raw: dict) -> dict:
        X, meta = matrixio.read_matrix(self.features.with_suffix(".nggm"))
        log = raw["logs"]["train-vertex"]
        return {
            "codes": raw["codes"],
            "X": X,
            "manifest": meta.get("manifest", {}),
            "W": ng.load_embedding(self.embedding).matrix,
            "loss": _log_float(log, "final epoch loss:"),
            "accuracy": _log_float(log, "held-out mean attribute accuracy:"),
        }

    def reference(self, W: np.ndarray, doc: dict) -> np.ndarray:
        """Walk features from scipy.sparse adjacency powers, independent of
        the program's recurrence: X_n = (A X_{n-1}) * X_1, level n = sum X_n."""
        offsets = np.asarray(ng.FULL_SCHEMA.offsets)
        attrs = np.asarray(doc["attributes"])
        X1 = W[:, offsets + attrs].sum(axis=2).T  # (m, r)
        m = doc["num_vertices"]
        edges = np.asarray(doc["edges"]).reshape(-1, 2)
        A = scipy.sparse.coo_matrix(
            (np.ones(2 * len(edges)), (np.r_[edges[:, 0], edges[:, 1]],
                                       np.r_[edges[:, 1], edges[:, 0]])),
            shape=(m, m)).tocsr()
        levels, Xn = [X1.sum(axis=0)], X1
        for _ in range(1, self.T):
            Xn = (A @ Xn) * X1
            levels.append(Xn.sum(axis=0))
        return np.concatenate(levels)

    def verify(self, oc: dict, ledger: Ledger, pass_index: int):
        X = oc["X"]
        _check_exit_codes(oc["codes"], ledger)
        ledger.check(X.shape == (len(self.docs), self.T * self.R),
                     f"feature matrix shape {X.shape}")
        _check_rows(X, oc["manifest"], len(self.docs), ledger)
        for i, doc in enumerate(self.docs[: X.shape[0]]):
            ledger.check(_relative_error(X[i], self.reference(oc["W"], doc)) <= RTOL,
                         f"graph {doc['id']} matches the sparse adjacency-power reference")
        ledger.check(oc["loss"] is not None and math.isfinite(oc["loss"]),
                     "CBOW epoch losses finite")
        ledger.check(oc["accuracy"] is not None, "train-vertex reported held-out accuracy")
        return oc["accuracy"]


# -- count-lab -----------------------------------------------------------------------


class CountLab:
    """Count identity, brute-force oracle, and OMP / ISTA recovery grids."""

    T = 4
    CARDINALITIES = (8, 7)
    SENSING_ROWS = 16
    ORACLE_R = 16
    MIN_OMP_RATE = 0.95

    def __init__(self, seed: int, workdir: Path, graphs: int = 40, omp_trials: int | None = None,
                 ista_trials: int = 3):
        self.seed = seed
        self.schema = ng.AttributeSchema.from_pairs(
            [(f"a{j}", tuple(f"v{j}_{i}" for i in range(k)))
             for j, k in enumerate(self.CARDINALITIES)], name="distinct")
        self.graphs = [
            ng.MolecularGraph(num_vertices=d.attr.shape[0], attr=d.attr, edges=d.edges,
                              graph_id=f"d{i}", schema_fingerprint=self.schema.fingerprint)
            for i, d in enumerate(gen.distinct_graphs(seed, graphs, self.CARDINALITIES))
        ]
        desk = json.loads(importlib.resources.files("ngram_graph")
                          .joinpath("data", "recovery_desk.json").read_text(encoding="utf-8"))
        desk["seed"] = seed
        if omp_trials is not None:
            desk["trials"] = omp_trials
        self.omp = recovery.RecoveryConfig.from_dict(desk)
        self.ista = recovery.RecoveryConfig(r_values=(60, 120), k_values=(16,), n_values=(2,),
                                            s_values=(3,), trials=ista_trials, method="ista",
                                            seed=seed)
        self.sizes = {
            "graphs": graphs,
            "vertices": sum(g.num_vertices for g in self.graphs),
            "edges": sum(g.num_edges for g in self.graphs),
            "T": self.T,
            "omp_trials": len(self.omp.r_values) * self.omp.trials,
            "ista_trials": len(self.ista.r_values) * self.ista.trials,
        }

    def run_pass(self, tracer=None) -> dict:
        B = ng.build_sensing(self.schema, self.SENSING_ROWS, seed=self.seed, scale=1.0)
        residuals = [ng.verify_identity(g, B, self.T) for g in self.graphs]
        emb = ng.random_embedding(self.schema, self.ORACLE_R, dist="gaussian", seed=self.seed)
        pairs = [(ng.graph_embed(g, emb, self.T).vector, ng.oracle_embed(g, emb, self.T).vector)
                 for g in self.graphs]
        return {
            "residuals": residuals,
            "pairs": pairs,
            "omp": ng.recovery_experiment(self.omp),
            "ista": ng.recovery_experiment(self.ista),
        }

    def collect(self, raw: dict) -> dict:
        return {
            "residuals": [list(r) for r in raw["residuals"]],
            "pairs": raw["pairs"],
            "omp": {c.r: (c.successes, c.trials) for c in raw["omp"]},
            "ista": {c.r: (c.successes, c.trials) for c in raw["ista"]},
        }

    def verify(self, oc: dict, ledger: Ledger, pass_index: int):
        exact = sum(all(v == 0 for v in r) and len(r) == self.T for r in oc["residuals"])
        ledger.count(len(self.graphs), len(self.graphs) - exact, "integer identity residual 0")
        close = sum(_relative_error(fast, slow) <= RTOL for fast, slow in oc["pairs"])
        ledger.count(len(self.graphs), len(self.graphs) - close, "recurrence matches oracle")
        for name, cfg, cells in (("omp", self.omp, oc["omp"]), ("ista", self.ista, oc["ista"])):
            ledger.count(len(cfg.r_values) * cfg.trials,
                         sum(cfg.trials - cells.get(r, (0, 0))[1] for r in cfg.r_values),
                         f"{name} recovery solves")
        top = max(self.omp.r_values)
        wins, trials = oc["omp"].get(top, (0, 0))
        rate = wins / trials if trials else None
        ledger.check(rate is not None and rate >= self.MIN_OMP_RATE,
                     f"OMP rate {rate} at r={top} >= {self.MIN_OMP_RATE}")
        return rate


WORKLOADS = {
    "molecules": Molecules,
    "kfold-path": KfoldPath,
    "large-graph": LargeGraph,
    "count-lab": CountLab,
}

# Small inputs for the self-test's smoke run.
TINY = {
    "molecules": {"records": 12, "epochs": 1, "oracle_rows": 12},
    "kfold-path": {"graphs": 60},
    "large-graph": {"sizes": (300, 500), "epochs": 1},
    "count-lab": {"graphs": 6, "omp_trials": 20, "ista_trials": 1},
}
