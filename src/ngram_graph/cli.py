"""Command-line pipeline: featurize, embed, check, recover, fit, evaluate.

Every artifact gets a ``.manifest.json`` sidecar read off click's own
parameter list: ``params`` holds each parameter that is not a path, under
its click name and as a flag would carry it; ``inputs`` holds each existing
input file with its SHA-256. Output paths do not change the output bytes
and are not recorded. ``--config FILE.json`` holds a JSON object of option
defaults keyed by parameter or option name (``t_steps``, ``T``,
``level-scale``); they are checked like flags, and flags on the command
line win. So ``ngg CMD --config params.json INPUTS -o NEW``, with the
manifest's ``params`` as ``params.json``, regenerates an artifact and its
sidecar byte for byte. ``recover`` reads its recovery grid from
``--grid FILE.json`` and runs its trials in one process. ``eval`` reads a
feature file written by ``embed``: with ``--model`` it scores that model on
the file, otherwise it cross-validates on it. Cross-validation that makes
the embedding inside each fold is ``sweep``; a one-cell grid is one run.
A graph corpus is read under the bundled schema its first document names.
Only ``featurize`` takes ``--schema``: the schema of SDF input, or the one
that JSON input must name. The other commands take the schema their
embedding or feature file carries.
Exit codes: 0 success; 2 on an I/O, decode, format or usage error; 1 on
any other ``ValueError`` or ``ArithmeticError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

# Start-up loads what the option declarations need; each command imports
# the rest of its engine where it runs.
from .graph import GraphError, _collector_paused, read_json_graphs, write_jsonl
from .linear import (METRICS, TASKS, LinearModel, ModelFormatError, compute_metric,
                     fit as fit_linear)
from .matrixio import MatrixFormatError, write_csv
from .ngram import LEVEL_SCALES, VARIANTS, embed_corpus, oracle_embed
from .schema import BUNDLED_SCHEMAS, AttributeSchema
from .vertex import load_embedding, save_embedding

# An exception's class picks its exit code: these exit 2, then any other
# ValueError or ArithmeticError (the engine's own errors derive from them)
# exits 1.
_PARSE_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
                 MatrixFormatError, ModelFormatError, GraphError, click.UsageError)
_NUMERIC_ERRORS = (ValueError, ArithmeticError)


_SEED = click.IntRange(min=0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json(what: str, path):
    """A JSON file's document; one that does not decode as UTF-8 or parse
    is a usage error that names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"{what} {path}: {exc}") from exc


def _config_defaults(ctx: click.Context, param, path) -> None:
    """Eager ``--config`` callback: the JSON object becomes ``ctx.default_map``.

    Each value reaches click as the text a flag would carry, so it is
    converted and checked like one; ``null`` keeps the built-in default,
    and a comma-list option also takes a JSON list of integers.
    """
    if path is None:
        return
    doc = _read_json("config", path)
    if not isinstance(doc, dict):
        raise click.UsageError(f"config {path} must hold a JSON object")
    params = {}
    for p in ctx.command.params:
        if p.expose_value:
            for key in (p.name, *p.opts):
                params[key.lstrip("-").replace("-", "_")] = p
    defaults = {}
    for key, value in doc.items():
        param = params.get(key.replace("-", "_"))
        if param is None:
            raise click.UsageError(f"unknown config key {key!r}")
        if isinstance(value, list) and isinstance(param.type, _IntList):
            if not all(type(v) is int for v in value):
                raise click.UsageError(f"config key {key!r} must be a list of integers")
            value = ",".join(map(str, value))
        elif isinstance(value, (list, dict)):
            raise click.UsageError(f"config key {key!r} must be a string, number, "
                                   "boolean or null")
        if value is not None:
            defaults[param.name] = value if isinstance(value, str) else json.dumps(value)
    ctx.default_map = defaults


class _IntList(click.ParamType):
    """Comma-separated integers (``50,100``) as a tuple; empty items are skipped."""

    name = "integers"

    def convert(self, value, param, ctx):
        try:
            return tuple(int(x) for x in str(value).split(",") if x)
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated list of integers", param, ctx)


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_config_defaults,
    help="JSON object of option defaults; command-line flags win",
)
_variant_option = click.option("--variant", default="walk", show_default=True,
                               type=click.Choice(VARIANTS))
_task_option = click.option("--task", default="logistic", show_default=True,
                            type=click.Choice(TASKS))
_metric_option = click.option("--metric", default="roc-auc", show_default=True,
                              type=click.Choice(METRICS))
_seed_option = click.option("--seed", default=0, show_default=True, type=_SEED)


def _manifest(**resolved) -> dict:
    """The current command's run record, read off click's context.

    ``resolved`` overrides a parameter the command settled itself, so the
    record replays to the same output.
    """
    ctx = click.get_current_context()
    params, inputs = {}, {}
    for p in ctx.command.params:
        if not p.expose_value:
            continue
        value = resolved.get(p.name, ctx.params[p.name])
        if isinstance(p.type, click.Path):
            if p.type.exists and value is not None:
                inputs[p.name] = {"path": str(value), "sha256": _sha256(value)}
        else:
            params[p.name] = list(value) if isinstance(value, tuple) else value
    return {"command": ctx.info_name, "params": params, "inputs": inputs}


def _write_sidecar(out_path, manifest: dict | None = None) -> None:
    """``out_path.manifest.json``, by default the current command's record."""
    side = Path(str(out_path) + ".manifest.json")
    side.write_text(json.dumps(manifest or _manifest(), sort_keys=True, indent=2),
                    encoding="utf-8")


def _echo_lines(lines) -> None:
    """The lines on stderr in one write, each ending in a newline; no lines
    write nothing."""
    lines = list(lines)
    if lines:
        click.echo("\n".join(lines), err=True)


def _load_graphs(path, schema=None, errors=None):
    """The corpus at path and its schema: the one given, else the bundled one
    whose fingerprint its graphs carry. Faults go to ``errors`` if given;
    else an undecodable line raises as a parse error (exit 2), any other,
    or a corpus with no graph documents, as a ValueError (exit 1), naming
    the file and the document."""
    try:
        graphs = read_json_graphs(Path(path).read_bytes(), schema, errors)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphError(f"{path}: document {exc.document}: {exc}") from exc
    except GraphError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not graphs and errors is None:
        raise ValueError(f"{path}: no graph documents")
    if schema is None and graphs:
        schema = next(s for s in BUNDLED_SCHEMAS.values()
                      if s.fingerprint == graphs[0].schema_fingerprint)
    return graphs, schema


@click.group()
def cli():
    """Walk-embedding pipeline for attributed molecular graphs."""


# -- featurize -----------------------------------------------------------------


@cli.command("featurize")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
@click.option("--schema", "schema_key", default=None,
              type=click.Choice(sorted(BUNDLED_SCHEMAS)),
              help="[default: full for SDF input; for JSON input, the schema "
                   "its documents name]")
@_config_option
@_collector_paused()  # records and graphs are freed before the collector resumes
def featurize_cmd(input_path, out, schema_key):
    """Parse .sdf/.mol or .json/.jsonl into a validated graph corpus."""
    from .featurize import featurize_corpus
    from .sdf import parse_sdf

    schema = BUNDLED_SCHEMAS.get(schema_key)
    suffix = Path(input_path).suffix.lower()
    if suffix in (".smi", ".smiles"):
        raise click.UsageError(
            "SMILES input is not supported; provide SDF/MOL or JSON graphs"
        )

    failed = 0
    graphs = []
    if suffix in (".json", ".jsonl"):
        errors = []
        graphs, schema = _load_graphs(input_path, schema, errors)
        failed = len(errors)
        _echo_lines(f"document {pos}: {msg}" for pos, msg in errors)
    else:
        schema = schema or BUNDLED_SCHEMAS["full"]
        records, parse_errors = parse_sdf(Path(input_path).read_bytes())
        failed = len(parse_errors)
        _echo_lines(map(str, parse_errors))
        graphs, warnings = featurize_corpus(records, schema)
        _echo_lines(f"{rec.name or 'record'}: {w}"
                    for rec, record_warnings in zip(records, warnings)
                    for w in (*rec.warnings, *record_warnings))  # reader's, then featurizer's

    if not graphs:
        raise GraphError(f"no graphs parsed from {input_path}")

    with open(out, "w", encoding="utf-8") as fh:
        write_jsonl(graphs, schema, fh)
    sizes = np.array([g.num_vertices for g in graphs])
    click.echo(
        f"parsed={len(graphs)} failed={failed} "
        f"vertices min/mean/max={sizes.min()}/{sizes.mean():.1f}/{sizes.max()}",
        err=True,
    )
    key = next(k for k, s in BUNDLED_SCHEMAS.items() if s is schema)
    _write_sidecar(out, _manifest(schema_key=key))


# -- train-vertex ----------------------------------------------------------------


@cli.command("train-vertex")
@click.argument("graphs_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
@click.option("--r", default=100, show_default=True)
@click.option("--aggregator", default="sum", show_default=True,
              type=click.Choice(["sum", "mean"]))
@click.option("--hidden", default="100", show_default=True, type=_IntList(),
              help="comma-separated hidden layer sizes")
@click.option("--epochs", default=100, show_default=True)
@click.option("--batch-size", default=256, show_default=True)
@click.option("--lr", default=1e-3, show_default=True)
@_seed_option
@_config_option
def train_vertex_cmd(graphs_path, out, r, aggregator, hidden, epochs, batch_size, lr, seed):
    """Train the vertex embedding matrix on neighbor contexts."""
    from .cbow import CbowConfig, extract_contexts, train_cbow

    graphs, schema = _load_graphs(graphs_path)
    cfg = CbowConfig(
        r=r, aggregator=aggregator, hidden=hidden, epochs=epochs,
        batch_size=batch_size, learning_rate=lr, seed=seed,
    )
    emb, report = train_cbow(extract_contexts(graphs, schema), schema, cfg,
                             dataset_id=Path(graphs_path).name)
    save_embedding(out, emb)
    if report.mean_accuracy is not None:
        click.echo(f"held-out mean attribute accuracy: {report.mean_accuracy:.4f}",
                   err=True)
        for name, acc in report.holdout_accuracy.items():
            click.echo(f"  {name}: {acc:.4f}", err=True)
    if report.epoch_losses:
        click.echo(f"final epoch loss: {report.epoch_losses[-1]:.6f}", err=True)
    _write_sidecar(out)


# -- embed -----------------------------------------------------------------------


@cli.command()
@click.argument("graphs_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--embedding", "embedding_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(),
              help="output base path; .nggm/.csv/.manifest.json are derived")
@click.option("--t", "--T", "t_steps", default=6, show_default=True)
@_variant_option
@click.option("--normalize/--no-normalize", default=False, show_default=True)
@click.option("--level-scale", default="none", show_default=True,
              type=click.Choice(LEVEL_SCALES))
@click.option("--csv/--no-csv", "want_csv", default=True, show_default=True)
@_config_option
def embed(graphs_path, embedding_path, out, t_steps, variant, normalize,
          level_scale, want_csv):
    """Embed a graph corpus into a feature matrix."""
    from .crossval import export_features

    emb = load_embedding(embedding_path)
    graphs, _ = _load_graphs(graphs_path, emb.schema)
    matrix, manifest = embed_corpus(
        graphs, emb, t_steps, variant=variant, level_scale=level_scale,
        normalization="unit-l2" if normalize else "none",
    )
    _echo_lines(f"row {row}: {msg}" for row, msg in manifest["errors"].items())
    manifest["run"] = _manifest()
    formats = ("bin", "csv") if want_csv else ("bin",)
    paths = export_features(matrix, manifest, out, formats=formats)
    failed = len(manifest["errors"])
    click.echo(f"embedded {len(graphs) - failed} of {len(graphs)} graphs ({failed} failed) "
               f"-> {paths['bin']}", err=True)


# -- oracle-check ------------------------------------------------------------------


@cli.command("oracle-check")
@click.argument("graphs_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--embedding", "embedding_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "--T", "t_steps", default=4, show_default=True)
@click.option("--cap", default=12, show_default=True)
def oracle_check(graphs_path, embedding_path, t_steps, cap):
    """Compare the recurrence against brute-force walk enumeration: exactly
    for an integer embedding, to a relative 1e-10 for a float one."""
    emb = load_embedding(embedding_path)
    graphs, _ = _load_graphs(graphs_path, emb.schema)
    for i, g in enumerate(graphs):
        if g.num_vertices > cap:
            name = i if g.graph_id is None else g.graph_id
            raise ValueError(f"graph {name!r} has {g.num_vertices} vertices, "
                             f"over --cap {cap}")
    X, manifest = embed_corpus(graphs, emb, t_steps)
    if manifest["errors"]:
        raise ValueError("; ".join(f"row {row}: {msg}"
                                   for row, msg in manifest["errors"].items()))
    worst = 0.0
    for g, fast in zip(graphs, X):
        slow = oracle_embed(g, emb, t_steps, cap=cap).vector
        scale = max(float(np.max(np.abs(slow))), 1.0)
        worst = max(worst, float(np.max(np.abs(fast - slow))) / scale)
    click.echo(f"max relative residual over {len(graphs)} graphs: {worst:.3e}")
    tol = 0.0 if np.issubdtype(emb.matrix.dtype, np.integer) else 1e-10
    if worst > tol:
        raise ValueError(f"residual {worst:.3e} exceeds tolerance {tol:.1e}")


# -- recover ------------------------------------------------------------------------


@cli.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON grid file; defaults to the bundled desk-scale grid")
@click.option("-o", "--out", default=None, type=click.Path(dir_okay=False))
@click.option("--seed", default=None, type=_SEED,
              help="[default: the grid's seed, then 0]")
@_config_option
def recover(grid_path, out, seed):
    """Monte-Carlo sparse-recovery success rates over an (r, k, n, s) grid."""
    from .recovery import RecoveryConfig, recovery_experiment, summarize_cells, write_cells_csv

    if grid_path:
        doc = _read_json("grid", grid_path)
    else:
        import importlib.resources

        doc = json.loads(
            importlib.resources.files("ngram_graph")
            .joinpath("data", "recovery_desk.json")
            .read_text(encoding="utf-8")
        )
    cfg = RecoveryConfig.from_dict(doc)
    if seed is not None:  # a flag or a --config value beats the grid's seed
        cfg = dataclasses.replace(cfg, seed=seed)
    cells = recovery_experiment(cfg)
    click.echo(summarize_cells(cells))
    if out:
        write_cells_csv(out, cells)
        _write_sidecar(out, {**_manifest(seed=cfg.seed), "grid": dataclasses.asdict(cfg)})


# -- fit / eval ----------------------------------------------------------------------


def _labels_for(graphs):
    """The corpus's labels; a graph without one, or with a NaN or infinite
    one, exits 1, named by its id, else by its 0-based position."""
    labels = []
    for i, g in enumerate(graphs):
        name = i if g.graph_id is None else g.graph_id
        if g.label is None:
            raise ValueError(f"graph {name!r} has no label")
        if not np.isfinite(g.label):
            raise ValueError(f"graph {name!r} has label {g.label!r}, which is not finite")
        labels.append(g.label)
    return np.asarray(labels, dtype=np.float64)


def _feature_hash(manifest: dict) -> str:
    """``manifest_hash`` of a feature manifest without its input paths, so
    features embedded from the same files hash alike however the paths were
    typed; the inputs' SHA-256s stay in."""
    from .crossval import manifest_hash

    run = manifest.get("run")
    inputs = run.get("inputs") if isinstance(run, dict) else None
    if isinstance(inputs, dict):
        inputs = {name: {k: v for k, v in entry.items() if k != "path"}
                  if isinstance(entry, dict) else entry
                  for name, entry in inputs.items()}
        manifest = {**manifest, "run": {**run, "inputs": inputs}}
    return manifest_hash(manifest)


def _labeled_features(features_path, graphs_path):
    """The feature file's matrix and manifest, and its graphs' labels.

    The graphs are read under the schema that the feature manifest carries,
    and pair with the rows by id, in order. A graph the embed run recorded
    as failed exits 1 here, before any fit.
    """
    from .crossval import check_no_failed_rows, load_features

    X, manifest = load_features(features_path)
    check_no_failed_rows(manifest)
    graphs, _ = _load_graphs(graphs_path, AttributeSchema.from_dict(manifest["schema"]))
    if not len(graphs) == X.shape[0] == len(manifest["ids"]):
        raise ValueError(f"feature rows ({X.shape[0]}) and their ids "
                         f"({len(manifest['ids'])}) do not match graphs ({len(graphs)})")
    for i, (row_id, g) in enumerate(zip(manifest["ids"], graphs)):
        graph_id = str(i) if g.graph_id is None else g.graph_id  # as embed_corpus names rows
        if row_id != graph_id:
            raise ValueError(f"feature row {i} is graph {row_id!r}, but graph {i} of "
                             f"{graphs_path} is {graph_id!r}")
    return X, manifest, _labels_for(graphs)


@cli.command("fit")
@click.option("--features", "features_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--graphs", "graphs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_task_option
@click.option("--lam", default=1e-3, show_default=True)
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
@_config_option
def fit_cmd(features_path, graphs_path, task, lam, out):
    """Fit the linear head on an exported feature matrix."""
    X, manifest, y = _labeled_features(features_path, graphs_path)
    model = fit_linear(X, y, task=task, lam=lam)
    model.manifest_hash = _feature_hash(manifest)
    Path(out).write_text(model.to_json(), encoding="utf-8")
    _write_sidecar(out)
    click.echo(
        f"fit {task} model: objective={model.report.objective:.6f} "
        f"iters={model.report.iterations}",
        err=True,
    )
    if not model.report.converged:
        click.echo(f"warning: fit did not converge (iters={model.report.iterations}, "
                   f"grad_norm={model.report.grad_norm:.3g})", err=True)


@cli.command("eval")
@click.option("--graphs", "graphs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--features", "features_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--folds", default=5, show_default=True)
@_task_option
@_metric_option
@click.option("--lam", default=None, type=float)
@click.option("--stratified/--no-stratified", default=False, show_default=True)
@click.option("--predictions", default=None, type=click.Path(dir_okay=False))
@click.option("--seed", default=None, type=_SEED,
              help="[default: 0; cross-validation only]")
@_config_option
def eval_cmd(graphs_path, features_path, model_path, folds, task, metric, lam,
             stratified, predictions, seed):
    """Score a saved model on a feature file, or cross-validate on the file."""
    if predictions and not model_path:
        raise click.UsageError("--predictions needs --model")
    if model_path:
        # the saved model fixes what the cross-validation options would choose;
        # each must keep its default (a --config value arrives converted)
        ctx = click.get_current_context()
        for p in ctx.command.params:
            if p.name in ("folds", "task", "lam", "stratified", "seed"):
                if ctx.params[p.name] != p.default:
                    raise click.UsageError(f"{p.opts[-1]} has no effect with --model")
    X, manifest, y = _labeled_features(features_path, graphs_path)

    if model_path:
        try:
            model = LinearModel.from_json(Path(model_path).read_text(encoding="utf-8"))
        except (ModelFormatError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"{model_path}: {exc}") from None
        if model.weights.size != X.shape[1]:
            raise ValueError(f"{model_path} has {model.weights.size} weights for "
                             f"{X.shape[1]} feature columns in {features_path}")
        scores = model.decision(X)
        value = compute_metric(metric, y, scores)
        click.echo(json.dumps({"metric": metric,
                               "value": None if value is None else float(value)}))
        if predictions:
            write_csv(predictions, scores[:, None], ["g_id", "score"],
                      row_ids=manifest["ids"])
            _write_sidecar(predictions)
        return

    from .crossval import kfold_features

    report = kfold_features(X, y, task=task, metric=metric, folds=folds, seed=seed or 0,
                            lam=lam, stratified=stratified)
    click.echo(json.dumps(report.to_dict()))
    _warn_unconverged(report)


def _warn_unconverged(report, where: str = "") -> None:
    """Name cross-validation fits, lambda-search fits included, that did not
    converge; their scores are kept."""
    if report.unconverged:
        click.echo(f"warning: {report.unconverged} fits did not converge{where}",
                   err=True)


# -- sweep ----------------------------------------------------------------------------


@cli.command()
@click.option("--graphs", "graphs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--r-grid", default="50,100", show_default=True, type=_IntList())
@click.option("--t-grid", default="2,4,6", show_default=True, type=_IntList())
@click.option("--mode", default="random-gaussian", show_default=True,
              type=click.Choice(["random-gaussian", "random-rademacher", "trained"]))
@_variant_option
@click.option("--folds", default=5, show_default=True)
@_task_option
@_metric_option
@click.option("--lam", default=None, type=float)
@click.option("--stratified/--no-stratified", default=False, show_default=True)
@click.option("-o", "--out", default=None, type=click.Path(dir_okay=False))
@_seed_option
@_config_option
def sweep(graphs_path, r_grid, t_grid, mode, variant, folds, task, metric, lam,
          stratified, out, seed):
    """Cross-validated metric over an (r, T) grid, one row per combination."""
    from .crossval import PipelineConfig, kfold_sweep

    for hint, grid in (("'--r-grid'", r_grid), ("'--t-grid'", t_grid)):
        if not grid:
            raise click.BadParameter("needs at least one value", param_hint=hint)
        repeated = next((v for i, v in enumerate(grid) if v in grid[:i]), None)
        if repeated is not None:
            raise click.BadParameter(f"repeats {repeated}", param_hint=hint)
    graphs, schema = _load_graphs(graphs_path)
    y = _labels_for(graphs)
    header = ["r", "T"] + [f"fold_{i}" for i in range(folds)] + ["mean", "std"]
    lines = [",".join(header)]
    for r in r_grid:
        cfg = PipelineConfig(embedding=mode, r=r, variant=variant, task=task,
                             metric=metric, lam=lam, seed=seed)
        reports = kfold_sweep(graphs, y, schema, cfg, t_grid, folds=folds, seed=seed,
                              stratified=stratified)
        for T, report in zip(t_grid, reports):
            click.echo(f"r={r} T={T} {report}", err=True)
            _warn_unconverged(report, f" (r={r} T={T})")
            cells = [str(r), str(T)]
            cells += ["" if v is None else repr(float(v)) for v in report.fold_values]
            cells += ["" if report.mean is None else repr(report.mean),
                      "" if report.std is None else repr(report.std)]
            lines.append(",".join(cells))
    table = "\n".join(lines) + "\n"
    click.echo(table, nl=False)
    if out:
        Path(out).write_text(table, encoding="utf-8")
        _write_sidecar(out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except _PARSE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except _NUMERIC_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
