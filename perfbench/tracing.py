"""Per-layer tracing for the benchmark's traced run.

Public functions of ``ngram_graph`` are wrapped where their callers look them
up: every module-level name in the package that is bound to the function
object is rebound to a wrapper, so calls made through ``from .x import f``
aliases are seen as well. Each call records a span (name, start, end,
parent) in memory; spans are written out when the benchmark ends. A function
that a refactor removes is skipped and reads as zero calls.

The untraced run never constructs a Tracer, so nothing is wrapped there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same trace, -1 for none


def _argument(func, args, kwargs, name):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# -- counters recorded at the wrapped boundaries ----------------------------------
# Each hook gets (counters, func, args, kwargs, result, seconds).


def _sdf_records(c, func, args, kwargs, result, seconds):
    c["sdf.records"] += len(result[0])


def _json_graphs(c, func, args, kwargs, result, seconds):
    graphs = result[0] if isinstance(result, tuple) else result
    c["graph.graphs"] += len(graphs)
    c["graph.vertices"] += sum(g.num_vertices for g in graphs)
    c["graph.edges"] += sum(g.num_edges for g in graphs)


def _walk_madds(c, func, args, kwargs, result, seconds):
    # The walk recurrence does, per level after the first, one r-vector add
    # per edge end (2E) and one r-vector multiply per vertex (m). Computed
    # from the inputs, not measured.
    if _argument(func, args, kwargs, "variant") != "walk":
        return
    g = _argument(func, args, kwargs, "g")
    T = _argument(func, args, kwargs, "T")
    c["ngram.walk_madds"] += result.r * (T - 1) * (2 * g.num_edges + g.num_vertices)
    c["ngram.walk_embed_s"] += seconds


def _cbow_samples(c, func, args, kwargs, result, seconds):
    c["cbow.samples"] += len(result)


def _cbow_epochs(c, func, args, kwargs, result, seconds):
    c["cbow.epochs"] += len(result[1].epoch_losses)


def _linear_fit(c, func, args, kwargs, result, seconds):
    c["linear.iterations"] += result.report.iterations
    c["linear.converged"] += bool(result.report.converged)


def _count_walks(c, func, args, kwargs, result, seconds):
    c["counts.walks"] += sum(result.walk_counts)


def _recovery_solve(c, func, args, kwargs, result, seconds):
    c["recovery.iterations"] += result.iterations
    c["recovery.converged"] += bool(result.converged)


def _bytes_written(c, func, args, kwargs, result, seconds):
    c["matrixio.bytes_written"] += os.path.getsize(_argument(func, args, kwargs, "path"))


# (module, function, hook); the span is named "<module>.<function>"
WRAPPED = (
    ("sdf", "parse_sdf", _sdf_records),
    ("featurize", "featurize", None),
    ("graph", "read_json_graphs", _json_graphs),
    ("graph", "validate_graph", None),
    ("graph", "write_jsonl", None),
    ("vertex", "embed_vertices", None),
    ("ngram", "embed_corpus", None),
    ("ngram", "graph_embed", _walk_madds),
    ("ngram", "oracle_embed", None),
    ("cbow", "extract_contexts", _cbow_samples),
    ("cbow", "train_cbow", _cbow_epochs),
    ("linear", "fit", _linear_fit),
    ("crossval", "kfold_cv", None),
    ("counts", "count_statistics", _count_walks),
    ("sensing", "verify_identity", None),
    ("sensing", "build_sensing", None),
    ("recovery", "sparse_recover", _recovery_solve),
    ("matrixio", "write_matrix", _bytes_written),
    ("matrixio", "write_csv", _bytes_written),
    ("matrixio", "read_matrix", None),
)

# per-layer metric -> span whose busy seconds it reports
BUSY = {
    "cli.featurize_s": "cli.featurize",
    "cli.train_vertex_s": "cli.train_vertex",
    "cli.embed_s": "cli.embed",
    "sdf.parse_s": "sdf.parse_sdf",
    "featurize.busy_s": "featurize.featurize",
    "graph.read_json_s": "graph.read_json_graphs",
    "graph.validate_s": "graph.validate_graph",
    "graph.write_jsonl_s": "graph.write_jsonl",
    "vertex.embed_vertices_s": "vertex.embed_vertices",
    "ngram.embed_corpus_s": "ngram.embed_corpus",
    "ngram.graph_embed_s": "ngram.graph_embed",
    "ngram.oracle_s": "ngram.oracle_embed",
    "cbow.extract_contexts_s": "cbow.extract_contexts",
    "cbow.train_s": "cbow.train_cbow",
    "linear.fit_s": "linear.fit",
    "crossval.kfold_cv_s": "crossval.kfold_cv",
    "counts.count_statistics_s": "counts.count_statistics",
    "sensing.verify_identity_s": "sensing.verify_identity",
    "sensing.build_sensing_s": "sensing.build_sensing",
    "recovery.sparse_recover_s": "recovery.sparse_recover",
    "matrixio.write_matrix_s": "matrixio.write_matrix",
    "matrixio.write_csv_s": "matrixio.write_csv",
    "matrixio.read_matrix_s": "matrixio.read_matrix",
}
# per-layer metric -> span whose calls it counts
CALLS = {
    "featurize.molecules": "featurize.featurize",
    "vertex.calls": "vertex.embed_vertices",
    "ngram.embed_corpus_calls": "ngram.embed_corpus",
    "ngram.graph_embed_calls": "ngram.graph_embed",
    "linear.fits": "linear.fit",
    "recovery.solves": "recovery.sparse_recover",
}
COUNTS = (
    "sdf.records", "graph.graphs", "graph.vertices", "graph.edges",
    "ngram.walk_madds", "cbow.samples", "cbow.epochs", "linear.iterations",
    "counts.walks", "recovery.iterations", "matrixio.bytes_written",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: defaultdict = defaultdict(float)
        self._open: list[int] = []
        self._restore: list = []

    def _push(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._push(name)
        try:
            yield
        finally:
            self._pop(span)

    def _wrapper(self, func, name, hook):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._push(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._pop(span)
            if hook is not None:
                hook(self.counters, func, args, kwargs, result, span.end - span.start)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ngram_graph" or n.startswith("ngram_graph."))]
        for module, attr, hook in WRAPPED:
            try:
                home = importlib.import_module(f"ngram_graph.{module}")
            except ImportError:
                continue
            func = getattr(home, attr, None)
            if not callable(func):
                continue
            wrapper = self._wrapper(func, f"{module}.{attr}", hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, func))

    def uninstall(self) -> None:
        for mod, key, func in reversed(self._restore):
            setattr(mod, key, func)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict:
        """Per-layer metrics of this pass."""
        busy, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            took = span.end - span.start
            busy[span.name] += took
            calls[span.name] += 1
            self_s[span.name] += took - child[i]
        c = self.counters
        out = {metric: busy[name] for metric, name in BUSY.items()}
        out.update({metric: float(calls[name]) for metric, name in CALLS.items()})
        out.update({name: float(c[name]) for name in COUNTS})
        out["ngram.walk_gmadds_per_s"] = _ratio(c["ngram.walk_madds"] / 1e9,
                                                c["ngram.walk_embed_s"])
        out["linear.converged_frac"] = _ratio(c["linear.converged"], calls["linear.fit"])
        out["recovery.success_frac"] = _ratio(c["recovery.converged"],
                                              calls["recovery.sparse_recover"])
        out["crossval.self_s"] = self_s["crossval.kfold_cv"]
        return out

    def dump(self) -> dict:
        return {"spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                "counters": dict(self.counters)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(path, tracers, info: dict) -> None:
    doc = {**info, "span_fields": ["name", "start", "end", "parent"],
           "passes": [t.dump() for t in tracers]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))

