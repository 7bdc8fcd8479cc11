"""Every function and method of the package is reached by one ``ngg`` session.

The session runs every command through ``cli.main``, with the error paths
it documents, under ``sys.setprofile``. A function or method
defined in the package's own files, closures included, that the session
does not reach fails :func:`test_every_function_is_reached`, unless it is on
``ALLOWLIST``. Module bodies, class bodies and comprehensions do not count,
nor do the package's PEP 562 hooks (``__getattr__`` and ``__dir__``), which
serve ``import ngram_graph`` in Python, not ``ngg``; dataclass-generated
methods live in no package file. The files are found from
``ngram_graph.__file__``, so the check reads the package that the run
imports, installed or not. The session runs in a new interpreter, so no
cache filled by an earlier test answers a call in its place.

A command, option or error path added to ``ngg`` gets a step in
:func:`_session`. Code that no step reaches is surface that only tests use,
and goes rather than joining the allowlist.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngram_graph as ng
from ngram_graph.graph import write_jsonl

from . import synth
from .synth import WATER, charge_line, molblock, sdf_stream
from .test_cli import _PACKAGE_ENV

# Functions that no command reaches and a perfbench workload does: each
# entry names the workload, and the ROADMAP item that retires it once a
# benchmark change (item 2) has switched that workload. An entry that the
# session reaches, or that names no function, fails the audit.
ALLOWLIST = {
    "counts.count_statistics": "count-lab identity pass; item 4",
    "counts._binomials": "count-lab identity pass; item 4",
    "counts.CountStatistics.level": "count-lab identity pass; item 4",
    "sensing.verify_identity": "count-lab identity pass; item 4",
    "sensing.BlockSensingMatrix.embedding": "count-lab identity pass; item 4",
    "ngram.graph_embed": "count-lab oracle pass; item 4",
    "ngram.NGramEmbedding.r": "count-lab oracle pass, traced; item 4",
    "crossval.kfold_cv": "kfold-path; item 4",
    "graph.MolecularGraph.__post_init__":
        "kfold-path and count-lab, which build graphs with MolecularGraph(...); item 2",
}

_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
_MODULE_HOOKS = ("__getattr__", "__dir__")


def counted_functions(files) -> dict:
    """``(file, first line, name)`` -> ``module.qualname`` of every function
    and method compiled from the files, closures included; module bodies,
    class bodies, comprehensions and module-level ``__getattr__`` and
    ``__dir__`` are left out."""
    counted = {}

    def visit(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_name in _COMPREHENSIONS:
                visit(const, prefix)
            elif code.co_name == "<module>" and const.co_name in _MODULE_HOOKS:
                continue
            elif const.co_flags & inspect.CO_NEWLOCALS:  # a class body has none
                name = f"{prefix}.{const.co_name}"
                counted[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                visit(const, f"{name}.<locals>")
            else:
                visit(const, f"{prefix}.{const.co_name}")

    for path in map(Path, files):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return counted


# Runs argv[1] under a profiler that records every Python function called,
# then writes them, and the code's `result`, as JSON to argv[2].
_PROBE = """
import json, sys
source, out = sys.argv[1:]
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

scope = {}
sys.setprofile(profile)
exec(source, scope)
sys.setprofile(None)
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"reached": [[c.co_filename, c.co_firstlineno, c.co_name] for c in seen],
               "result": scope.get("result")}, fh)
"""


def reached_in_new_interpreter(source: str, d: Path, pythonpath: str):
    """The ``(file, first line, name)`` of every Python function that runs
    while a new interpreter, started in d with PYTHONPATH set to
    pythonpath, executes source; and the value source binds to ``result``."""
    out = d / "reached.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, source, str(out)], cwd=d,
                          env={**_PACKAGE_ENV, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    return {tuple(key) for key in doc["reached"]}, doc["result"]


def audit(counted: dict, reached: set, allowlist) -> list:
    """One line per counted function that is neither reached nor
    allowlisted, and per allowlist entry that is reached or names no
    counted function; empty when the package and the allowlist agree."""
    problems = sorted({f"{name}: reached by no session step"
                       for key, name in counted.items()
                       if key not in reached and name not in allowlist})
    reached_names = {name for key, name in counted.items() if key in reached}
    for name in sorted(allowlist):
        if name not in counted.values():
            problems.append(f"{name}: allowlisted, but no such function")
        elif name in reached_names:
            problems.append(f"{name}: allowlisted, but a session step reaches it")
    return problems


# -- the ngg session ------------------------------------------------------------


def _fixtures(d: Path) -> dict:
    """The session's input files, written into d, by name."""
    sch = ng.FULL_SCHEMA
    graphs = synth.molecule_scale_corpus(np.random.default_rng(7), sch, n_graphs=40,
                                         m_range=(5, 12))
    labeled = [dataclasses.replace(g, label=float(g.num_vertices % 2)) for g in graphs]
    p = {name: d / name for name in ("corpus.jsonl", "valued.jsonl", "mols.sdf",
                                     "messy.jsonl", "omp.json", "ista.json",
                                     "train.json", "embed.json")}
    for name, corpus in (("corpus.jsonl", labeled),
                         ("valued.jsonl", [dataclasses.replace(g, label=g.num_vertices / 7)
                                           for g in graphs])):
        with open(p[name], "w", encoding="utf-8") as fh:
            write_jsonl(corpus, sch, fh)
    # reader and featurizer warnings, a malformed counts line, an unreadable
    # charge code, a bond order out of range and an M  CHG line
    p["mols.sdf"].write_text(sdf_stream(
        molblock("rad", ["C", "C", "Si"], [(1, 2, 1), (2, 3, 1)], [4, 0, 4]),
        "junk\n\n\nnot a counts line",
        WATER,
        molblock("bad code", ["C", "O"], [(1, 2, 1)], [0, "x"]),
        molblock("bad bond", ["C", "C"], [(1, 2, 5)]),
        molblock("ion", ["N", "Si"], [(1, 2, 1)], [4, 0], props=[charge_line((1, 1))]),
    ), encoding="utf-8")
    # a valid document, a self-loop and a line nested past orjson's depth guard
    good = synth.dumps_graph(labeled[0], sch)
    loop = {**json.loads(good), "edges": [[0, 0]]}
    p["messy.jsonl"].write_text(f"{good}\n{json.dumps(loop)}\n{'[' * 300}{']' * 300}\n",
                                encoding="utf-8")
    # the r = 6 cell takes the NNLS passive-set loop
    p["omp.json"].write_text(json.dumps({
        "r_values": [6, 60], "k_values": [12], "n_values": [2], "s_values": [4],
        "trials": 4, "method": "omp", "seed": 0}))
    p["ista.json"].write_text(json.dumps({
        "r_values": [40], "k_values": [10], "n_values": [2], "s_values": [2],
        "trials": 2, "method": "ista", "seed": 0}))
    # replays: params as a sidecar records them
    p["train.json"].write_text(json.dumps({
        "r": 8, "aggregator": "sum", "hidden": [8], "epochs": 2, "batch_size": 256,
        "lr": 0.001, "seed": 0}))
    p["embed.json"].write_text(json.dumps({
        "t_steps": 3, "variant": "walk", "normalize": True, "level_scale": "count",
        "want_csv": True}))
    return p


def _session(p: dict, d: Path) -> list:
    """``(argv, exit code)`` per step: every command, and its error paths."""
    corpus, valued = str(p["corpus.jsonl"]), str(p["valued.jsonl"])
    w, feats = str(d / "w.nggm"), str(d / "feats.nggm")
    steps = [
        (["featurize", str(p["mols.sdf"]), "-o", str(d / "sdf.jsonl")], 0),
        (["featurize", str(p["messy.jsonl"]), "-o", str(d / "clean.jsonl")], 0),
        (["train-vertex", corpus, "-o", w, "--config", str(p["train.json"])], 0),
        (["train-vertex", corpus, "-o", str(d / "nan.nggm"), "--r", "4", "--hidden", "4",
          "--epochs", "2", "--lr", "1e200"], 1),
        (["embed", corpus, "--embedding", w, "-o", str(d / "feats"), "--T", "3"], 0),
        (["embed", corpus, "--embedding", w, "-o", str(d / "count"),
          "--config", str(p["embed.json"])], 0),
        (["embed", corpus, "--embedding", w, "-o", str(d / "path"), "--T", "3",
          "--variant", "path", "--level-scale", "factorial"], 0),
        (["embed", corpus, "--embedding", w, "-o", str(d / "vertex_path"), "--T", "3",
          "--variant", "vertex_path", "--no-csv"], 0),
        (["oracle-check", corpus, "--embedding", w, "--T", "3"], 0),
        (["recover", "--grid", str(p["omp.json"]), "-o", str(d / "omp.csv")], 0),
        (["recover", "--grid", str(p["ista.json"])], 0),
    ]
    steps += [(["fit", "--features", feats, "--graphs", graphs, "--task", task,
                "-o", str(d / f"{task}.json")], 0)
              for task, graphs in (("logistic", corpus), ("least-squares", valued))]
    steps += [(["eval", "--graphs", corpus, "--features", feats,
                "--model", str(d / "logistic.json"), "--metric", metric,
                "--predictions", str(d / f"{metric}.csv")], 0)
              for metric in ("roc-auc", "pr-auc", "rmse", "mae")]
    steps += [
        (["eval", "--graphs", corpus, "--features", feats, "--folds", "3"], 0),
        (["eval", "--graphs", valued, "--features", feats, "--folds", "3",
          "--task", "least-squares", "--metric", "rmse"], 0),
        # roc-auc refuses labels other than 0 and 1
        (["eval", "--graphs", valued, "--features", feats, "--folds", "3",
          "--task", "least-squares"], 1),
        (["sweep", "--graphs", corpus, "--r-grid", "8", "--t-grid", "2,3", "--folds", "3",
          "-o", str(d / "sweep.csv")], 0),
        (["sweep", "--graphs", corpus, "--mode", "trained", "--r-grid", "4", "--t-grid", "2",
          "--folds", "2"], 0),
    ]
    return steps


def _package_files() -> list:
    return sorted(Path(ng.__file__).parent.glob("*.py"))


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The session's steps, their exit codes and the functions it reached."""
    d = tmp_path_factory.mktemp("session")
    steps = _session(_fixtures(d), d)
    reached, codes = reached_in_new_interpreter(
        "from ngram_graph.cli import main\n"
        f"result = [main(argv) for argv in {[argv for argv, _ in steps]!r}]",
        d, _PACKAGE_ENV["PYTHONPATH"])
    return steps, codes, reached


def test_session_steps_exit_as_documented(session):
    steps, codes, _ = session
    assert [(argv, code) for (argv, _), code in zip(steps, codes)] == steps


def test_every_function_is_reached(session):
    problems = audit(counted_functions(_package_files()), session[2], ALLOWLIST)
    assert not problems, "\n".join(problems)


# -- the audit itself -------------------------------------------------------------

_THROWAWAY = '''
from dataclasses import dataclass
from functools import cached_property, lru_cache


def called():
    return [i for i in range(3)]


def uncalled():
    return {i: i for i in range(3)}


def outer():
    def inner():
        return 1
    return inner


@dataclass
class Box:
    size: int

    @property
    def width(self):
        return self.size

    @cached_property
    def area(self):
        return self.size ** 2


@lru_cache(maxsize=None)
def cached(n):
    return n + 1
'''

# calls every throwaway function but uncalled, outer's closure and Box.area
_USE = """
import throwaway
throwaway.called()
throwaway.outer()
assert throwaway.Box(3).width == 3
throwaway.cached(1)
"""


@pytest.fixture
def throwaway(tmp_path):
    """The functions a throwaway module written to tmp_path defines, and
    those that running ``_USE`` on it reaches."""
    path = tmp_path / "throwaway.py"
    path.write_text(_THROWAWAY, encoding="utf-8")
    return counted_functions([path]), reached_in_new_interpreter(_USE, tmp_path,
                                                                 str(tmp_path))[0]


def test_audit_reports_exactly_the_uncalled_functions(throwaway):
    counted, reached = throwaway
    assert sorted(counted.values()) == [
        "throwaway.Box.area", "throwaway.Box.width", "throwaway.cached", "throwaway.called",
        "throwaway.outer", "throwaway.outer.<locals>.inner", "throwaway.uncalled"]
    assert audit(counted, reached, {}) == [
        f"{name}: reached by no session step"
        for name in ("throwaway.Box.area", "throwaway.outer.<locals>.inner",
                     "throwaway.uncalled")]


def test_audit_fails_stale_allowlist_entries(throwaway):
    counted, reached = throwaway
    allowlist = {"throwaway.uncalled": "", "throwaway.Box.area": "",
                 "throwaway.outer.<locals>.inner": ""}
    assert audit(counted, reached, allowlist) == []
    assert audit(counted, reached, {**allowlist, "throwaway.gone": ""}) == [
        "throwaway.gone: allowlisted, but no such function"]
    assert audit(counted, reached, {**allowlist, "throwaway.called": ""}) == [
        "throwaway.called: allowlisted, but a session step reaches it"]
