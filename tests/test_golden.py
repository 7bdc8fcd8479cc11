"""Golden outputs of the linear head: ``fit``, ``eval`` and ``sweep`` on the
committed corpus and feature file under ``tests/golden/linear/``.

The feature file is committed, so ``fit`` and ``eval`` read the same matrix
whatever the walk engine does; ``sweep`` embeds inside its folds and so
also covers a small random-mode embedding. Each case runs in one scratch
directory, in order (``eval --model`` scores the models the ``fit`` cases
wrote), and is compared with the files that
``tests/golden/linear/regenerate.py`` wrote.

Integers, strings, booleans and exit codes compare exactly. Floats compare
within ``RTOL`` relative, or ``ATOL`` absolute for values near zero: ``fit``
weights move ~1e-15 relative with the BLAS thread count, and other numpy
releases sum in other orders, which the Newton solve can amplify by its
Hessian's condition number. A change to what the solver computes (its
penalty, tolerance or step rule) moves these values by far more. ``ATOL``
covers a converged fit's ``grad_norm``, whose last digits are round-off.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from pathlib import Path

import pytest

from ngram_graph.cli import main

GOLDEN = Path(__file__).parent / "golden" / "linear"
INPUTS = ("corpus.jsonl", "features.nggm")
RTOL = 1e-9
ATOL = 1e-12

_FILES = ["--features", "features.nggm", "--graphs", "corpus.jsonl"]

# (name, argv, files the case writes); every case's stdout is kept too
CASES = [
    ("fit-logistic", ["fit", *_FILES, "--task", "logistic", "--lam", "0.01",
                      "-o", "logistic.json"], ["logistic.json"]),
    ("fit-least-squares", ["fit", *_FILES, "--task", "least-squares", "--lam", "0.01",
                           "-o", "least-squares.json"], ["least-squares.json"]),
    ("eval-model-logistic", ["eval", *_FILES, "--model", "logistic.json",
                             "--predictions", "logistic-scores.csv"],
     ["logistic-scores.csv"]),
    ("eval-model-least-squares", ["eval", *_FILES, "--model", "least-squares.json",
                                  "--metric", "rmse",
                                  "--predictions", "least-squares-scores.csv"],
     ["least-squares-scores.csv"]),
    ("eval-cv-logistic", ["eval", *_FILES, "--folds", "4", "--stratified"], []),
    ("eval-cv-least-squares", ["eval", *_FILES, "--folds", "4", "--task", "least-squares",
                               "--metric", "rmse", "--lam", "0.1", "--seed", "3"], []),
    ("sweep", ["sweep", "--graphs", "corpus.jsonl", "--r-grid", "6", "--t-grid", "1,2",
               "--folds", "3", "--seed", "5", "-o", "sweep.csv"], ["sweep.csv"]),
]


@contextlib.contextmanager
def in_dir(path: Path):
    """``path`` as the working directory for the block (contextlib.chdir is
    Python 3.11+)."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def run_cases(workdir: Path) -> dict:
    """Run every case in ``workdir``, which holds the inputs; returns each
    case's exit code and its output texts, stdout under ``<name>.stdout``."""
    results = {}
    with in_dir(workdir):
        for name, argv, files in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            texts = {f"{name}.stdout": out.getvalue()}
            texts.update((f, Path(f).read_text(encoding="utf-8")) for f in files)
            results[name] = (code, texts)
    return results


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(text: str):
    """A JSON document as itself; any other text as CSV rows of cells, each
    an int, a float or the text."""
    try:
        return json.loads(text)
    except ValueError:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def assert_close(actual, expected, where: str) -> None:
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert (math.isnan(actual) and math.isnan(expected)
                or math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL)), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden-linear")
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, workdir / name)
    return run_cases(workdir)


@pytest.mark.parametrize("name", [case[0] for case in CASES])
def test_linear_head_matches_golden(outputs, name):
    code, texts = outputs[name]
    expected = json.loads((GOLDEN / "expected" / "exit_codes.json").read_text())
    assert code == expected[name]
    for fname, text in texts.items():
        golden = (GOLDEN / "expected" / fname).read_text(encoding="utf-8")
        assert_close(parse(text), parse(golden), fname)
