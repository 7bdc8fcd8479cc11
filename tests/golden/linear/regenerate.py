"""Rewrite the golden outputs that ``tests/test_golden.py`` compares with.

    PYTHONPATH=src python tests/golden/linear/regenerate.py [--inputs]

Runs every case of ``tests/test_golden.py`` on the committed ``corpus.jsonl``
and ``features.nggm`` and writes what each printed and wrote, and its exit
code, to ``expected/``. With ``--inputs`` it first rebuilds the inputs: a
seeded labeled corpus under the full schema, and its features, embedded at
r = 16 and T = 3 with a seeded Gaussian W. Run it at
OPENBLAS_NUM_THREADS=1, and list in CHANGES.md each output that moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[2]))

import ngram_graph as ng  # noqa: E402
from ngram_graph.cli import main  # noqa: E402
from ngram_graph.graph import write_jsonl  # noqa: E402
from ngram_graph.vertex import save_embedding  # noqa: E402
from tests.test_golden import CASES, INPUTS, in_dir, run_cases  # noqa: E402

N_GRAPHS = 48


def corpus(rng) -> list:
    """Paths with one chord; a graph's label is whether it has more than six
    vertices, flipped for about one graph in ten."""
    schema, graphs = ng.FULL_SCHEMA, []
    for i in range(N_GRAPHS):
        m = int(rng.integers(4, 9))
        attr = np.stack([rng.integers(0, k, m) for k in schema.cardinalities], axis=1)
        edges = {(j, j + 1) for j in range(m - 1)}
        u, v = sorted(int(x) for x in rng.choice(m, 2, replace=False))
        edges.add((u, v))
        label = float((m > 6) != (rng.random() < 0.1))
        graphs.append(ng.MolecularGraph(
            num_vertices=m, attr=attr, edges=np.array(sorted(edges)), label=label,
            graph_id=f"golden{i}", schema_fingerprint=schema.fingerprint))
    return graphs


def make_inputs(workdir: Path) -> None:
    with open(workdir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        write_jsonl(corpus(np.random.default_rng(7)), ng.FULL_SCHEMA, fh)
    save_embedding(workdir / "w.nggm",
                   ng.random_embedding(ng.FULL_SCHEMA, 16, dist="gaussian", seed=7))
    argv = ["embed", "corpus.jsonl", "--embedding", "w.nggm", "-o", "features",
            "--T", "3", "--no-csv"]
    with in_dir(workdir):
        if main(argv) != 0:
            sys.exit("embedding the golden corpus failed")
    for name in INPUTS:
        shutil.copyfile(workdir / name, HERE / name)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if "--inputs" in sys.argv[1:]:
            make_inputs(workdir)
        for name in INPUTS:
            shutil.copyfile(HERE / name, workdir / name)
        results = run_cases(workdir)
    expected = HERE / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    expected.mkdir()
    codes = {}
    for name, _, _ in CASES:
        codes[name], texts = results[name]
        for fname, text in texts.items():
            (expected / fname).write_text(text, encoding="utf-8")
    (expected / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                              encoding="utf-8")


if __name__ == "__main__":
    regenerate()
