import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ngram_graph as ng
from ngram_graph import cbow, cli, crossval
from ngram_graph.cli import main
from ngram_graph import graph as graph_module, recovery
from ngram_graph.graph import write_jsonl
from ngram_graph.matrixio import MAGIC, read_matrix, write_csv
from ngram_graph.schema import BUNDLED_SCHEMAS
from ngram_graph.sdf import parse_sdf
from ngram_graph.vertex import load_embedding, save_embedding

from . import synth
from .synth import ETHANOL, WATER, charge_line, dumps_graph, molblock, sdf_stream

# a subprocess imports the package this run imports
_PACKAGE_ENV = dict(os.environ, PYTHONPATH=str(Path(ng.__file__).parents[1]))


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def water_sdf(tmp_path):
    p = tmp_path / "water.sdf"
    p.write_text(sdf_stream(WATER))
    return p


@pytest.fixture
def xyz_setup(tmp_path):
    """Custom 3-value schema, the hand-example path graph, and a W file."""
    sch = synth.single_attribute_schema(3, name="xyz")
    g = ng.MolecularGraph(num_vertices=3, attr=[[0], [1], [2]],
                          edges=[[0, 1], [1, 2]], graph_id="hand",
                          schema_fingerprint=sch.fingerprint)
    graphs_path = tmp_path / "hand.jsonl"
    with open(graphs_path, "w") as fh:
        write_jsonl([g], sch, fh)
    emb = ng.VertexEmbeddingMatrix(
        matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch, provenance={"kind": "manual"}
    )
    emb_path = tmp_path / "w.nggm"
    save_embedding(emb_path, emb)
    return sch, graphs_path, emb_path


class TestFeaturize:
    def test_water_one_graph(self, water_sdf, tmp_path, capsys):
        out = tmp_path / "graphs.jsonl"
        code = main(["featurize", str(water_sdf), "-o", str(out)])
        assert code == 0
        assert "parsed=1" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1
        assert (tmp_path / "graphs.jsonl.manifest.json").exists()

    def test_reader_warnings_precede_featurizer_warnings(self, tmp_path, capsys):
        # atom 2 carries the radical code 4; Si has no valence entry
        radical = molblock("rad", ["C", "C", "Si"], [(1, 2, 1), (2, 3, 1)], [0, 4, 0])
        nameless = molblock("", ["O", "Si"], [(1, 2, 1)], [4, 0])
        src = tmp_path / "radical.sdf"
        src.write_text(sdf_stream(radical, nameless))
        assert main(["featurize", str(src), "-o", str(tmp_path / "o.jsonl")]) == 0
        assert capsys.readouterr().err.splitlines()[:4] == [
            "rad: atom 2: radical charge code 4 treated as charge 0",
            "rad: atom 3 (Si): no valence entry, hydrogen count unknown",
            "record: atom 1: radical charge code 4 treated as charge 0",
            "record: atom 2 (Si): no valence entry, hydrogen count unknown",
        ]

    # parse errors, then each record's reader and featurizer warnings, then
    # the summary line: a bad counts line and a bad bond; radicals in two
    # records; an M  CHG record whose radical marker is superseded
    STDERR_SDF = sdf_stream(
        molblock("rad", ["C", "C", "Si"], [(1, 2, 1), (2, 3, 1)], [4, 0, 4]),
        "junk\n\n\nnot a counts line",
        WATER,
        molblock("", ["O", "Xe", "C"], [(1, 2, 1), (2, 3, 1)], [0, 4, 0]),
        molblock("bad bond", ["C", "C"], [(1, 2, 5)]),
        molblock("ion", ["N", "Si"], [(1, 2, 1)], [4, 0], props=[charge_line((1, 1))]),
    )
    STDERR_PARSE = ("line 12: malformed counts line: invalid literal for int() with base 10: "
                    "'not'\n"
                    "line 39: bond 1: order 5 outside 1..4\n")

    @pytest.mark.parametrize("name, sdf, expected", [
        ("mixed", STDERR_SDF, STDERR_PARSE + (
            "rad: atom 1: radical charge code 4 treated as charge 0\n"
            "rad: atom 3: radical charge code 4 treated as charge 0\n"
            "rad: atom 3 (Si): no valence entry, hydrogen count unknown\n"
            "record: atom 2: radical charge code 4 treated as charge 0\n"
            "record: atom 2 (Xe): no valence entry, hydrogen count unknown\n"
            "ion: atom 2 (Si): no valence entry, hydrogen count unknown\n"
            "parsed=4 failed=2 vertices min/mean/max=1/2.2/3\n")),
        ("clean", sdf_stream(WATER, ETHANOL),
         "parsed=2 failed=0 vertices min/mean/max=1/2.0/3\n"),
    ], ids=["mixed", "clean"])
    def test_stderr_bytes(self, tmp_path, capsys, name, sdf, expected):
        src = tmp_path / f"{name}.sdf"
        src.write_text(sdf)
        assert main(["featurize", str(src), "-o", str(tmp_path / "o.jsonl")]) == 0
        assert capsys.readouterr().err == expected

    def test_json_stderr_bytes(self, tmp_path, capsys):
        src = tmp_path / "in.sdf"
        src.write_text(self.STDERR_SDF)
        assert main(["featurize", str(src), "-o", str(tmp_path / "o.jsonl")]) == 0
        lines = (tmp_path / "o.jsonl").read_text().splitlines()
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(["{", lines[0], '{"schema_id": 3}', *lines[1:]]) + "\n")
        capsys.readouterr()
        assert main(["featurize", str(src), "-o", str(tmp_path / "o2.jsonl")]) == 0
        assert capsys.readouterr().err == (
            "document 0: Expecting property name enclosed in double quotes: line 1 column 2 "
            "(char 1)\n"
            "document 2: schema_id mismatch: document 3 vs 'molecule-full:2a39e41170369e89'\n"
            "parsed=4 failed=2 vertices min/mean/max=1/2.2/3\n")

    def test_parse_errors_precede_a_featurizer_failure(self, tmp_path, capsys, monkeypatch):
        from ngram_graph import featurize

        def fail(records, schema):
            raise ValueError("featurizer failed")

        monkeypatch.setattr(featurize, "featurize_corpus", fail)
        src = tmp_path / "in.sdf"
        src.write_text(self.STDERR_SDF)
        assert main(["featurize", str(src), "-o", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err == self.STDERR_PARSE + "error: featurizer failed\n"

    def test_empty_file_exits_two(self, tmp_path):
        empty = tmp_path / "empty.sdf"
        empty.write_text("")
        assert main(["featurize", str(empty), "-o", str(tmp_path / "o.jsonl")]) == 2

    def test_mixed_corruption_keeps_valid_records(self, tmp_path, capsys):
        broken = "junk\n\n\nnot a counts line\n"
        stream = sdf_stream(WATER, broken, molblock("etoh", ["C", "C", "O"],
                                                    [(1, 2, 1), (2, 3, 1)]))
        src = tmp_path / "mix.sdf"
        src.write_text(stream)
        out = tmp_path / "graphs.jsonl"
        assert main(["featurize", str(src), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "parsed=2" in err and "failed=1" in err

    def test_smiles_rejected(self, tmp_path):
        smi = tmp_path / "mols.smi"
        smi.write_text("CCO\n")
        assert main(["featurize", str(smi), "-o", str(tmp_path / "o.jsonl")]) == 2

    def test_missing_input_exits_two(self, tmp_path):
        assert main(["featurize", str(tmp_path / "nope.sdf"),
                     "-o", str(tmp_path / "o.jsonl")]) == 2

    def test_config_file_sets_schema(self, water_sdf, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": "reduced"}))
        out = tmp_path / "graphs.jsonl"
        assert main(["featurize", str(water_sdf), "-o", str(out),
                     "--config", str(cfg)]) == 0
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["schema_id"].startswith("molecule-reduced:")

    def test_flags_beat_config(self, water_sdf, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": "reduced"}))
        out = tmp_path / "graphs.jsonl"
        assert main(["featurize", str(water_sdf), "-o", str(out),
                     "--schema", "full", "--config", str(cfg)]) == 0
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["schema_id"].startswith("molecule-full:")

    def test_jsonl_input_normalized_and_validated(self, tmp_path, rng):
        sch = ng.FULL_SCHEMA
        graphs = []
        for i in range(3):
            m = int(rng.integers(2, 5))
            attr = np.stack([rng.integers(0, k, size=m) for k in sch.cardinalities],
                            axis=1)
            edges = np.array([[j, j + 1] for j in range(m - 1)])
            graphs.append(ng.MolecularGraph(num_vertices=m, attr=attr, edges=edges,
                                            graph_id=f"g{i}",
                                            schema_fingerprint=sch.fingerprint))
        src = tmp_path / "in.jsonl"
        with open(src, "w") as fh:
            write_jsonl(graphs, sch, fh)
        out = tmp_path / "out.jsonl"
        assert main(["featurize", str(src), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


def _jsonl_docs() -> list:
    graphs = synth.random_corpus(np.random.default_rng(0), ng.FULL_SCHEMA, 3, density=0.5)
    return [json.loads(dumps_graph(g, ng.FULL_SCHEMA)) for g in graphs]


class TestJsonlInput:
    """``featurize`` skips a JSONL line that is not valid JSON or not UTF-8,
    like a broken SDF record; commands that load a corpus exit 2 on such a
    line and 1 on an invalid document."""

    DOCS = _jsonl_docs()
    LINES = [json.dumps(d).encode() for d in DOCS]
    BAD = {
        "truncated": LINES[1][:160],
        "not-utf8": LINES[1][:12] + b"\xff" + LINES[1][13:],
        "missing-field": json.dumps({k: v for k, v in DOCS[1].items()
                                     if k != "num_vertices"}).encode(),
        "huge-count": LINES[1].replace(b'"num_vertices": %d' % DOCS[1]["num_vertices"],
                                       b'"num_vertices": 1e400'),
        "list-id": json.dumps({**DOCS[1], "id": [0]}).encode(),
    }

    def _write(self, tmp_path, bad, name="in.jsonl"):
        src = tmp_path / name
        src.write_bytes(b"\n".join([self.LINES[0], self.BAD[bad], self.LINES[2]]) + b"\n")
        return src

    @pytest.mark.parametrize("bad", ["truncated", "not-utf8", "missing-field", "huge-count",
                                     "list-id"])
    def test_featurize_skips_the_bad_line(self, tmp_path, capsys, bad):
        out = tmp_path / "out.jsonl"
        assert main(["featurize", str(self._write(tmp_path, bad)), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "document 1: " in err and "parsed=2 failed=1" in err
        if bad == "missing-field":
            assert "document 1: missing field 'num_vertices'" in err
        if bad == "list-id":
            assert "document 1: id must be a JSON string or null, got list" in err
        assert out.read_text().splitlines() == [
            json.dumps(self.DOCS[i], separators=(",", ":")) for i in (0, 2)]

    def test_json_array_stays_one_document(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_bytes(b"[" + b",".join([self.LINES[0], self.BAD["truncated"]]) + b"]")
        assert main(["featurize", str(src), "-o", str(tmp_path / "out.jsonl")]) == 2
        assert "document 0: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad,code", [("truncated", 2), ("not-utf8", 2),
                                          ("missing-field", 1), ("huge-count", 1)])
    def test_corpus_loaders_keep_exit_codes(self, tmp_path, capsys, bad, code):
        src = self._write(tmp_path, bad)
        assert main(["train-vertex", str(src), "-o", str(tmp_path / "w.nggm"),
                     "--r", "4", "--epochs", "1", "--hidden", "4"]) == code
        err = capsys.readouterr().err
        # the message names the file and the document, whatever went wrong
        assert err.startswith(f"error: {src}: document 1: ")
        if bad == "missing-field":
            assert "document 1: missing field 'num_vertices'" in err
        if bad == "list-id":
            assert "document 1: id must be a JSON string or null, got list" in err
        if bad == "huge-count":
            assert "document 1: num_vertices must be a JSON integer, got float" in err


    @pytest.mark.parametrize("command", [["featurize"], ["train-vertex"]])
    def test_json_nested_past_the_recursion_limit_exits_two(self, tmp_path, capsys, command):
        src = tmp_path / "in.jsonl"
        src.write_bytes(self.LINES[0] + b"\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n")
        assert main(command + [str(src), "-o", str(tmp_path / "out")]) == 2
        assert "maximum recursion depth exceeded" in capsys.readouterr().err


class TestReaderFuzz:
    """Byte-mutated input of every kind a command reads: ``main`` ends with
    a documented exit code; any other exception escapes and fails a test."""

    SDF = sdf_stream(WATER, ETHANOL, molblock("ion", ["N", "O", "C"],
                                              [(1, 2, 2), (2, 3, 1)], [3, 5, 0])).encode()
    DOCS = _jsonl_docs()
    JSONL = "".join(json.dumps(d) + "\n" for d in DOCS).encode()

    def _featurize(self, tmp_path, name, data):
        src = tmp_path / name
        src.write_bytes(data)
        return main(["featurize", str(src), "-o", str(tmp_path / "out.jsonl")])

    def test_unmutated_inputs_parse(self, tmp_path):
        assert self._featurize(tmp_path, "in.sdf", self.SDF) == 0
        assert self._featurize(tmp_path, "in.jsonl", self.JSONL) == 0

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=synth.byte_mutations(SDF))
    def test_mutated_sdf(self, tmp_path, capsys, data):
        assert self._featurize(tmp_path, "in.sdf", data) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(data=synth.byte_mutations(SDF))
    def test_mutated_sdf_accounts_for_every_record(self, data):
        # each nonblank chunk between $$$$ lines is a record or an error;
        # only a chunk split at a second M  END line gives more than one
        lines = data.decode("utf-8", errors="replace").splitlines()
        chunks = [[]]
        for line in lines:
            if line.startswith("$$$$"):
                chunks.append([])
            else:
                chunks[-1].append(line)
        nonblank = sum(any(line.strip() for line in chunk) for chunk in chunks)
        ends = sum(line.startswith("M  END") for line in lines)
        records, errors = parse_sdf(data)
        assert nonblank <= len(records) + len(errors) <= nonblank + ends
        at = [e.line for e in errors]
        assert all(a < b for a, b in zip(at, at[1:]))
        assert all(1 <= n <= len(lines) for n in at)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=synth.byte_mutations(JSONL))
    def test_mutated_jsonl(self, tmp_path, capsys, data):
        code = self._featurize(tmp_path, "in.jsonl", data)
        assert code in (0, 1, 2)
        if code == 0 and data.lstrip()[:1] != b"[":
            # every nonblank line is either a graph written or a failure counted
            summary = capsys.readouterr().err.splitlines()[-1]
            parsed, failed = map(int, re.match(r"parsed=(\d+) failed=(\d+) ", summary).groups())
            assert parsed + failed == sum(1 for line in data.splitlines() if line.strip())

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=synth.json_field_mutations(DOCS))
    def test_jsonl_field_replaced(self, tmp_path, capsys, data):
        assert self._featurize(tmp_path, "in.jsonl", data) in (0, 1, 2)

    # case: (file mutated, command line); {src} is the mutated file, {base}
    # holds the other inputs and {out} names the outputs
    MUTATED = {
        "train-vertex-jsonl": ("g.jsonl", ["train-vertex", "{src}", "-o", "{out}.nggm",
                                           "--r", "4", "--hidden", "4", "--epochs", "1"]),
        "embed-jsonl": ("g.jsonl", ["embed", "{src}", "--embedding", "{base}/w.nggm",
                                    "-o", "{out}", "--T", "2"]),
        "featurize-array": ("g.json", ["featurize", "{src}", "-o", "{out}.jsonl"]),
        "train-vertex-config": ("cfg.json", ["train-vertex", "{base}/g.jsonl",
                                             "--config", "{src}", "-o", "{out}.nggm"]),
        "embed-embedding": ("w.nggm", ["embed", "{base}/g.jsonl", "--embedding", "{src}",
                                       "-o", "{out}", "--T", "2"]),
        "eval-features": ("f.nggm", ["eval", "--graphs", "{base}/g.jsonl", "--features",
                                     "{src}", "--folds", "2", "--lam", "1e-3"]),
        "eval-model": ("model.json", ["eval", "--graphs", "{base}/g.jsonl", "--features",
                                      "{base}/f.nggm", "--model", "{src}"]),
    }

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """Valid inputs of every kind a command reads, built once: a labeled
        corpus as JSONL and as one JSON array, a train-vertex config, an
        embedding, the corpus's feature file and a model fit on it."""
        base = tmp_path_factory.mktemp("fuzz")
        with open(base / "g.jsonl", "w") as fh:
            write_jsonl(_labeled_corpus(np.random.default_rng(0), 8), ng.FULL_SCHEMA, fh)
        lines = (base / "g.jsonl").read_bytes().splitlines()
        (base / "g.json").write_bytes(b"[" + b",".join(lines) + b"]")
        (base / "cfg.json").write_text(json.dumps({"r": 4, "hidden": [4], "epochs": 1}))
        save_embedding(base / "w.nggm", ng.random_embedding(ng.FULL_SCHEMA, 4, seed=0))
        assert main(["embed", str(base / "g.jsonl"), "--embedding", str(base / "w.nggm"),
                     "-o", str(base / "f"), "--T", "2", "--no-csv"]) == 0
        assert main(["fit", "--features", str(base / "f.nggm"), "--graphs",
                     str(base / "g.jsonl"), "-o", str(base / "model.json")]) == 0
        return base

    @pytest.mark.parametrize("case", sorted(MUTATED))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_input_of_every_kind(self, base, tmp_path, capsys, case, data):
        name, argv = self.MUTATED[case]
        mutated = data.draw(synth.byte_mutations((base / name).read_bytes()))
        if name == "cfg.json":
            # a run of digits could ask for a huge r, hidden layer or epoch count
            assume(not re.search(rb"[0-9]{3}", mutated))
        src = tmp_path / name
        src.write_bytes(mutated)
        argv = [a.format(src=src, base=base, out=tmp_path / "out") for a in argv]
        assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("argv", [
    ["featurize", "g.jsonl", "-o", "out.jsonl"],
    ["train-vertex", "g.jsonl", "-o", "w2.nggm", "--r", "4", "--hidden", "4",
     "--epochs", "1"],
    ["embed", "g.jsonl", "--embedding", "w.nggm", "-o", "e", "--T", "2"],
    ["oracle-check", "one.jsonl", "--embedding", "w.nggm", "--T", "2"],
    ["fit", "--features", "f.nggm", "--graphs", "g.jsonl", "-o", "model.json"],
    ["eval", "--graphs", "g.jsonl", "--features", "f.nggm", "--folds", "2", "--lam", "1e-3"],
    ["sweep", "--graphs", "g.jsonl", "--r-grid", "4", "--t-grid", "1", "--folds", "2",
     "--lam", "1e-3"],
], ids=lambda argv: argv[0])
def test_every_command_reads_its_corpus_through_read_json_graphs(config_workspace,
                                                                 monkeypatch, argv):
    """The one reader is the name that the benchmark's tracer wraps, so its
    graph, vertex and edge counters see every corpus a command reads."""
    calls = []
    read = cli.read_json_graphs
    monkeypatch.setattr(cli, "read_json_graphs",
                        lambda *a, **kw: calls.append(a) or read(*a, **kw))
    assert main(argv) == 0
    assert len(calls) == 1


class TestTrainVertex:
    def _corpus(self, tmp_path, rng):
        sch = ng.FULL_SCHEMA
        graphs = []
        for i in range(12):
            m = int(rng.integers(3, 7))
            attr = np.stack(
                [rng.integers(0, k, size=m) for k in sch.cardinalities], axis=1
            )
            edges = np.array([[j, j + 1] for j in range(m - 1)])
            graphs.append(ng.MolecularGraph(num_vertices=m, attr=attr, edges=edges,
                                            graph_id=f"g{i}",
                                            schema_fingerprint=sch.fingerprint))
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as fh:
            write_jsonl(graphs, sch, fh)
        return path

    def test_deterministic_rerun_same_hash(self, tmp_path, rng):
        corpus = self._corpus(tmp_path, rng)
        w1, w2 = tmp_path / "w1.nggm", tmp_path / "w2.nggm"
        args = ["--r", "6", "--epochs", "2", "--hidden", "8", "--seed", "5"]
        assert main(["train-vertex", str(corpus), "-o", str(w1)] + args) == 0
        assert main(["train-vertex", str(corpus), "-o", str(w2)] + args) == 0
        assert _sha(w1) == _sha(w2)

    def test_zero_epochs_is_random_init(self, tmp_path, rng, capsys):
        corpus = self._corpus(tmp_path, rng)
        out = tmp_path / "w.nggm"
        assert main(["train-vertex", str(corpus), "-o", str(out),
                     "--r", "5", "--epochs", "0", "--seed", "3"]) == 0
        emb = ng.load_embedding(out)
        assert emb.provenance["epochs"] == 0
        assert emb.matrix.shape == (5, ng.FULL_SCHEMA.total_width)

    @pytest.mark.parametrize("command, flags, message", [
        ("train-vertex", ["--r", "0"], "r must be >= 1"),
        ("train-vertex", ["--batch-size", "0"], "batch size must be >= 1"),
        ("train-vertex", ["--epochs", "-1"], "epochs must be >= 0"),
        ("sweep", ["--mode", "trained", "--r-grid", "0"], "r must be >= 1"),
        ("train-vertex", ["--lr", "nan"], "learning rate must be > 0 and finite"),
    ])
    def test_untrainable_config_exits_one(self, tmp_path, rng, capsys, command, flags,
                                          message):
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w") as fh:
            write_jsonl(_labeled_corpus(rng, 12), ng.FULL_SCHEMA, fh)
        out = tmp_path / "out"
        argv = ([command, str(corpus)] if command == "train-vertex"
                else [command, "--graphs", str(corpus)])
        assert main(argv + ["-o", str(out)] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_divergence_exits_one(self, tmp_path, rng, capsys):
        # a step size at overflow scale makes the loss non-finite
        corpus = self._corpus(tmp_path, rng)
        out = tmp_path / "w.nggm"
        with np.errstate(all="ignore"):
            code = main(["train-vertex", str(corpus), "-o", str(out), "--r", "4",
                         "--hidden", "4", "--epochs", "3", "--lr", "1e200"])
        assert code == 1
        assert re.fullmatch(r"error: non-finite loss at epoch \d+",
                            capsys.readouterr().err.splitlines()[-1])
        assert not out.exists()

    def test_divergence_prints_only_the_error(self, tmp_path, rng):
        # numpy's overflow warnings stay quiet; the error line reports the divergence
        corpus = self._corpus(tmp_path, rng)
        proc = subprocess.run(
            [sys.executable, "-m", "ngram_graph.cli", "train-vertex", str(corpus),
             "-o", str(tmp_path / "w.nggm"), "--r", "8", "--hidden", "8", "--epochs", "2",
             "--lr", "1e200"], env=_PACKAGE_ENV, capture_output=True, text=True)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: non-finite loss at epoch \d+\n", proc.stderr)
        assert not (tmp_path / "w.nggm").exists()

    def test_predictable_corpus_reports_high_accuracy(self, tmp_path, rng, capsys):
        sch = ng.FULL_SCHEMA
        graphs = synth.neighbor_predictable_corpus(rng, sch, n_graphs=100)
        path = tmp_path / "pred.jsonl"
        with open(path, "w") as fh:
            write_jsonl(graphs, sch, fh)
        out = tmp_path / "w.nggm"
        code = main(["train-vertex", str(path), "-o", str(out), "--r", "32",
                     "--aggregator", "mean", "--hidden", "64", "--epochs", "40",
                     "--batch-size", "128", "--lr", "3e-3", "--seed", "0"])
        assert code == 0
        err = capsys.readouterr().err
        acc = float(err.split("accuracy: ")[1].split()[0])
        assert acc >= 0.99


class TestEmbed:
    def test_hand_example_row(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        out = tmp_path / "feats"
        code = main(["embed", str(graphs_path), "--embedding", str(emb_path),
                     "-o", str(out), "--T", "3"])
        assert code == 0
        csv_lines = (tmp_path / "feats.csv").read_text().splitlines()
        assert csv_lines[0] == "g_id,f_1_0,f_2_0,f_3_0"
        cells = csv_lines[1].split(",")
        assert cells[0] == "hand"
        assert [float(x) for x in cells[1:]] == [6.0, 16.0, 48.0]

    def test_width_scales_with_T(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        out = tmp_path / "w1"
        main(["embed", str(graphs_path), "--embedding", str(emb_path),
              "-o", str(out), "--T", "1"])
        X, _ = ng.load_features(tmp_path / "w1.nggm")
        assert X.shape == (1, 1)  # r = 1, T = 1

    def test_path_variant_row(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        out = tmp_path / "pathfeats"
        assert main(["embed", str(graphs_path), "--embedding", str(emb_path),
                     "-o", str(out), "--T", "3", "--variant", "path"]) == 0
        row = (tmp_path / "pathfeats.csv").read_text().splitlines()[1].split(",")
        assert [float(x) for x in row[1:]] == [6.0, 16.0, 12.0]

    def test_rerun_identical_files(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["embed", str(graphs_path), "--embedding", str(emb_path),
                         "-o", str(out), "--T", "4"]) == 0
        assert _sha(tmp_path / "a.nggm") == _sha(tmp_path / "b.nggm")
        assert _sha(tmp_path / "a.csv") == _sha(tmp_path / "b.csv")


class TestOracleCheck:
    def test_clean_corpus_passes(self, tmp_path, rng, capsys):
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 8, density=0.4)
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--T", "3"]) == 0
        assert "max relative residual" in capsys.readouterr().out

    def test_residual_over_tolerance_exits_one(self, tmp_path, rng, monkeypatch, capsys):
        sch = synth.small_schema()
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(synth.random_corpus(rng, sch, 4, density=0.4), sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        real = cli.oracle_embed

        def off(*a, **kw):  # an enumerator that disagrees with the engine by 1e-3
            e = real(*a, **kw)
            return ng.NGramEmbedding(levels=tuple(level + 1e-3 for level in e.levels))

        monkeypatch.setattr(cli, "oracle_embed", off)
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--T", "3"]) == 1
        out, err = capsys.readouterr()
        worst = float(out.split(": ")[1])
        assert 1e-4 < worst <= 1e-3
        assert err == f"error: residual {worst:.3e} exceeds tolerance 1.0e-10\n"

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_tolerance_no_residual_can_meet_exits_two(self, tmp_path, rng, capsys, tol):
        # a tolerance no residual can meet is refused, now by the parser: --tol is gone
        sch = synth.small_schema()
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(synth.random_corpus(rng, sch, 4, density=0.4), sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: No such option") and "--tol" in err

    def test_tolerance_is_not_an_option(self, tmp_path, rng, capsys):
        # the embedding's dtype sets it: 0 for integers, 1e-10 for floats
        sch = synth.small_schema()
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(synth.random_corpus(rng, sch, 4, density=0.4), sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--tol", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: No such option") and "--tol" in err

    def test_zero_tolerance_passes_exact_and_fails_any_residual(self, tmp_path, rng,
                                                               monkeypatch, capsys):
        # an integer embedding is checked exactly
        sch = synth.small_schema()
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(synth.random_corpus(rng, sch, 4, density=0.4), sch, fh)
        wp = tmp_path / "w.nggm"
        W = rng.choice((-1, 1), size=(4, sch.total_width)).astype(np.int64)
        save_embedding(wp, ng.VertexEmbeddingMatrix(matrix=W, schema=sch, provenance={}))
        argv = ["oracle-check", str(gp), "--embedding", str(wp), "--T", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(": 0.000e+00\n")
        real = cli.oracle_embed

        def off(*a, **kw):  # an enumerator that disagrees with the engine by 1e-12
            e = real(*a, **kw)
            return ng.NGramEmbedding(levels=tuple(level + 1e-12 for level in e.levels))

        monkeypatch.setattr(cli, "oracle_embed", off)
        assert main(argv) == 1
        assert "exceeds tolerance 0.0e+00" in capsys.readouterr().err

    def test_validation_error_exits_one(self, tmp_path, rng):
        sch = synth.small_schema()
        g = synth.random_graph(rng, sch, m=4, density=0.5)
        gp = tmp_path / "bad.jsonl"
        doc = json.loads(dumps_graph(g, sch))
        doc["edges"] = [[0, 0]]  # inject a self-loop
        gp.write_text(json.dumps(doc) + "\n")
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        assert main(["oracle-check", str(gp), "--embedding", str(wp)]) == 1

    def test_oversize_graph_refused_with_cap_message(self, tmp_path, rng, monkeypatch,
                                                     capsys):
        # the graph over --cap is named before anything is embedded; a graph
        # without an id is named by its position, one with the id "" by its id
        sch = synth.small_schema()
        graphs = [synth.random_graph(rng, sch, m=m, density=0.2) for m in (5, 20, 9, 13)]
        graphs[1] = dataclasses.replace(graphs[1], graph_id="big")
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        calls = []
        real = cli.embed_corpus
        monkeypatch.setattr(cli, "embed_corpus", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        capsys.readouterr()
        assert main(["oracle-check", str(gp), "--embedding", str(wp)]) == 1
        assert capsys.readouterr() == ("", "error: graph 'big' has 20 vertices, over --cap 12\n")
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--cap", "19"]) == 1
        assert capsys.readouterr().err == "error: graph 'big' has 20 vertices, over --cap 19\n"
        assert calls == []
        graphs[1] = dataclasses.replace(graphs[1], num_vertices=12, attr=graphs[1].attr[:12],
                                        edges=[])
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        assert main(["oracle-check", str(gp), "--embedding", str(wp)]) == 1
        assert capsys.readouterr().err == "error: graph 3 has 13 vertices, over --cap 12\n"
        graphs[3] = dataclasses.replace(graphs[3], graph_id="")
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        assert main(["oracle-check", str(gp), "--embedding", str(wp)]) == 1
        assert capsys.readouterr().err == "error: graph '' has 13 vertices, over --cap 12\n"
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--cap", "13"]) == 0
        assert calls == [1]

    def test_int64_overflow_refused_with_its_message(self, tmp_path, capsys):
        # the triangle's level-8 walk sum, 384 * 1000^8, is outside int64
        sch = synth.single_attribute_schema(2)
        g = ng.MolecularGraph(num_vertices=3, attr=[[0]] * 3, edges=[[0, 1], [0, 2], [1, 2]],
                              graph_id="tri", schema_fingerprint=sch.fingerprint)
        gp = tmp_path / "tri.jsonl"
        gp.write_text(dumps_graph(g, sch) + "\n")
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.VertexEmbeddingMatrix(
            matrix=np.array([[1000, 1]], dtype=np.int64), schema=sch,
            provenance={"kind": "int"}))
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--T", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 0: int64 walk sums may overflow at T=8")

    def test_one_engine_call_for_the_corpus(self, tmp_path, rng, monkeypatch):
        sch = synth.small_schema()
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(synth.random_corpus(rng, sch, 6, density=0.4), sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 4, seed=0))
        calls = []
        real = cli.embed_corpus
        monkeypatch.setattr(cli, "embed_corpus",
                            lambda graphs, *a, **kw: calls.append(len(graphs)) or
                            real(graphs, *a, **kw))
        assert main(["oracle-check", str(gp), "--embedding", str(wp), "--T", "3"]) == 0
        assert calls == [6]


class TestRecover:
    def test_zero_sparsity_grid_all_success(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r_values": [8], "k_values": [10], "n_values": [2],
            "s_values": [0], "trials": 5, "method": "omp", "seed": 0,
        }))
        out = tmp_path / "cells.csv"
        assert main(["recover", "--grid", str(cfg), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,k,n,s,trials,successes"
        assert lines[1] == "8,10,2,0,5,5"

    def test_bundled_config_small_seedless_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r_values": [200], "k_values": [20], "n_values": [2],
            "s_values": [3], "trials": 10, "method": "omp",
        }))
        out = tmp_path / "cells.csv"
        assert main(["recover", "--grid", str(cfg), "-o", str(out),
                     "--seed", "1"]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert int(row[5]) >= 9  # calibrated regime succeeds

    @pytest.mark.parametrize("doc,message", [
        ({"trials": "5"}, "'trials' must be an integer"),
        ({"r_values": 100}, "'r_values' must be a list of integers"),
        ({"method": "lasso"}, "'method' must be one of"),
        ([8], "must be a JSON object"),
        ({"trials": -5}, "'trials' must be at least 1"),
        ({"trials": 0}, "'trials' must be at least 1"),
        ({"r_values": []}, "'r_values' must not be empty"),
        ({"r_values": [100, 0]}, "'r_values' must be at least 1"),
        ({"k_values": [1]}, "'k_values' must be at least 2"),
        ({"n_values": [0], "s_values": [0]}, "'n_values' must be at least 1"),
        ({"s_values": [2, -1]}, "'s_values' must be at least 0"),
        ({"entry_low": 0}, "'entry_low' must be at least 1"),
        ({"entry_low": 5, "entry_high": 4}, "'entry_high' must be at least 'entry_low'"),
        ({"method": "ista", "max_iter": -1}, "'max_iter' must be at least 12"),
        ({"r_values": [8, 800], "k_values": [40], "n_values": [4], "s_values": [2],
          "trials": 1, "method": "ista"},
         "ista cell r=800 k=40 n=4 needs a level operator of 73112000 entries, "
         "over cap 10000000"),
        ({"seed": -1}, "'seed' must be at least 0"),
    ])
    def test_malformed_grid_exits_one_before_any_trial(self, tmp_path, capsys,
                                                       monkeypatch, doc, message):
        built = []
        monkeypatch.setattr(recovery, "build_sensing",
                            lambda *a, **kw: built.append(a) or 1 / 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["recover", "--grid", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert built == []

    @pytest.mark.parametrize("content, message", [
        (b'{"r_values": ', "Expecting value: line 1 column 14 (char 13)"),
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["json", "utf-8"])
    def test_undecodable_grid_is_named(self, tmp_path, capsys, content, message):
        grid = tmp_path / "grid.json"
        grid.write_bytes(content)
        assert main(["recover", "--grid", str(grid)]) == 2
        assert capsys.readouterr().err.startswith(f"error: grid {grid}: {message}")

    def test_grid_directory_exits_two(self, tmp_path, capsys):
        assert main(["recover", "--grid", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_config_sets_option_defaults(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"r_values": [60], "k_values": [10], "s_values": [2],
                                    "trials": 4}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        outputs = []
        for extra in (["--seed", "3"], ["--config", str(cfg)]):
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(["recover", "--grid", str(grid), "-o", str(out)] + extra) == 0
            outputs.append((out.read_bytes(),
                            Path(str(out) + ".manifest.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["params"] == {"seed": 3}
        # a grid file is not a config file
        assert main(["recover", "--config", str(grid)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_seed,env,extra,want", [
        (5, "7", ["--seed", "3"], 3),
        (5, "7", ["--config", "cfg.json"], 4),
        (5, "7", [], 5),
        (None, "7", [], 0),
        (None, None, [], 0),
    ])
    def test_seed_precedence(self, tmp_path, monkeypatch, grid_seed, env, extra, want):
        """A flag or --config value, then the grid's seed, then 0; $NGG_SEED
        (env) is not read."""
        monkeypatch.chdir(tmp_path)
        doc = {"r_values": [20], "k_values": [6], "s_values": [2], "trials": 3}
        if grid_seed is not None:
            doc["seed"] = grid_seed
        Path("grid.json").write_text(json.dumps(doc))
        Path("cfg.json").write_text(json.dumps({"seed": 4}))
        if env is None:
            monkeypatch.delenv("NGG_SEED", raising=False)
        else:
            monkeypatch.setenv("NGG_SEED", env)
        assert main(["recover", "--grid", "grid.json", "-o", "a.csv"] + extra) == 0
        run = json.loads(Path("a.csv.manifest.json").read_text())
        assert run["params"]["seed"] == run["grid"]["seed"] == want
        monkeypatch.delenv("NGG_SEED", raising=False)
        assert main(["recover", "--grid", "grid.json", "-o", "b.csv",
                     "--seed", str(want)]) == 0
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()


class TestFitEval:
    @pytest.fixture
    def labeled_setup(self, tmp_path, rng):
        sch = synth.single_attribute_schema(8)
        graphs, labels, _ = synth.count_label_corpus(rng, sch, n_graphs=40,
                                                     m_range=(4, 7))
        graphs = [dataclasses.replace(g, label=float(y)) for g, y in zip(graphs, labels)]
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        wp = tmp_path / "w.nggm"
        save_embedding(wp, ng.random_embedding(sch, 8, seed=0))
        fp = tmp_path / "feats"
        assert main(["embed", str(gp), "--embedding", str(wp), "-o", str(fp),
                     "--T", "2", "--normalize"]) == 0
        return sch, gp, tmp_path / "feats.nggm"

    def test_fit_eval_round_trip_identical_predictions(self, labeled_setup,
                                                       tmp_path, capsys):
        # both commands read the graphs under the schema the feature manifest
        # carries; eval's predictions are the saved model's scores on the file
        sch, gp, feats = labeled_setup
        model = tmp_path / "model.json"
        p1 = tmp_path / "ref_preds.csv"
        p2 = tmp_path / "eval_preds.csv"
        assert main(["fit", "--features", str(feats), "--graphs", str(gp),
                     "--task", "logistic", "--lam", "1e-3", "-o", str(model)]) == 0
        assert main(["eval", "--graphs", str(gp), "--features", str(feats),
                     "--model", str(model), "--metric", "roc-auc",
                     "--predictions", str(p2)]) == 0
        X, manifest = crossval.load_features(feats)
        scores = ng.LinearModel.from_json(model.read_text()).decision(X)
        write_csv(p1, scores[:, None], ["g_id", "score"], row_ids=manifest["ids"])
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(model.read_text())
        assert doc["task"] == "logistic"
        assert doc["manifest_hash"]
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "roc-auc" and out["value"] is not None

    def test_fit_model_independent_of_path_spelling(self, labeled_setup, tmp_path,
                                                     monkeypatch):
        # the fixture embedded through absolute paths; embed again through
        # relative ones and fit both
        sch, gp, feats = labeled_setup
        monkeypatch.chdir(tmp_path)
        assert main(["embed", gp.name, "--embedding", "w.nggm", "-o", "rel",
                     "--T", "2", "--normalize"]) == 0
        inputs = [ng.load_features(p)[1]["run"]["inputs"] for p in (feats, "rel.nggm")]
        assert inputs[0]["graphs_path"]["path"] != inputs[1]["graphs_path"]["path"]
        for features, out in ((str(feats), "abs.json"), ("rel.nggm", "rel.json")):
            assert main(["fit", "--features", features, "--graphs", gp.name,
                         "-o", out]) == 0
        assert Path("abs.json").read_bytes() == Path("rel.json").read_bytes()

    def test_fit_warns_when_not_converged(self, labeled_setup, tmp_path, capsys,
                                          monkeypatch):
        sch, gp, feats = labeled_setup
        model_path = tmp_path / "model.json"
        args = ["fit", "--features", str(feats), "--graphs", str(gp),
                "-o", str(model_path)]
        assert main(args) == 0
        assert "warning" not in capsys.readouterr().err
        real_fit = cli.fit_linear
        fitted = []

        def unconverged(*a, **kw):
            model = real_fit(*a, **kw)
            model.report.converged = False
            fitted.append(model)
            return model

        monkeypatch.setattr(cli, "fit_linear", unconverged)
        assert main(args) == 0
        rep = fitted[0].report
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [f"warning: fit did not converge (iters={rep.iterations}, "
                            f"grad_norm={rep.grad_norm:.3g})"]
        assert model_path.read_text() == fitted[0].to_json()

    def test_fit_has_no_penalty_option(self, labeled_setup, tmp_path, capsys):
        # the squared l2 norm is the one penalty: --penalty is an unknown
        # option, and a config that names it, as an older fit sidecar's
        # params do, an unknown key
        sch, gp, feats = labeled_setup
        args = ["fit", "--features", str(feats), "--graphs", str(gp),
                "-o", str(tmp_path / "model.json")]
        assert main(args + ["--penalty", "squared-l2"]) == 2
        # click releases punctuate this message differently
        assert re.fullmatch(r"error: No such option\W+--penalty\W*\n", capsys.readouterr().err)
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"task": "logistic", "lam": 0.001, "penalty": "squared-l2"}))
        assert main(args + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'penalty'\n"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["fit", "embed"])
    def test_takes_no_seed(self, labeled_setup, tmp_path, monkeypatch, capsys, command):
        # neither command draws a random number, so neither has a seed to take
        sch, gp, feats = labeled_setup
        args = {"fit": ["fit", "--features", str(feats), "--graphs", str(gp),
                        "-o", str(tmp_path / "model.json")],
                "embed": ["embed", str(gp), "--embedding", str(tmp_path / "w.nggm"),
                          "-o", str(tmp_path / "f")]}[command]
        assert main(args + ["--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert main(args + ["--config", str(cfg)]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err
        monkeypatch.setenv("NGG_SEED", "abc")  # never read
        assert main(args) == 0
        if command == "embed":
            manifest = json.loads((tmp_path / "f.manifest.json").read_text())
            assert "seed" not in manifest and "seed" not in manifest["run"]["params"]

    def test_ids_that_need_quotes_read_back_through_csv(self, tmp_path):
        names = ["1,2-dichloroethane", 'the "odd" one', "plain"]
        sdf = tmp_path / "named.sdf"
        sdf.write_text(sdf_stream(*(molblock(n, ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])
                                    for n in names)))
        gp, lp = tmp_path / "g.jsonl", tmp_path / "labeled.jsonl"
        assert main(["featurize", str(sdf), "-o", str(gp)]) == 0
        docs = [json.loads(line) for line in gp.read_text().splitlines()]
        lp.write_text("".join(json.dumps({**d, "label": float(i % 2)}) + "\n"
                              for i, d in enumerate(docs)))
        wp, fp = tmp_path / "w.nggm", tmp_path / "f"
        save_embedding(wp, ng.random_embedding(ng.FULL_SCHEMA, 4, seed=0))
        assert main(["embed", str(gp), "--embedding", str(wp), "-o", str(fp),
                     "--T", "2"]) == 0
        preds = tmp_path / "p.csv"
        assert main(["fit", "--features", str(fp) + ".nggm", "--graphs", str(lp),
                     "-o", str(tmp_path / "m.json")]) == 0
        assert main(["eval", "--features", str(fp) + ".nggm", "--graphs", str(lp),
                     "--model", str(tmp_path / "m.json"), "--predictions", str(preds)]) == 0
        X, _ = crossval.load_features(str(fp) + ".nggm")
        with open(str(fp) + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["g_id"] + ng.ngram.feature_column_names(2, 4)
        assert [row[0] for row in rows[1:]] == names
        assert np.array_equal(np.array([row[1:] for row in rows[1:]], dtype=float), X)
        with open(preds, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["g_id", "score"] and [row[0] for row in rows[1:]] == names
        assert all(len(row) == 2 for row in rows)

    def test_sweep_grid_table(self, tmp_path, rng, capsys):
        sch = ng.FULL_SCHEMA
        graphs = []
        for i in range(24):
            m = int(rng.integers(3, 6))
            attr = np.stack([rng.integers(0, k, size=m) for k in sch.cardinalities],
                            axis=1)
            edges = np.array([[j, j + 1] for j in range(m - 1)])
            graphs.append(ng.MolecularGraph(
                num_vertices=m, attr=attr, edges=edges, label=float(i % 2),
                graph_id=f"g{i}", schema_fingerprint=sch.fingerprint))
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--graphs", str(gp), "--r-grid", "4,6",
                     "--t-grid", "1,2,3", "--mode", "random-gaussian",
                     "--folds", "3", "--lam", "1e-3", "--seed", "0",
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("r,T,fold_0")
        assert len(lines) == 1 + 6  # header + 2x3 grid rows

    def test_trained_sweep_trains_each_fold_once(self, tmp_path, rng, monkeypatch):
        # a fold's CBOW embedding does not depend on T, so a sweep trains it
        # once per r and every cell still equals its own kfold_cv, which
        # trains the fold afresh
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(_labeled_corpus(rng, 24), ng.FULL_SCHEMA, fh)
        trained = []
        real_train = cbow.train_cbow

        def counted(*a, **kw):
            trained.append(kw["dataset_id"])
            return real_train(*a, **kw)

        monkeypatch.setattr(cbow, "train_cbow", counted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graphs", str(gp), "--mode", "trained", "--r-grid", "4,3",
                     "--t-grid", "1,3,2", "--folds", "3", "--lam", "1e-3", "--seed", "5",
                     "-o", str(out)]) == 0
        assert trained == ["cv-fold-0", "cv-fold-1", "cv-fold-2"] * 2
        graphs = ng.read_json_graphs(gp.read_bytes(), ng.FULL_SCHEMA)
        y = np.array([g.label for g in graphs])
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6
        for line, (r, T) in zip(lines[1:], [(r, T) for r in (4, 3) for T in (1, 3, 2)]):
            cfg = crossval.PipelineConfig(embedding="trained", r=r, T=T, lam=1e-3, seed=5)
            report = crossval.kfold_cv(graphs, y, ng.FULL_SCHEMA, cfg, folds=3, seed=5)
            cells = [str(r), str(T)] + ["" if v is None else repr(float(v))
                                        for v in report.fold_values]
            cells += ["" if report.mean is None else repr(report.mean),
                      "" if report.std is None else repr(report.std)]
            assert line == ",".join(cells)

    @pytest.mark.parametrize("mode", ["random-rademacher", "trained"])
    def test_retired_eval_modes_have_exact_replacements(self, tmp_path, rng, capsys, mode):
        # embed --normalize then eval --features scores the rows that eval
        # --embedding embedded itself, and a one-cell sweep --stratified is
        # the end-to-end eval run it replaces
        gp, wp, out = tmp_path / "g.jsonl", tmp_path / "w.nggm", tmp_path / "s.csv"
        with open(gp, "w") as fh:
            write_jsonl(_labeled_corpus(rng, 30), ng.FULL_SCHEMA, fh)
        graphs = ng.read_json_graphs(gp.read_bytes(), ng.FULL_SCHEMA)
        y = np.array([g.label for g in graphs])
        save_embedding(wp, ng.random_embedding(ng.FULL_SCHEMA, 6, seed=3))
        assert main(["embed", str(gp), "--embedding", str(wp), "-o", str(tmp_path / "f"),
                     "--T", "3", "--variant", "path", "--normalize"]) == 0
        capsys.readouterr()
        assert main(["eval", "--graphs", str(gp), "--features", str(tmp_path / "f.nggm"),
                     "--folds", "3", "--stratified", "--seed", "2"]) == 0
        X, _ = ng.embed_corpus(graphs, load_embedding(wp), 3, variant="path",
                               normalization="unit-l2")
        report = crossval.kfold_features(X, y, folds=3, seed=2, stratified=True)
        assert capsys.readouterr().out == json.dumps(report.to_dict()) + "\n"

        assert main(["sweep", "--graphs", str(gp), "--mode", mode, "--r-grid", "5",
                     "--t-grid", "2", "--variant", "path", "--folds", "3", "--stratified",
                     "--seed", "4", "-o", str(out)]) == 0
        cfg = crossval.PipelineConfig(embedding=mode, r=5, T=2, variant="path", seed=4)
        report = crossval.kfold_cv(graphs, y, ng.FULL_SCHEMA, cfg, folds=3, seed=4,
                                   stratified=True)
        assert out.read_text().splitlines()[1].split(",") == (
            ["5", "2"] + [repr(float(v)) for v in report.fold_values]
            + [repr(report.mean), repr(report.std)])

    def test_failed_rows_are_counted_and_named(self, tmp_path, capsys):
        # level-6 walk sums over a 10^6 int64 entry could wrap, so embed
        # refuses every graph with a vertex of value 0; it counts them and
        # exits 0, and fit and eval name the first one before any fit
        sch = synth.single_attribute_schema(2)
        gp, wp, fp = tmp_path / "g.jsonl", tmp_path / "w.nggm", tmp_path / "f"
        values = [(1, 1), (0, 0), (1, 1), (0, 1), (1, 1), (1, 1)]
        with open(gp, "w") as fh:
            write_jsonl([ng.MolecularGraph(num_vertices=2, attr=[[a], [b]], edges=[[0, 1]],
                                           label=float(i % 2), graph_id=f"m{i}",
                                           schema_fingerprint=sch.fingerprint)
                         for i, (a, b) in enumerate(values)], sch, fh)
        save_embedding(wp, ng.VertexEmbeddingMatrix(
            matrix=np.array([[10**6, 1]], dtype=np.int64), schema=sch,
            provenance={"kind": "int"}))
        assert main(["embed", str(gp), "--embedding", str(wp), "-o", str(fp),
                     "--T", "6"]) == 0
        reason = "int64 walk sums may overflow at T=6 (m=2, max|F|=1000000, max degree=1)"
        assert capsys.readouterr().err.splitlines() == [
            f"row 1: {reason}", f"row 3: {reason}",
            f"embedded 4 of 6 graphs (2 failed) -> {fp}.nggm"]
        named = f"error: 2 of 6 graphs failed to embed; the first, 'm1' (row 1): {reason}\n"
        feats = ["--features", str(fp) + ".nggm", "--graphs", str(gp)]
        model = tmp_path / "model.json"
        for argv in (["fit", "-o", str(model)], ["eval", "--folds", "2"]):
            assert main(argv + feats) == 1
            assert capsys.readouterr() == ("", named)
        assert not model.exists()

    def test_float_overflow_rows_are_counted_and_named(self, tmp_path, rng, capsys,
                                                       monkeypatch):
        # with a 1e120 entry a level-3 walk over two value-0 vertices sums to
        # 1e360, past float64; with --normalize so does the squared norm of a
        # graph with one value-0 vertex (1e480). Each such row is NaN and
        # named, the others keep the bytes they have without those graphs, and
        # fit, eval and sweep refuse the file before any fit
        sch = synth.single_attribute_schema(2)
        gp, wp, model = tmp_path / "g.jsonl", tmp_path / "w.nggm", tmp_path / "model.json"
        values = [(1, 1), (0, 0), (0, 1), (1, 1), (0, 0), (1, 0)]
        graphs = [ng.MolecularGraph(num_vertices=2, attr=[[a], [b]], edges=[[0, 1]],
                                    label=float(i % 2), graph_id=f"m{i}",
                                    schema_fingerprint=sch.fingerprint)
                  for i, (a, b) in enumerate(values)]
        with open(gp, "w") as fh:
            write_jsonl(graphs, sch, fh)
        emb = ng.VertexEmbeddingMatrix(matrix=np.array([[1e120, 1.0]]), schema=sch,
                                       provenance={"kind": "scaled"})
        save_embedding(wp, emb)
        reason = "float64 walk features overflow at T=3"
        for flags, failed in (([], [1, 4]), (["--normalize"], [1, 2, 4, 5])):
            fp = tmp_path / f"f{len(flags)}"
            with np.errstate(all="raise"):  # the engine checks rows, numpy need not warn
                assert main(["embed", str(gp), "--embedding", str(wp), "-o", str(fp),
                             "--T", "3", *flags]) == 0
            assert capsys.readouterr().err.splitlines() == [
                *(f"row {i}: {reason}" for i in failed),
                f"embedded {6 - len(failed)} of 6 graphs ({len(failed)} failed) "
                f"-> {fp}.nggm"]
            X, _ = read_matrix(f"{fp}.nggm")
            assert np.isnan(X[failed]).all()
            kept = [i for i in range(6) if i not in failed]
            alone, manifest = ng.embed_corpus([graphs[i] for i in kept], emb, 3,
                                              normalization="unit-l2" if flags else "none")
            assert manifest["errors"] == {}
            assert X[kept].tobytes() == alone.tobytes()
            named = (f"error: {len(failed)} of 6 graphs failed to embed; the first, "
                     f"'m1' (row 1): {reason}\n")
            feats = ["--features", f"{fp}.nggm", "--graphs", str(gp)]
            for argv in (["fit", "-o", str(model)], ["eval", "--folds", "2"]):
                assert main(argv + feats) == 1
                assert capsys.readouterr() == ("", named)
            assert not model.exists()
        # sweep makes its own embedding, so the random one is scaled here
        with open(gp, "w") as fh:
            write_jsonl(_labeled_corpus(rng, 6), ng.FULL_SCHEMA, fh)
        real = crossval.random_embedding

        def scaled(*a, **kw):
            emb = real(*a, **kw)
            return ng.VertexEmbeddingMatrix(matrix=emb.matrix * 1e120, schema=emb.schema,
                                            provenance=emb.provenance)

        monkeypatch.setattr(crossval, "random_embedding", scaled)
        assert main(["sweep", "--graphs", str(gp), "--r-grid", "2", "--t-grid", "3",
                     "--folds", "2", "--lam", "1e-3"]) == 1
        assert capsys.readouterr() == ("", "error: 6 of 6 graphs failed to embed; the "
                                           f"first, 'g0' (row 0): {reason}\n")

    def test_leakage_exits_one(self, config_workspace, monkeypatch, capsys):
        def leaked(*a, **kw):
            raise crossval.LeakageError("embedding was trained on test rows [0]")

        monkeypatch.setattr(crossval, "kfold_sweep", leaked)
        capsys.readouterr()
        assert main(_argv(config_workspace, "sweep")) == 1
        assert capsys.readouterr() == ("", "error: embedding was trained on test rows [0]\n")

    def test_unlabeled_graph_exits_one_and_is_named(self, labeled_setup, tmp_path, rng,
                                                    capsys):
        sch, gp, feats = labeled_setup
        graphs = graph_module.read_json_graphs(gp.read_bytes(), sch)
        full = _labeled_corpus(rng, 6)
        runs = [(graphs, sch, "'c3'",
                 ["fit", "--features", str(feats), "-o", str(tmp_path / "m")]),
                (graphs, sch, "'c3'", ["eval", "--features", str(feats), "--folds", "3"]),
                (full, ng.FULL_SCHEMA, "'g3'", ["sweep", "--r-grid", "4", "--t-grid", "2",
                                                "--folds", "3", "-o", str(tmp_path / "s")])]
        capsys.readouterr()
        for corpus, corpus_schema, named, argv in runs:
            corpus = [*corpus[:3], dataclasses.replace(corpus[3], label=None), *corpus[4:]]
            # a graph is named by its id, else by its 0-based position
            for name, docs in ((named, corpus),
                               ("3", [dataclasses.replace(g, graph_id=None) for g in corpus])):
                unlabeled = tmp_path / "unlabeled.jsonl"
                with open(unlabeled, "w") as fh:
                    write_jsonl(docs, corpus_schema, fh)
                own = [_features_of(unlabeled, feats, tmp_path, capsys) if a == str(feats) else a
                       for a in argv]
                assert main(own + ["--graphs", str(unlabeled)]) == 1, argv
                assert capsys.readouterr() == (
                    "", f"error: graph {name} has no label\n"), argv
        assert not (tmp_path / "m").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("label", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_label_exits_one_and_is_named(self, labeled_setup, tmp_path, rng,
                                                     capsys, label):
        # the reader takes a label that json reads; a fit or a score refuses it
        sch, gp, feats = labeled_setup
        model = tmp_path / "model.json"
        assert main(["fit", "--features", str(feats), "--graphs", str(gp), "-o", str(model)]) == 0
        graphs = graph_module.read_json_graphs(gp.read_bytes(), sch)
        least_squares = ["--task", "least-squares", "--metric", "rmse", "--lam", "1e-3"]
        runs = [(graphs, sch, "'c2'", ["fit", "--features", str(feats),
                                       "--task", "least-squares", "-o", str(tmp_path / "m")]),
                (graphs, sch, "'c2'", ["eval", "--features", str(feats), "--folds", "3",
                                       *least_squares]),
                (graphs, sch, "'c2'", ["eval", "--features", str(feats), "--model", str(model),
                                       "--predictions", str(tmp_path / "p.csv")]),
                (_labeled_corpus(rng, 6), ng.FULL_SCHEMA, "'g2'",
                 ["sweep", "--r-grid", "4", "--t-grid", "2", "--folds", "3", *least_squares,
                  "-o", str(tmp_path / "s")])]
        capsys.readouterr()
        for corpus, corpus_schema, named, argv in runs:
            corpus = [*corpus[:2], dataclasses.replace(corpus[2], label=label), *corpus[3:]]
            for name, docs in ((named, corpus),
                               ("2", [dataclasses.replace(g, graph_id=None) for g in corpus])):
                bad = tmp_path / "bad.jsonl"
                with open(bad, "w") as fh:
                    write_jsonl(docs, corpus_schema, fh)
                read = graph_module.read_json_graphs(bad.read_bytes(), corpus_schema)
                assert repr(read[2].label) == repr(label)
                own = [_features_of(bad, feats, tmp_path, capsys) if a == str(feats) else a
                       for a in argv]
                assert main(own + ["--graphs", str(bad)]) == 1, argv
                assert capsys.readouterr() == ("", f"error: graph {name} has label "
                                                   f"{label!r}, which is not finite\n"), argv
        assert not any((tmp_path / name).exists() for name in ("m", "p.csv", "s"))

    @pytest.mark.parametrize("metric", ["roc-auc", "pr-auc"])
    @pytest.mark.parametrize("relabel", [lambda g: g.num_vertices / 7,
                                         lambda g: 1.0 if g.num_vertices % 2 else -1.0],
                             ids=["vertices-over-7", "plus-minus-1"])
    def test_ranking_metric_refuses_labels_not_0_1(self, tmp_path, capsys, metric, relabel):
        # a ranking metric once read every nonzero label as positive, so a
        # least-squares sweep on these labels exited 0 with every fold absent
        sch = ng.FULL_SCHEMA
        graphs = synth.molecule_scale_corpus(np.random.default_rng(0), sch, n_graphs=40)
        gp, feats = tmp_path / "g.jsonl", tmp_path / "f.nggm"
        with open(gp, "w") as fh:
            write_jsonl([dataclasses.replace(g, label=relabel(g)) for g in graphs], sch, fh)
        save_embedding(tmp_path / "w.nggm", ng.random_embedding(sch, 8, seed=0))
        assert main(["embed", str(gp), "--embedding", str(tmp_path / "w.nggm"),
                     "-o", str(tmp_path / "f"), "--T", "2"]) == 0
        model, out = tmp_path / "m.json", tmp_path / "s.csv"
        assert main(["fit", "--features", str(feats), "--graphs", str(gp),
                     "--task", "least-squares", "-o", str(model)]) == 0
        least_squares = ["--task", "least-squares", "--metric", metric]
        runs = [["sweep", "--graphs", str(gp), "--r-grid", "8", "--t-grid", "2",
                 "--folds", "3", *least_squares, "-o", str(out)],
                ["eval", "--graphs", str(gp), "--features", str(feats), "--folds", "3",
                 *least_squares],
                ["eval", "--graphs", str(gp), "--features", str(feats), "--model", str(model),
                 "--metric", metric]]
        capsys.readouterr()
        for argv in runs:
            assert main(argv) == 1, argv
            assert capsys.readouterr() == ("", f"error: {metric} needs labels in {{0, 1}}\n"), argv
        assert not out.exists()

    def test_eval_predictions_needs_model(self, labeled_setup, tmp_path, capsys):
        _, gp, feats = labeled_setup
        preds = tmp_path / "p.csv"
        assert main(["eval", "--graphs", str(gp), "--features", str(feats), "--folds", "3",
                     "--lam", "1e-3", "--predictions", str(preds)]) == 2
        assert "--predictions needs --model" in capsys.readouterr().err
        assert not preds.exists()

    def test_eval_cv_on_feature_file(self, labeled_setup, tmp_path, capsys):
        _, gp, feats = labeled_setup
        code = main(["eval", "--graphs", str(gp), "--features", str(feats),
                     "--folds", "4", "--lam", "1e-4", "--seed", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["fold_values"]) == 4

    def test_eval_and_sweep_warn_on_unconverged_fits(self, labeled_setup, tmp_path,
                                                     rng, capsys, monkeypatch):
        _, gp, feats = labeled_setup
        full = tmp_path / "full.jsonl"
        with open(full, "w") as fh:
            write_jsonl(_labeled_corpus(rng, 24), ng.FULL_SCHEMA, fh)
        runs = [["eval", "--graphs", str(gp), "--features", str(feats),
                 "--folds", "4", "--lam", "1e-3", "--seed", "1"],
                ["sweep", "--graphs", str(full), "--r-grid", "4", "--t-grid", "1,2",
                 "--mode", "random-gaussian", "--folds", "3", "--lam", "1e-3",
                 "--seed", "0"]]
        clean = []
        for args in runs:
            assert main(args) == 0
            out, err = capsys.readouterr()
            assert "warning" not in err
            clean.append(out)
        real_fit_path = crossval.fit_path

        def unconverged(*a, **kw):
            models = real_fit_path(*a, **kw)
            for model in models:
                model.report.converged = False
            return models

        monkeypatch.setattr(crossval, "fit_path", unconverged)
        expected = [["warning: 4 fits did not converge"],
                    ["warning: 3 fits did not converge (r=4 T=1)",
                     "warning: 3 fits did not converge (r=4 T=2)"]]
        for args, out_before, want in zip(runs, clean, expected):
            assert main(args) == 0
            out, err = capsys.readouterr()
            assert out == out_before  # the JSON and the CSV table do not change
            assert [line for line in err.splitlines()
                    if line.startswith("warning:")] == want

    def test_eval_feature_row_mismatch_exits_one(self, labeled_setup, tmp_path):
        _, gp, feats = labeled_setup
        X, manifest = ng.load_features(feats)
        from ngram_graph.crossval import export_features

        short = export_features(X[:-2], manifest, tmp_path / "short")
        assert main(["eval", "--graphs", str(gp),
                     "--features", str(short["bin"])]) == 1

    def test_embed_no_csv(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        out = tmp_path / "nocsv"
        assert main(["embed", str(graphs_path), "--embedding", str(emb_path),
                     "-o", str(out), "--T", "2", "--no-csv"]) == 0
        assert (tmp_path / "nocsv.nggm").exists()
        assert not (tmp_path / "nocsv.csv").exists()

    def test_embed_has_no_jobs_flag(self, xyz_setup, tmp_path):
        _, graphs_path, emb_path = xyz_setup
        assert main(["embed", str(graphs_path), "--embedding", str(emb_path),
                     "-o", str(tmp_path / "par"), "--jobs", "2"]) == 2
        assert not (tmp_path / "par.nggm").exists()

    def test_recover_has_no_jobs_flag(self, tmp_path, capsys):
        # trials run in one process; a pool option is a usage error
        assert main(["recover", "-o", str(tmp_path / "r.csv"), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: No such option") and "--jobs" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("given, option, value", [
        ("--features", "--mode", "trained"),
        ("--features", "--r", "999"),
        ("--features", "--T", "9"),
        ("--features", "--variant", "path"),
        ("--embedding", "--mode", "trained"),
        ("--embedding", "--r", "999"),
    ])
    def test_eval_rejects_options_its_input_fixes(self, labeled_setup, tmp_path, capsys,
                                                  given, option, value):
        # eval reads a feature file, which fixes the embedding: an option that
        # would choose one, and --embedding itself, is no option of eval's, by
        # flag or by --config, even at its old default
        _, gp, feats = labeled_setup
        argv = ["eval", "--graphs", str(gp), "--features", str(feats), "--folds", "3",
                "--lam", "1e-3"]
        default = {"--mode": "random-gaussian", "--r": "100", "--T": "6", "--variant": "walk"}
        runs = [(option, value), (option, default[option])]
        if given == "--embedding":
            runs.append((given, str(tmp_path / "w.nggm")))
        cfg = tmp_path / "cfg.json"
        for flag, arg in runs:
            assert main(argv + [flag, arg]) == 2
            out, err = capsys.readouterr()
            assert err.startswith("error: No such option") and flag in err
            assert out == ""
            cfg.write_text(json.dumps({flag[2:]: arg}))
            assert main(argv + ["--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: unknown config key '{flag[2:]}'\n"
        assert main(["eval", "--help"]) == 0
        listed = set(re.findall(r"--\w+", capsys.readouterr().out))
        assert option not in listed and "--embedding" not in listed

    @pytest.mark.parametrize("option, value, default", [
        ("--folds", "9", "5"),
        ("--task", "least-squares", "logistic"),
        ("--lam", "5", None),
        ("--stratified", True, False),
        ("--seed", "4", None),
    ])
    def test_eval_model_rejects_cross_validation_options(self, labeled_setup, tmp_path,
                                                         capsys, option, value, default):
        # a saved model fixes what the cross-validation options would choose
        _, gp, feats = labeled_setup
        model = tmp_path / "model.json"
        assert main(["fit", "--features", str(feats), "--graphs", str(gp),
                     "-o", str(model)]) == 0
        argv = ["eval", "--graphs", str(gp), "--features", str(feats), "--model", str(model)]
        capsys.readouterr()

        def flag(v):
            if isinstance(v, bool):
                return [option if v else "--no-" + option[2:]]
            return [] if v is None else [option, v]

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option[2:]: value}))
        for extra in (flag(value), ["--config", str(cfg)]):
            assert main(argv + extra) == 2
            out, err = capsys.readouterr()
            assert err == f"error: {option} has no effect with --model\n"
            assert out == ""
        # the default, spelled out by flag or by config, is no flag at all
        assert main(argv) == 0
        plain = capsys.readouterr().out
        cfg.write_text(json.dumps({option[2:]: default}))
        for extra in (flag(default), ["--config", str(cfg)]):
            assert main(argv + extra) == 0
            assert capsys.readouterr().out == plain

    def test_features_and_graphs_pair_by_id(self, labeled_setup, tmp_path, capsys):
        # neither the same graphs in another order nor features embedded from
        # a corpus without ids (rows named by position) pair with the corpus
        sch, gp, feats = labeled_setup
        model = tmp_path / "model.json"
        assert main(["fit", "--features", str(feats), "--graphs", str(gp),
                     "-o", str(model)]) == 0
        graphs = ng.read_json_graphs(gp.read_bytes(), sch)
        swapped, unnamed = tmp_path / "swapped.jsonl", tmp_path / "unnamed.jsonl"
        with open(swapped, "w") as fh:
            write_jsonl([graphs[1], graphs[0]] + graphs[2:], sch, fh)
        with open(unnamed, "w") as fh:
            write_jsonl([dataclasses.replace(g, graph_id=None) for g in graphs], sch, fh)
        assert main(["embed", str(unnamed), "--embedding", str(tmp_path / "w.nggm"),
                     "-o", str(tmp_path / "unnamed"), "--T", "2"]) == 0
        capsys.readouterr()
        a, b = graphs[0].graph_id, graphs[1].graph_id
        cases = [(feats, swapped, f"error: feature row 0 is graph {a!r}, but graph 0 of "
                                  f"{swapped} is {b!r}\n"),
                 (tmp_path / "unnamed.nggm", gp, "error: feature row 0 is graph '0', but "
                                                 f"graph 0 of {gp} is {a!r}\n")]
        for features, corpus, message in cases:
            for argv in (["fit", "-o", str(tmp_path / "m2.json")],
                         ["eval", "--folds", "2"], ["eval", "--model", str(model)]):
                assert main(argv + ["--features", str(features), "--graphs", str(corpus)]) == 1
                assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "m2.json").exists()
        # the naming rule holds both ways: an unnamed corpus pairs with its features
        assert main(["fit", "--features", str(tmp_path / "unnamed.nggm"), "--graphs",
                     str(unnamed), "-o", str(tmp_path / "m3.json")]) == 0


def _features_of(corpus, feats, tmp_path, capsys):
    """``corpus`` embedded with the run params of ``feats``, so its rows
    pair with the corpus's graphs; ids differ when the corpus's do."""
    params = ng.load_features(feats)[1]["run"]["params"]
    (tmp_path / "params.json").write_text(json.dumps(params))
    out = tmp_path / "own"
    assert main(["embed", str(corpus), "--embedding", str(tmp_path / "w.nggm"),
                 "-o", str(out), "--config", str(tmp_path / "params.json")]) == 0
    capsys.readouterr()
    return str(out) + ".nggm"


def _labeled_corpus(rng, n_graphs, sch=ng.FULL_SCHEMA):
    graphs = []
    for i in range(n_graphs):
        m = int(rng.integers(3, 6))
        attr = np.stack([rng.integers(0, k, size=m) for k in sch.cardinalities], axis=1)
        edges = np.array([[j, j + 1] for j in range(m - 1)])
        graphs.append(ng.MolecularGraph(
            num_vertices=m, attr=attr, edges=edges, label=float(i % 2),
            graph_id=f"g{i}", schema_fingerprint=sch.fingerprint))
    return graphs


@pytest.fixture
def config_workspace(tmp_path, monkeypatch, rng, water_sdf):
    """Inputs for every config-taking command; relative outputs land in
    tmp_path. Returns each command's argv as (parameter name, tokens)."""
    monkeypatch.chdir(tmp_path)
    graphs = _labeled_corpus(rng, 12)
    with open("g.jsonl", "w") as fh:
        write_jsonl(graphs, ng.FULL_SCHEMA, fh)
    with open("one.jsonl", "w") as fh:
        write_jsonl(graphs[:1], ng.FULL_SCHEMA, fh)
    save_embedding("w.nggm", ng.random_embedding(ng.FULL_SCHEMA, 4, seed=0))
    assert main(["embed", "g.jsonl", "--embedding", "w.nggm", "-o", "f", "--T", "2"]) == 0
    # one trial keeps the recover runs short
    Path("grid.json").write_text(json.dumps({"r_values": [8], "k_values": [4],
                                             "s_values": [1], "trials": 1}))
    return {
        "featurize": [("input_path", [str(water_sdf)]), ("out", ["-o", "out.jsonl"])],
        "train-vertex": [("graphs_path", ["g.jsonl"]), ("out", ["-o", "tv.nggm"]),
                         ("r", ["--r", "4"]), ("epochs", ["--epochs", "1"]),
                         ("hidden", ["--hidden", "4"])],
        "embed": [("graphs_path", ["one.jsonl"]), ("embedding_path", ["--embedding", "w.nggm"]),
                  ("out", ["-o", "e"]), ("t_steps", ["--T", "2"])],
        "fit": [("features_path", ["--features", "f.nggm"]), ("graphs_path", ["--graphs", "g.jsonl"]),
                ("out", ["-o", "model.json"])],
        "eval": [("graphs_path", ["--graphs", "g.jsonl"]),
                 ("features_path", ["--features", "f.nggm"]), ("folds", ["--folds", "2"]),
                 ("lam", ["--lam", "1e-3"])],
        "sweep": [("graphs_path", ["--graphs", "g.jsonl"]), ("r_grid", ["--r-grid", "4"]),
                  ("t_grid", ["--t-grid", "1"]), ("folds", ["--folds", "2"]),
                  ("lam", ["--lam", "1e-3"])],
        "recover": [("grid_path", ["--grid", "grid.json"])],
    }


def _argv(workspace, command, without=None, extra=()):
    return [command] + [tok for name, toks in workspace[command] if name != without
                        for tok in toks] + list(extra)


_SEEDED = ("train-vertex", "sweep", "eval", "recover")


@pytest.mark.parametrize("command", _SEEDED)
def test_negative_seed_flag_exits_two(config_workspace, capsys, command):
    assert main(_argv(config_workspace, command, extra=["--seed", "-1"])) == 2
    assert "Invalid value for '--seed'" in capsys.readouterr().err


@pytest.mark.parametrize("command", _SEEDED)
def test_seed_ignores_environment(config_workspace, monkeypatch, capsys, command):
    """No command reads $NGG_SEED: set to anything or unset, a run without
    --seed prints and writes what one with --seed 0 does, sidecars included."""
    argvs = [_argv(config_workspace, command)]
    if command == "recover":  # the workspace's grid names no seed; the bundled one does
        argvs.append(_argv(config_workspace, command, without="grid_path"))
    out = {"eval": [], "train-vertex": ["-o", "{}.nggm"]}.get(command, ["-o", "{}.csv"])
    for argv in argvs:
        seen = []
        for name, env, extra in [("flag", None, ["--seed", "0"]), ("unset", None, []),
                                 ("abc", "abc", []), ("five", "5", [])]:
            if env is None:
                monkeypatch.delenv("NGG_SEED", raising=False)
            else:
                monkeypatch.setenv("NGG_SEED", env)
            assert main(argv + [a.format(name) for a in out] + extra) == 0
            files = sorted(Path().glob(f"{name}.*"))
            assert len(files) == (2 if out else 0)  # an artifact and its sidecar
            seen.append((capsys.readouterr(),
                         [(p.name[len(name):], p.read_bytes()) for p in files]))
        assert all(run == seen[0] for run in seen[1:])


def _run_with_config(command_argv, doc):
    Path("cfg.json").write_text(json.dumps(doc))
    return main(command_argv + ["--config", "cfg.json"])


def _config_keys():
    """(command, key, parameter name) for every key a config file may use."""
    out = []
    for command in ("featurize", "train-vertex", "embed", "fit", "eval", "sweep", "recover"):
        for param in cli.cli.commands[command].params:
            if param.expose_value:
                for key in {param.name, *(o.lstrip("-") for o in param.opts)}:
                    out.append((command, key, param.name))
    return sorted(out)


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
            | st.sampled_from(["", "0", "1", "3", "-1", "0.5", "1e-3", "nan", "inf", "true",
                               "no", "walk", "path", "vertex_path", "full", "reduced",
                               "sum", "mean", "count", "factorial", "least-squares",
                               "rmse", "random-rademacher", "2,3", "3,,1", "x", "."])
            # no digits: a numeric string could ask for a huge r or T
            | st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4))


class TestConfig:
    def test_string_lambda_is_converted(self, config_workspace):
        code = _run_with_config(_argv(config_workspace, "fit"), {"lam": "0.1"})
        assert code == 0
        assert json.loads(Path("model.json").read_text())["lambda"] == 0.1

    def test_normalize_no_is_false(self, config_workspace):
        assert _run_with_config(_argv(config_workspace, "embed"), {"normalize": "no"}) == 0
        run = json.loads(Path("e.manifest.json").read_text())["run"]
        assert run["params"]["normalize"] is False

    def test_key_forms_and_defaults(self, config_workspace):
        doc = {"level-scale": "count", "t_steps": 3, "csv": False, "normalize": True}
        assert _run_with_config(_argv(config_workspace, "embed", without="t_steps"), doc) == 0
        params = json.loads(Path("e.manifest.json").read_text())["run"]["params"]
        assert (params["level_scale"], params["t_steps"]) == ("count", 3)
        assert params["normalize"] is True
        assert not Path("e.csv").exists()

    def test_flag_beats_config(self, config_workspace):
        argv = _argv(config_workspace, "embed", without="t_steps", extra=["--T", "3"])
        assert _run_with_config(argv, {"T": 5}) == 0
        assert json.loads(Path("e.manifest.json").read_text())["T"] == 3

    def test_config_supplies_required_option(self, config_workspace):
        argv = _argv(config_workspace, "embed", without="out")
        assert _run_with_config(argv, {"out": "from_cfg"}) == 0
        assert Path("from_cfg.nggm").exists()

    def test_null_keeps_default(self, config_workspace):
        argv = _argv(config_workspace, "embed", without="t_steps")
        assert _run_with_config(argv, {"T": None, "variant": None}) == 0
        assert json.loads(Path("e.manifest.json").read_text())["T"] == 6

    @pytest.mark.parametrize("command,without,doc,message", [
        ("embed", None, {"no-normalize": True}, "unknown config key 'no-normalize'"),
        ("embed", None, {"config": "x.json"}, "unknown config key 'config'"),
        ("embed", None, [1, 2], "must hold a JSON object"),
        ("embed", None, {"variant": "bogus"}, "'bogus' is not one of"),
        ("embed", "t_steps", {"T": 2.5}, "'2.5' is not a valid integer"),
        ("embed", "embedding_path", {"embedding": "missing.nggm"}, "does not exist"),
        ("eval", "folds", {"folds": "two"}, "'two' is not a valid integer"),
        ("train-vertex", "epochs", {"epochs": [1, 1]},
         "must be a string, number, boolean or null"),
        ("train-vertex", "hidden", {"hidden": [8, "8"]}, "must be a list of integers"),
    ])
    def test_malformed_config_exits_two(self, config_workspace, capsys, command, without,
                                        doc, message):
        argv = _argv(config_workspace, command, without=without)
        assert _run_with_config(argv, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, name, option, value", [
        ("sweep", "r_grid", "--r-grid", "abc"),
        ("sweep", "t_grid", "--t-grid", "2,x"),
        ("sweep", "r_grid", "--r-grid", "8,x"),
        ("train-vertex", "hidden", "--hidden", "a,b"),
        ("sweep", "r_grid", "--r-grid", ""),
        ("sweep", "t_grid", "--t-grid", ","),
    ])
    def test_malformed_integer_list_exits_two(self, config_workspace, capsys, command,
                                              name, option, value):
        argv = _argv(config_workspace, command, without=name)
        reason = (f"'{value}' is not a comma-separated" if value.strip(",")
                  else "needs at least one value")  # an empty grid
        expected = f"error: Invalid value for '{option}': {reason}"
        assert main(argv + [option, value]) == 2
        assert capsys.readouterr().err.startswith(expected)
        assert _run_with_config(argv, {name: value}) == 2
        assert capsys.readouterr().err.startswith(expected)

    @pytest.mark.parametrize("name, option, value, repeated", [
        ("r_grid", "--r-grid", "4,4", "4"),
        ("t_grid", "--t-grid", "2,1,2", "2"),
    ])
    def test_sweep_repeated_grid_value_exits_two(self, config_workspace, capsys, name,
                                                 option, value, repeated):
        argv = _argv(config_workspace, "sweep", without=name, extra=["-o", "s.csv"])
        expected = f"error: Invalid value for '{option}': repeats {repeated}"
        assert main(argv + [option, value]) == 2
        assert capsys.readouterr().err.startswith(expected)
        assert _run_with_config(argv, {name: value}) == 2
        assert capsys.readouterr().err.startswith(expected)
        assert not Path("s.csv").exists()

    def test_integer_list_skips_empty_items(self, config_workspace):
        argv = _argv(config_workspace, "sweep", without="r_grid", extra=["-o", "s.csv"])
        assert _run_with_config(argv, {"r_grid": ",4,,"}) == 0
        params = json.loads(Path("s.csv.manifest.json").read_text())["params"]
        assert (params["r_grid"], params["t_grid"]) == ([4], [1])

    def test_unreadable_config_exits_two(self, config_workspace, capsys):
        Path("cfg.json").write_text("{not json")
        assert main(_argv(config_workspace, "fit") + ["--config", "cfg.json"]) == 2
        assert main(_argv(config_workspace, "fit") + ["--config", "."]) == 2

    @pytest.mark.parametrize("content, message", [
        (b'{"r": ', "Expecting value: line 1 column 7 (char 6)"),
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_undecodable_config_is_named(self, config_workspace, capsys, content, message):
        Path("cfg.json").write_bytes(content)
        assert main(_argv(config_workspace, "fit") + ["--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config cfg.json: {message}")

    def test_every_subcommand_help(self, capsys):
        for command in cli.cli.commands:
            assert main([command, "--help"]) == 0
            assert "Usage:" in capsys.readouterr().out

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(_config_keys()),
           value=_SCALARS | st.lists(_SCALARS, max_size=3))
    def test_any_config_value_maps_to_an_exit_code(self, config_workspace, capsys,
                                                   target, value):
        command, key, name = target
        argv = _argv(config_workspace, command, without=name)
        assert _run_with_config(argv, {key: value}) in (0, 1, 2)


class TestSchemaFromCorpus:
    """Every command that reads a graph corpus reads it under the bundled
    schema its first document names; only ``featurize`` takes ``--schema``,
    which JSON input must then name."""

    @staticmethod
    def _corpus(tmp_path, rng, key, n_graphs):
        schema = BUNDLED_SCHEMAS[key]
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            write_jsonl(_labeled_corpus(rng, n_graphs, schema), schema, fh)
        return schema, gp, ng.read_json_graphs(gp.read_bytes(), schema)

    @pytest.mark.parametrize("key", ["full", "reduced"])
    def test_train_vertex_equals_the_library_call(self, tmp_path, rng, capsys, key):
        schema, gp, graphs = self._corpus(tmp_path, rng, key, 12)
        assert main(["train-vertex", str(gp), "-o", str(tmp_path / "w.nggm"), "--r", "4",
                     "--hidden", "4", "--epochs", "2", "--seed", "3"]) == 0
        out, err = capsys.readouterr()
        cfg = ng.CbowConfig(r=4, aggregator="sum", hidden=(4,), epochs=2, batch_size=256,
                            learning_rate=1e-3, seed=3)
        emb, report = ng.train_cbow(ng.extract_contexts(graphs, schema), schema, cfg,
                                    dataset_id="g.jsonl")
        save_embedding(tmp_path / "ref.nggm", emb)
        assert (tmp_path / "w.nggm").read_bytes() == (tmp_path / "ref.nggm").read_bytes()
        lines = [f"held-out mean attribute accuracy: {report.mean_accuracy:.4f}"]
        lines += [f"  {name}: {acc:.4f}" for name, acc in report.holdout_accuracy.items()]
        lines += [f"final epoch loss: {report.epoch_losses[-1]:.6f}"]
        assert (out, err) == ("", "".join(line + "\n" for line in lines))
        # embed reads the corpus under the trained embedding's schema
        assert main(["embed", str(gp), "--embedding", str(tmp_path / "w.nggm"),
                     "-o", str(tmp_path / "f"), "--no-csv"]) == 0
        assert np.array_equal(read_matrix(tmp_path / "f.nggm")[0],
                              ng.embed_corpus(graphs, emb, 6)[0])

    @pytest.mark.parametrize("key", ["full", "reduced"])
    def test_sweep_equals_the_library_call(self, tmp_path, rng, capsys, key):
        schema, gp, graphs = self._corpus(tmp_path, rng, key, 24)
        out_path = tmp_path / "s.csv"
        assert main(["sweep", "--graphs", str(gp), "--r-grid", "4", "--t-grid", "1,2",
                     "--folds", "3", "--lam", "1e-3", "--seed", "5", "-o", str(out_path)]) == 0
        out, err = capsys.readouterr()
        y = np.array([g.label for g in graphs])
        cfg = crossval.PipelineConfig(r=4, lam=1e-3, seed=5)
        reports = crossval.kfold_sweep(graphs, y, schema, cfg, (1, 2), folds=3, seed=5)
        rows, log = ["r,T,fold_0,fold_1,fold_2,mean,std"], ""
        for T, report in zip((1, 2), reports):
            rows.append(",".join(["4", str(T)] + [repr(float(v)) for v in report.fold_values]
                                 + [repr(report.mean), repr(report.std)]))
            log += f"r=4 T={T} {report}\n"
            if report.unconverged:
                log += f"warning: {report.unconverged} fits did not converge (r=4 T={T})\n"
        table = "\n".join(rows) + "\n"
        assert (out, err, out_path.read_text()) == (table, log, table)

    @pytest.mark.parametrize("key", ["full", "reduced"])
    def test_featurize_keeps_the_corpus_schema(self, tmp_path, rng, capsys, key):
        _, gp, _ = self._corpus(tmp_path, rng, key, 5)
        out = tmp_path / "out.jsonl"
        assert main(["featurize", str(gp), "-o", str(out)]) == 0
        assert out.read_bytes() == gp.read_bytes()
        sidecar = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert sidecar["params"]["schema_key"] == key
        other = "full" if key == "reduced" else "reduced"
        assert main(["featurize", str(gp), "-o", str(out), "--schema", other]) == 2
        err = capsys.readouterr().err
        assert err.count("schema_id mismatch") == 5 and "no graphs parsed" in err

    # explicit hydrogens, an M  CHG line, the radical charge code 4, an element
    # without a valence entry (Si) and a non-ASCII title, which the writer
    # escapes and the reader decodes
    SDF = sdf_stream(
        WATER,
        molblock("acetate", ["C", "C", "O", "O"], [(1, 2, 1), (2, 3, 2), (2, 4, 1)],
                 props=[charge_line((4, -1))]),
        molblock("cyclopropyl", ["C", "C", "C", "Si"],
                 [(1, 2, 1), (2, 3, 1), (1, 3, 1), (1, 4, 1)], [0, 4, 0, 0]),
        molblock("café", ["C", "O"], [(1, 2, 2)]),
    )

    @pytest.mark.parametrize("key", ["full", "reduced"])
    def test_featurized_sdf_is_a_fixed_point(self, tmp_path, capsys, key):
        src, a, b = tmp_path / "mols.sdf", tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        src.write_text(self.SDF, encoding="utf-8")
        assert main(["featurize", str(src), "-o", str(a), "--schema", key]) == 0
        assert "parsed=4 failed=0" in capsys.readouterr().err
        assert b'"caf\\u00e9"' in a.read_bytes()
        assert main(["featurize", str(a), "-o", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()

    @pytest.mark.parametrize("key", ["full", "reduced"])
    @pytest.mark.parametrize("bad, message", [
        ('{"schema_id": "mol\n', "document 0: Unterminated string"),
        ('{"schema_id": "custom:0"}\n', "document 0: schema_id 'custom:0' is not a bundled"),
    ])
    def test_featurize_salvages_a_bad_first_line(self, tmp_path, rng, capsys, key, bad,
                                                 message):
        _, gp, _ = self._corpus(tmp_path, rng, key, 4)
        src = tmp_path / "in.jsonl"
        src.write_bytes(bad.encode() + gp.read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["featurize", str(src), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert message in err and "parsed=4 failed=1" in err
        assert out.read_bytes() == gp.read_bytes()

    @pytest.mark.parametrize("array", [False, True])
    def test_corpus_is_parsed_once(self, tmp_path, rng, monkeypatch, array):
        schema, gp, _ = self._corpus(tmp_path, rng, "reduced", 6)
        if array:
            gp.write_bytes(b"[" + b",".join(gp.read_bytes().splitlines()) + b"]")
        calls = []
        loads = graph_module._loads
        monkeypatch.setattr(graph_module, "_loads",
                            lambda chunk: calls.append(chunk) or loads(chunk))
        graphs, read_schema = cli._load_graphs(gp)
        assert read_schema is schema and len(graphs) == 6
        assert len(calls) == (1 if array else 6)

    @pytest.mark.parametrize("command", ["train-vertex", "fit", "eval", "sweep"])
    def test_schema_option_exits_two(self, config_workspace, capsys, command):
        argv = _argv(config_workspace, command)
        assert main(argv + ["--schema", "full"]) == 2
        err = capsys.readouterr().err
        assert "No such option" in err and "--schema" in err
        assert _run_with_config(argv, {"schema": "full"}) == 2
        assert "unknown config key 'schema'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train-vertex", "c.jsonl", "-o", "w.nggm"],
                                      ["sweep", "--graphs", "c.jsonl"]])
    @pytest.mark.parametrize("text, code, message", [
        ("", 1, "c.jsonl: no graph documents"),
        ("\n \n", 1, "c.jsonl: no graph documents"),
        ("[]", 1, "c.jsonl: no graph documents"),
        ('{"schema_id": "mol\n', 2, "c.jsonl: document 0: Unterminated string"),
        ('{"schema_id": "custom:0"}\n', 1, "document 0: schema_id 'custom:0' is not a bundled"),
        ('{"id": "g0"}\n', 1, "document 0: schema_id None is not a bundled"),
        ('[5]', 1, "document 0: schema_id None is not a bundled"),
    ])
    def test_corpus_without_a_bundled_schema(self, tmp_path, monkeypatch, capsys, argv,
                                             text, code, message):
        monkeypatch.chdir(tmp_path)
        Path("c.jsonl").write_text(text)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if "bundled" in message:
            assert ng.FULL_SCHEMA.schema_id in err and ng.REDUCED_SCHEMA.schema_id in err

    @pytest.mark.parametrize("command", ["embed", "oracle-check", "fit", "eval"])
    @pytest.mark.parametrize("text", ["", "\n \n", "[]"])
    def test_empty_corpus_under_a_given_schema_exits_one(self, config_workspace, capsys,
                                                         command, text):
        # these read the corpus under their embedding's or feature file's schema
        Path("c.jsonl").write_text(text)
        argv = {
            "embed": ["embed", "c.jsonl", "--embedding", "w.nggm", "-o", "out"],
            "oracle-check": ["oracle-check", "c.jsonl", "--embedding", "w.nggm"],
            "fit": ["fit", "--features", "f.nggm", "--graphs", "c.jsonl", "-o", "out"],
            "eval": ["eval", "--graphs", "c.jsonl", "--features", "f.nggm", "--folds", "2"],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: c.jsonl: no graph documents\n")
        assert not list(Path().glob("out*"))

    @pytest.mark.parametrize("command", ["train-vertex", "embed", "oracle-check", "fit",
                                         "eval", "sweep"])
    @pytest.mark.parametrize("graph_id", [[0], 1, True, {"a": None}],
                             ids=["list", "int", "bool", "dict"])
    def test_non_string_id_exits_one(self, config_workspace, capsys, command, graph_id):
        # a graph id is a CSV row id and a manifest id: a string, or null
        # for the graph's position
        lines = Path("g.jsonl").read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "id": graph_id})
        Path("c.jsonl").write_text("\n".join(lines) + "\n")
        argv = {
            "train-vertex": ["train-vertex", "c.jsonl", "-o", "out.nggm"],
            "embed": ["embed", "c.jsonl", "--embedding", "w.nggm", "-o", "out"],
            "oracle-check": ["oracle-check", "c.jsonl", "--embedding", "w.nggm"],
            "fit": ["fit", "--features", "f.nggm", "--graphs", "c.jsonl", "-o", "out"],
            "eval": ["eval", "--graphs", "c.jsonl", "--features", "f.nggm", "--folds", "2"],
            "sweep": ["sweep", "--graphs", "c.jsonl"],
        }[command]
        assert main(argv) == 1
        kind = type(graph_id).__name__
        assert capsys.readouterr() == (
            "", f"error: c.jsonl: document 3: id must be a JSON string or null, got {kind}\n")
        assert not list(Path().glob("out*"))

    def test_later_document_of_another_schema_exits_one(self, tmp_path, rng, capsys):
        gp = tmp_path / "g.jsonl"
        with open(gp, "w") as fh:
            for schema in (ng.FULL_SCHEMA, ng.REDUCED_SCHEMA):
                write_jsonl(_labeled_corpus(rng, 2, schema), schema, fh)
        assert main(["train-vertex", str(gp), "-o", str(tmp_path / "w.nggm")]) == 1
        assert "document 2: schema_id mismatch" in capsys.readouterr().err


def _matrix_file(path, header, payload=b""):
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(4, "little") + blob + payload)


class TestMalformedFiles:
    """A malformed matrix header, embedding schema, feature manifest or
    model file maps to its exit code and names the file, never a traceback."""

    EMBED = ["embed", "one.jsonl", "--embedding", "bad.nggm", "-o", "e"]
    EVAL = ["eval", "--graphs", "g.jsonl", "--features", "bad.nggm", "--folds", "2"]

    @pytest.mark.parametrize("reader, edit, extra, code, message", [
        ("w", lambda h: [h], b"", 2, "header is not a JSON object"),
        ("w", lambda h: {**h, "shape": "ab"}, b"", 2, "shape 'ab' is not a list"),
        ("w", lambda h: {**h, "shape": None}, b"", 2, "shape None is not a list"),
        ("w", lambda h: {**h, "shape": [1.5]}, b"", 2, "shape [1.5] is not a list"),
        ("w", lambda h: {**h, "shape": [-1, 2]}, b"", 2, "shape [-1, 2] is not a list"),
        ("w", lambda h: {**h, "shape": [True, 42]}, b"", 2, "is not a list"),
        ("w", lambda h: {**h, "dtype": ["float64"]}, b"", 2, "unsupported dtype"),
        ("w", lambda h: h, b"\0" * 8, 2, "payload has 1352 bytes where shape [4, 42]"),
        ("w", lambda h: {**h, "shape": [4, 43]}, b"", 2, "needs 1376"),
        ("w", lambda h: {**h, "schema": 5}, b"", 1, "bad.nggm: a schema must be an object"),
        ("w", lambda h: {**h, "schema": {"name": "x"}}, b"", 1, "a schema must be"),
        ("w", lambda h: {**h, "schema": {**h["schema"], "attributes": [
            {**a, "values": "abc"} for a in h["schema"]["attributes"]]}}, b"", 1,
         "a schema must be"),
        ("f", lambda h: {**h, "manifest": [h["manifest"]]}, b"", 2, "not a feature file"),
        ("f", lambda h: {**h, "manifest": {**h["manifest"], "errors": ["x"]}}, b"", 2,
         "not a feature file"),
        ("f", lambda h: {**h, "manifest": {**h["manifest"], "errors": {"12": "x"}}}, b"", 2,
         "not a feature file"),
        ("f", lambda h: {**h, "manifest": {k: v for k, v in h["manifest"].items()
                                           if k != "schema"}}, b"", 2, "not a feature file"),
        ("f", lambda h: {k: v for k, v in h.items() if k != "manifest"}, b"", 2,
         "not a feature file"),
    ])
    def test_matrix_files(self, config_workspace, capsys, reader, edit, extra, code, message):
        matrix, header = read_matrix(f"{reader}.nggm")
        _matrix_file(Path("bad.nggm"), edit(header), matrix.tobytes() + extra)
        assert main(self.EMBED if reader == "w" else self.EVAL) == code
        err = capsys.readouterr().err
        assert err.startswith("error: bad.nggm: ") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: {}, "'weights' must be a list of numbers"),
        (lambda m: [], "a model must be a JSON object"),
        (lambda m: {**m, "weights": [m["weights"]]}, "'weights' must be a list of numbers"),
        (lambda m: {**m, "weights": [True] * len(m["weights"])}, "'weights' must be"),
        (lambda m: {**m, "intercept": None}, "'intercept' must be a number"),
        (lambda m: {**m, "lambda": "0.1"}, "'lambda' must be a number"),
        (lambda m: {**m, "weights": [float("nan")] + m["weights"][1:]},
         "'weights' must be finite"),
        (lambda m: {**m, "intercept": float("inf")}, "'intercept' must be finite"),
        (lambda m: {**m, "lambda": -5}, "'lambda' must be finite and >= 0"),
        (lambda m: {**m, "task": "x"}, "'task' must be one of"),
        (lambda m: {**m, "penalty": ["squared-l2"]}, "'penalty' must be one of"),
        # the plain l2 norm is no longer a penalty a model can name
        (lambda m: {**m, "penalty": "unsquared-l2"}, "'penalty' must be one of ('squared-l2',)"),
        (lambda m: {**m, "fit_report": 3}, "'fit_report' must be a JSON object"),
        (lambda m: "{", "Expecting property name"),
        (lambda m: {**m, "fit_report": {"iterations": "many", "converged": "yes",
                                        "bogus": 1}},
         "'fit_report' field 'iterations' must be an integer >= 0"),
        (lambda m: {**m, "fit_report": {**m["fit_report"], "converged": "yes"}},
         "'fit_report' field 'converged' must be true or false"),
        (lambda m: {**m, "fit_report": {**m["fit_report"], "bogus": 1}},
         "'fit_report' has an unknown field 'bogus'"),
    ])
    def test_model_files(self, config_workspace, capsys, edit, message):
        assert main(_argv(config_workspace, "fit")) == 0
        doc = edit(json.loads(Path("model.json").read_text()))
        Path("bad.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        capsys.readouterr()
        argv = ["eval", "--graphs", "g.jsonl", "--features", "f.nggm", "--model", "bad.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad.json: ") and message in err
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_model_of_another_width_exits_one(self, config_workspace, capsys):
        assert main(_argv(config_workspace, "fit")) == 0
        doc = json.loads(Path("model.json").read_text())
        doc["weights"] = doc["weights"][:-1]
        Path("bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--graphs", "g.jsonl", "--features", "f.nggm",
                     "--model", "bad.json"]) == 1
        assert capsys.readouterr().err == ("error: bad.json has 7 weights for 8 feature "
                                           "columns in f.nggm\n")


# (command, input arguments, recorded flags, output arguments, sidecars); "{}"
# stands for the output name, and the first sidecar holds the params to replay
_REPLAYS = [
    ("featurize", ["water.sdf"], ["--schema", "reduced"], ["-o", "{}.jsonl"],
     ["{}.jsonl.manifest.json"]),
    ("train-vertex", ["g.jsonl"], ["--r", "4", "--epochs", "1", "--hidden", "4,3",
                                   "--aggregator", "mean", "--lr", "0.01", "--seed", "2"],
     ["-o", "{}.nggm"], ["{}.nggm.manifest.json"]),
    ("embed", ["g.jsonl", "--embedding", "w.nggm"],
     ["--T", "3", "--normalize", "--level-scale", "count", "--variant", "path"],
     ["-o", "{}"], ["{}.manifest.json"]),
    ("fit", ["--features", "f.nggm", "--graphs", "g.jsonl"],
     ["--task", "least-squares", "--lam", "0.01"],
     ["-o", "{}.json"], ["{}.json.manifest.json"]),
    ("eval", ["--graphs", "g.jsonl", "--features", "f.nggm", "--model", "model.json"],
     ["--metric", "pr-auc"], ["--predictions", "{}.csv"], ["{}.csv.manifest.json"]),
    ("sweep", ["--graphs", "g.jsonl"], ["--r-grid", "4,3", "--t-grid", "1,2", "--folds", "2",
                                        "--lam", "1e-3", "--seed", "5"],
     ["-o", "{}.csv"], ["{}.csv.manifest.json"]),
    ("recover", ["--grid", "grid.json"], ["--seed", "2"], ["-o", "{}.csv"],
     ["{}.csv.manifest.json"]),
    ("recover", [], [], ["-o", "{}.csv"], ["{}.csv.manifest.json"]),  # bundled grid
]


@pytest.mark.parametrize("command,inputs,flags,outputs,sidecars", _REPLAYS,
                         ids=[c[0] for c in _REPLAYS[:-2]] + ["recover-grid", "recover-bundled"])
def test_manifest_replays_byte_identically(config_workspace, command, inputs, flags,
                                          outputs, sidecars):
    """The params of an artifact's manifest, given back as --config with the
    same inputs, regenerate every output file byte for byte, sidecars too."""
    assert main(_argv(config_workspace, "fit")) == 0  # the model eval reads

    def run(name, extra):
        return main([command] + inputs + [a.replace("{}", name) for a in outputs] + extra)

    assert run("first", flags) == 0
    assert all(Path(s.replace("{}", "first")).exists() for s in sidecars)
    doc = json.loads(Path(sidecars[0].replace("{}", "first")).read_text())
    assert "seed" not in doc.get("run", doc)  # a seed is recorded once, in params
    Path("params.json").write_text(json.dumps(doc.get("run", doc)["params"]))
    assert run("replay", ["--config", "params.json"]) == 0
    first = sorted(p.name for p in Path().glob("first*"))
    replay = [name.replace("first", "replay", 1) for name in first]
    assert sorted(p.name for p in Path().glob("replay*")) == replay
    for a, b in zip(first, replay):
        assert Path(a).read_bytes() == Path(b).read_bytes(), a


_STARTUP_PROBE = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def lazy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "orjson"))

import ngram_graph.cli
from ngram_graph import recovery
doc = {"import": lazy_modules(), "codes": []}
runs = json.loads(sys.argv[1])
for argv in runs["commands"]:
    doc["codes"].append(ngram_graph.cli.main(argv))
doc["commands"] = scipy_modules()
for argv in runs["eval"]:
    doc["codes"].append(ngram_graph.cli.main(argv))
doc["eval"] = scipy_modules()
op = recovery.build_sensing(recovery._single_attribute_schema(3), 8, seed=1,
                            scale=8 ** -0.5).operator(2)
f = op.matvec(np.array([0.0, 2.0, 3.0]))
doc["c_hat"] = [recovery.omp_recover(f, op, sparsity=2).c_hat.tolist(),
                recovery.ista_recover(f, op).c_hat.tolist()]
doc["recovery"] = scipy_modules()
doc["codes"].append(ngram_graph.cli.main(runs["embed"]))
doc["embed"] = scipy_modules()
print(json.dumps(doc))
"""


def test_cli_import_skips_scipy_stats_and_optimize(config_workspace, water_sdf):
    """Start-up loads no scipy module, and no orjson before a graph document
    is first read or written or a CSV first written; featurize, train-vertex,
    fit, every eval run and every --help stay scipy-free, and recovery never
    loads scipy.optimize. embed, whose walk products are sparse, loads
    scipy.sparse at its first product."""
    eval_features = ["eval", "--graphs", "g.jsonl", "--features", "f.nggm"]
    runs = {
        "commands": [["--help"], ["featurize", "--help"], ["embed", "--help"],
                     ["featurize", str(water_sdf), "-o", "w.jsonl"],
                     _argv(config_workspace, "train-vertex"), _argv(config_workspace, "fit")],
        "eval": [["eval", "--help"], _argv(config_workspace, "eval"),
                 eval_features + ["--folds", "3", "--stratified", "--task", "least-squares",
                                  "--metric", "rmse"],
                 eval_features + ["--model", "model.json", "--predictions", "p.csv"]],
        "embed": _argv(config_workspace, "embed"),
    }
    out = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(runs)],
                         env=_PACKAGE_ENV, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out.splitlines()[-1])
    assert doc["codes"] == [0] * 11
    assert doc["import"] == []
    # a linear fit is numpy-only: scipy.linalg would add ~8 MiB of resident memory
    assert doc["commands"] == []
    assert doc["eval"] == []
    assert doc["recovery"] == []
    assert np.allclose(doc["c_hat"], [[0.0, 2.0, 3.0]] * 2)
    assert "scipy.sparse" in doc["embed"]
    assert "scipy.optimize" not in doc["embed"]


# the exit code of every exception class the package defines, by module.class
EXIT_CODES = {
    "graph.GraphError": 2,
    "matrixio.MatrixFormatError": 2,
    "linear.ModelFormatError": 2,
    "linear.DegenerateLabels": 1,
    "schema.SchemaError": 1,
    "vertex.EmbeddingError": 1,
    "ngram.GraphTooLarge": 1,
    "ngram.WalkOverflow": 1,
    "sensing.SensingError": 1,
    "cbow.TrainingDiverged": 1,
    "crossval.LeakageError": 1,
}


def _package_exceptions() -> dict:
    import importlib
    import pkgutil

    found = {}
    for info in pkgutil.iter_modules(ng.__path__):
        module = importlib.import_module(f"ngram_graph.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = obj
    return found


def test_every_package_exception_exits_with_its_code(xyz_setup, tmp_path, monkeypatch,
                                                     capsys):
    """Each exception class picks its exit code through its bases; a class
    that is not in the table fails here until its code is written down."""
    _, graphs_path, emb_path = xyz_setup
    classes = _package_exceptions()
    assert sorted(classes) == sorted(EXIT_CODES)
    for name, cls in sorted(classes.items()):
        exc = cls("raised through main")

        def raise_it(path, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "load_embedding", raise_it)
        code = main(["embed", str(graphs_path), "--embedding", str(emb_path),
                     "-o", str(tmp_path / "f")])
        assert (name, code) == (name, EXIT_CODES[name])
        assert capsys.readouterr() == ("", f"error: {exc}\n")


ENGINE_MODULES = ("cbow", "crossval", "featurize", "sdf", "counts", "sensing", "recovery")

_ENGINE_PROBE = """
import json, sys
import numpy as np
import ngram_graph.cli

def engine_modules():
    return sorted(m for m in sys.modules if m.startswith("ngram_graph.")
                  and m.split(".")[1] in %r)

doc = {"import": engine_modules()}
# TrainingDiverged exits 1 though cbow was first loaded by the command
with np.errstate(all="ignore"):
    doc["code"] = ngram_graph.cli.main(sys.argv[1:])
doc["train-vertex"] = engine_modules()
print(json.dumps(doc))
""" % (ENGINE_MODULES,)


def test_cli_import_loads_no_engine_module(config_workspace):
    """Start-up loads the modules the option declarations and the exit codes
    need; a command loads its engine where it runs."""
    argv = _argv(config_workspace, "train-vertex", extra=["--epochs", "3", "--lr", "1e200"])
    proc = subprocess.run([sys.executable, "-c", _ENGINE_PROBE, *argv], env=_PACKAGE_ENV,
                          capture_output=True, text=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["import"] == []
    assert doc["code"] == 1
    assert re.search(r"^error: non-finite loss at epoch \d+$", proc.stderr, re.M)
    assert doc["train-vertex"] == ["ngram_graph.cbow"]


_PACKAGE_PROBE = """
import json, sys
import ngram_graph as ng

doc = {"import": sorted(m for m in sys.modules if m.startswith("ngram_graph."))}
doc["submodule"] = ng.crossval.__name__
namespace = {}
exec("from ngram_graph import *", namespace)
doc["star"] = sorted(k for k in namespace if not k.startswith("__"))
print(json.dumps(doc))
"""


def test_package_names_resolve_on_first_access():
    out = subprocess.run([sys.executable, "-c", _PACKAGE_PROBE], env=_PACKAGE_ENV,
                         capture_output=True, text=True, check=True).stdout
    doc = json.loads(out.splitlines()[-1])
    assert doc["import"] == []
    assert doc["submodule"] == "ngram_graph.crossval"
    assert doc["star"] == sorted(ng.__all__)
    assert set(ng.__all__) <= set(dir(ng))
    assert all(getattr(ng, name) is not None for name in ng.__all__)
    assert ng.parse_sdf is sys.modules["ngram_graph.sdf"].parse_sdf
    assert ng.FULL_SCHEMA is BUNDLED_SCHEMAS["full"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ng.no_such_name
