import json

import numpy as np
import pytest

from ngram_graph.graph import read_json_graphs
from ngram_graph.matrixio import MatrixFormatError, read_matrix, write_csv, write_matrix

from . import synth


class TestContainer:
    def test_float_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        p = tmp_path / "m.nggm"
        write_matrix(p, m, meta={"kind": "test"})
        back, meta = read_matrix(p)
        assert np.array_equal(back, m)
        assert meta["kind"] == "test"
        assert meta["shape"] == [7, 5]

    def test_int_round_trip(self, tmp_path):
        m = np.arange(12, dtype=np.int64).reshape(3, 4)
        p = tmp_path / "m.nggm"
        write_matrix(p, m)
        back, meta = read_matrix(p)
        assert back.dtype == np.int64
        assert np.array_equal(back, m)

    def test_other_dtypes_upcast_to_float(self, tmp_path):
        m = np.ones((2, 2), dtype=np.float32)
        p = tmp_path / "m.nggm"
        write_matrix(p, m)
        back, meta = read_matrix(p)
        assert meta["dtype"] == "float64"
        assert back.dtype == np.float64

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nggm"
        p.write_bytes(b"NOTRIGHT" + b"\x00" * 16)
        with pytest.raises(MatrixFormatError):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.nggm"
        write_matrix(p, np.ones((4, 4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(MatrixFormatError):
            read_matrix(p)

    def test_deterministic_bytes(self, tmp_path):
        m = np.linspace(0, 1, 10).reshape(2, 5)
        a, b = tmp_path / "a.nggm", tmp_path / "b.nggm"
        write_matrix(a, m, meta={"x": 1, "y": [2, 3]})
        write_matrix(b, m, meta={"y": [2, 3], "x": 1})  # key order irrelevant
        assert a.read_bytes() == b.read_bytes()


class TestCsv:
    def test_pinned_bytes(self, tmp_path):
        m = np.array([[np.nan, np.inf, -np.inf, -0.0],
                      [1e-300, 3.0, -2.0, 0.1],
                      [1e16, 2.5e-8, 123456789.0, 1 / 3]])
        p = tmp_path / "m.csv"
        write_csv(p, m, ["a", "b", "c", "d"], row_ids=["x", 7, "g 3"])
        assert p.read_bytes() == (b"a,b,c,d\n"
                                  b"x,nan,inf,-inf,-0.0\n"
                                  b"7,1e-300,3.0,-2.0,0.1\n"
                                  b"g 3,1e+16,2.5e-08,123456789.0,0.3333333333333333\n")
        write_csv(p, np.array([[1, -2], [2**53 + 1, 0]], dtype=np.int64), ["id", "a", "b"],
                  row_ids=["p", "q"])
        assert p.read_bytes() == b"id,a,b\np,1.0,-2.0\nq,9007199254740992.0,0.0\n"

    def test_matches_per_element_repr(self, tmp_path):
        rng = np.random.default_rng(3)
        scaled = rng.standard_normal((6, 9)) * 10.0 ** np.arange(-4, 5)
        # random bit patterns, NaN payloads and infinities included
        bits = rng.integers(0, 2**64, size=(6, 9), dtype=np.uint64).view(np.float64)
        bits[0, :3] = [np.nan, np.inf, -np.inf]
        # where orjson's spelling leaves repr's: below 1e-4 and from 1e16 up
        small = rng.uniform(1e-5, 1e-4, (6, 9)) * rng.choice([-1.0, 1.0], (6, 9))
        large = 10.0 ** rng.uniform(16, 308, (6, 9)) * rng.choice([-1.0, 1.0], (6, 9))
        top = np.finfo(np.float64).max
        small[0, :2], large[0, :4] = [5e-324, -5e-324], [1e16, -1e16, top, -top]
        m = np.hstack([scaled, bits, small, large, np.zeros((6, 1))])
        m[1, -1] = -0.0
        p = tmp_path / "m.csv"
        for matrix in (m, np.asfortranarray(m), m.T):  # strided rows are copied
            write_csv(p, matrix, [f"c{j}" for j in range(matrix.shape[1])],
                      row_ids=range(len(matrix)))
            lines = p.read_text(encoding="utf-8").splitlines()[1:]
            assert lines == [",".join([str(i)] + [repr(float(x)) for x in row])
                             for i, row in enumerate(matrix)]


class TestJsonArrayForm:
    def test_array_document_accepted(self):
        schema = synth.small_schema()

        rng = np.random.default_rng(1)
        graphs = synth.random_corpus(rng, schema, 3)
        payload = json.dumps([synth.graph_to_doc(g, schema) for g in graphs])
        back = read_json_graphs(payload, schema)
        assert len(back) == 3
