import dataclasses

import numpy as np
import pytest

import ngram_graph as ng
from ngram_graph import (
    EmbeddingError,
    MolecularGraph,
    VertexEmbeddingMatrix,
    load_embedding,
    random_embedding,
    save_embedding,
)

from . import synth
from .synth import one_hot


class TestRandomEmbedding:
    def test_seed_determinism(self, schema):
        a = random_embedding(schema, 16, seed=7)
        b = random_embedding(schema, 16, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self, schema):
        a = random_embedding(schema, 16, seed=7)
        b = random_embedding(schema, 16, seed=8)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_rademacher_unit_scale_entries(self, schema):
        # +-c with c = r^-1/2, so every column of W has unit norm
        emb = random_embedding(schema, 8, dist="rademacher", seed=0)
        assert set(np.unique(emb.matrix)) == {-(8 ** -0.5), 8 ** -0.5}
        assert np.allclose(np.linalg.norm(emb.matrix, axis=0), 1.0)

    def test_default_scale_is_inverse_sqrt_r(self, schema):
        emb = random_embedding(schema, 25, dist="rademacher", seed=0)
        assert np.allclose(np.abs(emb.matrix), 0.2)

    def test_entry_mean_within_three_sigma(self):
        # ~1e4 iid entries with variance c^2 = 1/r: the empirical mean should
        # sit inside a 3 c / sqrt(N) band around zero, and the empirical
        # variance within 3 c^2 sqrt(2 / N) of c^2
        schema = synth.single_attribute_schema(100)
        emb = random_embedding(schema, 100, dist="gaussian", seed=5)
        n, var = emb.matrix.size, 1 / 100
        assert n == 10_000
        assert abs(emb.matrix.mean()) <= 3.0 * var ** 0.5 / np.sqrt(n)
        assert abs(emb.matrix.var() - var) <= 3.0 * var * np.sqrt(2 / n)

    def test_bad_dimension_rejected(self, schema):
        with pytest.raises(EmbeddingError):
            random_embedding(schema, 0)

    def test_unknown_distribution_rejected(self, schema):
        with pytest.raises(EmbeddingError):
            random_embedding(schema, 4, dist="cauchy")


class TestMatrixRefusals:
    @pytest.mark.parametrize("matrix, message", [
        (np.zeros(9), "embedding matrix must be 2-d"),
        (np.zeros((2, 8)), "matrix has 8 columns, schema K=9"),
        (np.array([[0.0] * 8 + [np.nan]]), "non-finite entries"),
        (np.array([[np.inf] + [0.0] * 8]), "non-finite entries"),
    ], ids=["1-d", "width", "nan", "inf"])
    def test_matrix_refused(self, schema, matrix, message):
        with pytest.raises(EmbeddingError, match=message):
            VertexEmbeddingMatrix(matrix=matrix, schema=schema, provenance={})

    @pytest.mark.parametrize("fingerprint, message", [
        (None, "schema fingerprint missing from header"),
        ("0" * 16, "schema fingerprint does not match stored schema"),
    ], ids=["missing", "mismatch"])
    def test_load_refuses_fingerprint(self, tmp_path, schema, fingerprint, message):
        from ngram_graph import matrixio

        meta = {"kind": "vertex-embedding", "schema": schema.to_dict()}
        if fingerprint is not None:
            meta["schema_fingerprint"] = fingerprint
        path = tmp_path / "w.nggm"
        matrixio.write_matrix(path, np.zeros((2, schema.total_width)), meta)
        with pytest.raises(EmbeddingError, match=f"{path}: {message}"):
            load_embedding(path)


class TestEmbedVertices:
    def test_single_attribute_selects_column(self):
        sch = synth.single_attribute_schema(4)
        W = np.arange(12, dtype=np.float64).reshape(3, 4)
        emb = VertexEmbeddingMatrix(matrix=W, schema=sch, provenance={})
        g = MolecularGraph(num_vertices=1, attr=[[2]], edges=[],
                           schema_fingerprint=sch.fingerprint)
        assert np.array_equal(synth.checked_rows(g, emb)[0], W[:, 2])

    def test_sum_of_selected_columns(self):
        sch = synth.small_schema(ks=(2, 2))
        emb = VertexEmbeddingMatrix(matrix=np.eye(4), schema=sch, provenance={})
        g = MolecularGraph(num_vertices=1, attr=[[1, 0]], edges=[],
                           schema_fingerprint=sch.fingerprint)
        f = synth.checked_rows(g, emb)[0]
        expected = np.zeros(4)
        expected[1] = expected[2] = 1.0  # e_1 + e_2
        assert np.array_equal(f, expected)

    def test_matches_dense_one_hot_product(self, rng, schema):
        g = synth.random_graph(rng, schema, m=7)
        emb = random_embedding(schema, 9, dist="gaussian", seed=3)
        H = np.stack([one_hot(g, schema, i) for i in range(7)], axis=1)
        assert np.allclose(synth.checked_rows(g, emb), (emb.matrix @ H).T)

    def test_fingerprint_mismatch_faults(self, rng, schema):
        # same widths, different vocabulary: accidental transfer must fault
        g = synth.random_graph(rng, schema, m=3)
        mism = ng.AttributeSchema.from_pairs(
            [("a", ("p", "q", "r", "s", "t")), ("b", ("w", "x", "y", "z"))]
        )
        assert mism.total_width == schema.total_width
        emb = random_embedding(mism, 4, seed=0)
        with pytest.raises(EmbeddingError):
            synth.checked_rows(g, emb)

    def test_permutation_equivariance(self, rng, schema):
        g = synth.random_graph(rng, schema, m=6, density=0.4)
        emb = random_embedding(schema, 5, dist="gaussian", seed=1)
        pi = rng.permutation(6)
        F = synth.checked_rows(g, emb)
        Fp = synth.checked_rows(synth.permute(g, pi), emb)
        assert np.allclose(Fp[pi], F)


class TestRowBlocks:
    """``vertex_rows`` is one sparse product H W^T over a whole table; each
    row is the sum 0 + W^T[a_1] + ... + W^T[a_S] in schema order, in W's
    dtype, whatever the number of rows."""

    @staticmethod
    def _reference(attr, emb):
        F = np.zeros((attr.shape[0], emb.dim), dtype=emb.matrix.dtype)
        for j, offset in enumerate(emb.schema.offsets):
            F = F + emb.matrix.T[offset + attr[:, j]]
        return F

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("m", [0, 1, 5, 23, 700, 3000])
    def test_blocks_equal_reference(self, rng, dtype, m):
        sch = synth.small_schema(ks=(5, 4, 3))
        r = 3
        if dtype is np.float64:
            # magnitudes far apart, so another summation order rounds
            # differently; value 0 of every attribute is a -0.0 column, so
            # a row of zeros sums to 0.0 only from a 0.0 start
            W = rng.standard_normal((r, sch.total_width)) * 10.0 ** rng.integers(
                -8, 9, size=(r, sch.total_width))
            W[:, list(sch.offsets)] = -0.0
        else:
            W = rng.integers(-(1 << 40), 1 << 40, size=(r, sch.total_width))
        emb = VertexEmbeddingMatrix(matrix=W, schema=sch, provenance={})
        attr = np.stack([rng.integers(0, k, size=m) for k in sch.cardinalities], axis=1)
        attr[::4] = 0
        F = ng.vertex.vertex_rows(attr, emb)
        ref = self._reference(attr, emb)
        assert F.dtype == ref.dtype == dtype and F.shape == (m, r)
        assert F.tobytes() == ref.tobytes()


class TestFingerprintedRanges:
    """A graph that carries its schema's fingerprint has its attribute table
    checked all the same: a hand-built graph can hold any index, and one
    outside its attribute's range would read another attribute's column of
    W, or past W. Each entry point refuses it as it refuses an
    unfingerprinted graph; the other graphs of a corpus still embed."""

    SCHEMA = synth.small_schema(ks=(5, 4, 3))  # K = 12

    @pytest.fixture(params=[(j, case) for j in range(3) for case in ("k_j", "-1", "past-K")],
                    ids=lambda p: f"attr{p[0]}-{p[1]}")
    def bad(self, request):
        j, case = request.param
        sch = self.SCHEMA
        value = {"k_j": sch.cardinalities[j], "-1": -1, "past-K": sch.total_width}[case]
        attr = np.zeros((3, 3), dtype=np.int64)
        attr[1, j] = value
        g = MolecularGraph(num_vertices=3, attr=attr, edges=[[0, 1], [1, 2]],
                           schema_fingerprint=sch.fingerprint)
        k = sch.cardinalities[j]
        return g, (f"graph invalid under embedding schema: attr index out of range: "
                   f"attr[1][{j}]={value} with k_{j}={k}")

    def test_embed_corpus_gives_an_error_row(self, rng, bad):
        g, message = bad
        good = synth.random_corpus(rng, self.SCHEMA, 2, density=0.5)
        good = [dataclasses.replace(h, schema_fingerprint=self.SCHEMA.fingerprint)
                for h in good]
        for emb in (random_embedding(self.SCHEMA, 4, dist="gaussian", seed=0),
                    VertexEmbeddingMatrix(matrix=rng.integers(-3, 4, size=(4, 12)),
                                          schema=self.SCHEMA, provenance={})):
            X, manifest = ng.embed_corpus([good[0], g, good[1]], emb, T=3)
            assert manifest["errors"] == {"1": message}
            assert np.isnan(X[1]).all() and np.isfinite(X[[0, 2]]).all()
            alone, _ = ng.embed_corpus(good, emb, T=3)
            assert X[[0, 2]].tobytes() == alone.tobytes()

    def test_one_graph_entry_points_raise(self, bad):
        g, message = bad
        emb = random_embedding(self.SCHEMA, 4, seed=0)
        B = ng.build_sensing(self.SCHEMA, 6, seed=0)
        calls = [lambda: ng.graph_embed(g, emb, 3), lambda: ng.oracle_embed(g, emb, 3),
                 lambda: ng.graph_embed(g, emb, 3, variant="path"),
                 lambda: ng.verify_identity(g, B, 3)]
        for call in calls:
            with pytest.raises(EmbeddingError) as info:
                call()
            assert str(info.value) == message

    def test_width_is_checked_too(self):
        g = MolecularGraph(num_vertices=2, attr=np.zeros((2, 2), dtype=np.int64), edges=[[0, 1]],
                           schema_fingerprint=self.SCHEMA.fingerprint)
        emb = random_embedding(self.SCHEMA, 4, seed=0)
        message = "graph invalid under embedding schema: attribute table width 2 != schema S=3"
        with pytest.raises(EmbeddingError, match=message):
            ng.graph_embed(g, emb, 2)
        good = MolecularGraph(num_vertices=1, attr=[[0, 0, 0]], edges=[],
                              schema_fingerprint=self.SCHEMA.fingerprint)
        for corpus, bad in (([g], "0"), ([g, g], "1"), ([good, g], "1")):
            X, manifest = ng.embed_corpus(corpus, emb, 2)
            assert manifest["errors"][bad] == message and np.isnan(X[int(bad)]).all()


class TestSerialization:
    def test_save_load_bitwise(self, tmp_path, schema):
        emb = random_embedding(schema, 12, dist="gaussian", seed=9)
        path = tmp_path / "w.nggm"
        save_embedding(path, emb)
        back = load_embedding(path)
        assert np.array_equal(back.matrix, emb.matrix)
        assert back.schema.fingerprint == emb.schema.fingerprint
        assert back.provenance == emb.provenance

    def test_load_against_other_schema_faults(self, tmp_path, rng, schema):
        emb = random_embedding(schema, 6, seed=0)
        path = tmp_path / "w.nggm"
        save_embedding(path, emb)
        back = load_embedding(path)
        other = synth.small_schema(ks=(3, 3), name="different")
        g = synth.random_graph(rng, other, m=3)
        with pytest.raises(EmbeddingError):
            synth.checked_rows(g, back)

    def test_corrupt_magic_faults(self, tmp_path, schema):
        from ngram_graph.matrixio import MatrixFormatError

        emb = random_embedding(schema, 4, seed=0)
        path = tmp_path / "w.nggm"
        save_embedding(path, emb)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError):
            load_embedding(path)

    def test_not_an_embedding_file_faults(self, tmp_path):
        from ngram_graph import matrixio

        path = tmp_path / "feat.nggm"
        matrixio.write_matrix(path, np.zeros((2, 2)), meta={"kind": "feature-matrix"})
        with pytest.raises(EmbeddingError):
            load_embedding(path)

    def test_transfer_between_corpora(self, tmp_path, rng, schema):
        # embeddings trained against corpus A apply to corpus B iff the
        # schema matches
        from ngram_graph import CbowConfig, extract_contexts, train_cbow

        corpus_a = synth.random_corpus(rng, schema, 12, density=0.5, connected=True)
        corpus_b = synth.random_corpus(rng, schema, 6, density=0.5, connected=True)
        cfg = CbowConfig(r=6, epochs=2, batch_size=64, hidden=(8,), seed=0)
        emb, _ = train_cbow(extract_contexts(corpus_a, schema), schema, cfg,
                            dataset_id="corpus-a")
        path = tmp_path / "w.nggm"
        save_embedding(path, emb)
        back = load_embedding(path)
        for g in corpus_b:
            F = synth.checked_rows(g, back)
            assert F.shape == (g.num_vertices, 6)
