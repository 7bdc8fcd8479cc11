import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngram_graph as ng
from ngram_graph import (
    GraphTooLarge,
    MolecularGraph,
    VertexEmbeddingMatrix,
    WalkOverflow,
    embed_corpus,
    graph_embed,
    oracle_embed,
    random_embedding,
)

from . import synth


def _int_rademacher(rng, schema, r):
    w = rng.choice((-1, 1), size=(r, schema.total_width)).astype(np.int64)
    return VertexEmbeddingMatrix(matrix=w, schema=schema, provenance={"kind": "int"})


class TestHandDerivedValues:
    def test_path_graph_scalar_levels(self, path_xyz):
        # vertex embeddings (1, 2, 3) on the path 1-2-3:
        #  level 1: 1+2+3 = 6
        #  level 2: walks (1,2),(2,1),(2,3),(3,2) -> 2+2+6+6 = 16
        #  level 3: six walks -> 2+6+4+12+6+18 = 48
        sch, g = path_xyz
        W = VertexEmbeddingMatrix(
            matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch, provenance={}
        )
        e = graph_embed(g, W, 3)
        assert [float(lv[0]) for lv in e.levels] == [6.0, 16.0, 48.0]

    def test_path_variant_keeps_only_distinct_rows(self, path_xyz):
        # only (1,2,3) and (3,2,1) survive at level 3: 2*1*2*3 = 12
        sch, g = path_xyz
        W = VertexEmbeddingMatrix(
            matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch, provenance={}
        )
        e = graph_embed(g, W, 3, variant="path")
        assert float(e.levels[2][0]) == 12.0
        o = oracle_embed(g, W, 3, variant="path")
        assert float(o.levels[2][0]) == 12.0

    def test_single_vertex_higher_levels_vanish(self, rng, schema):
        g = synth.random_graph(rng, schema, m=1, density=0.0)
        emb = random_embedding(schema, 6, seed=0)
        e = graph_embed(g, emb, 4)
        assert np.allclose(e.levels[0], emb.matrix @ synth.one_hot(g, schema, 0))
        for n in (2, 3, 4):
            assert np.all(e.levels[n - 1] == 0)

    def test_edgeless_graph_level_two_zero(self, rng, schema):
        g = synth.random_graph(rng, schema, m=5, density=0.0)
        emb = random_embedding(schema, 4, seed=1)
        assert np.all(graph_embed(g, emb, 2).levels[1] == 0)

    def test_triangle_identical_rows_path_variant_vanishes(self, schema):
        g = MolecularGraph(
            num_vertices=3, attr=[[0, 0]] * 3, edges=[[0, 1], [0, 2], [1, 2]],
            schema_fingerprint=schema.fingerprint,
        )
        emb = random_embedding(schema, 5, seed=2)
        e = graph_embed(g, emb, 2, variant="path")
        assert np.all(e.levels[1] == 0)


class TestOracleEquivalence:
    def test_recurrence_matches_enumeration_integer_exact(self, rng, schema):
        for _ in range(60):
            g = synth.random_graph(rng, schema, density=0.3)
            emb = _int_rademacher(rng, schema, 6)
            fast = graph_embed(g, emb, 4)
            slow = oracle_embed(g, emb, 4)
            assert fast.vector.dtype == np.int64
            assert np.array_equal(fast.vector, slow.vector)

    def test_recurrence_matches_enumeration_float(self, rng, schema):
        for _ in range(25):
            g = synth.random_graph(rng, schema, density=0.4)
            emb = random_embedding(schema, 8, dist="gaussian", seed=int(rng.integers(1 << 30)))
            fast = graph_embed(g, emb, 4).vector
            slow = oracle_embed(g, emb, 4).vector
            scale = max(np.max(np.abs(slow)), 1e-30)
            assert np.max(np.abs(fast - slow)) / scale <= 1e-10

    def test_level_scales_match_enumeration_every_variant(self, rng, schema):
        # "factorial" divides level n by n!; "count" divides it by the walk
        # count, which the engine keeps per unit and the oracle sums on an
        # integer embedding whose vertex rows are all 1
        ones = np.zeros((1, schema.total_width), dtype=np.int64)
        ones[0, : schema.cardinalities[0]] = 1  # every value of the first attribute
        counter = VertexEmbeddingMatrix(matrix=ones, schema=schema, provenance={})
        factorial = np.array([[1.0], [2.0], [6.0], [24.0]])
        for _ in range(10):
            g = synth.random_graph(rng, schema, density=0.4)
            emb = random_embedding(schema, 5, dist="gaussian", seed=int(rng.integers(1 << 30)))
            for variant in ng.ngram.VARIANTS:
                raw = np.array(oracle_embed(g, emb, 4, variant).levels)
                counts = np.array(oracle_embed(g, counter, 4, variant).levels)
                assert counts.dtype == np.int64 and counts[0, 0] == g.num_vertices
                slow = {"none": raw, "factorial": raw / factorial,
                        "count": np.where(counts > 0, raw / np.maximum(counts, 1), raw)}
                assert set(slow) == set(ng.ngram.LEVEL_SCALES)
                for level_scale, want in slow.items():
                    fast = embed_corpus([g], emb, 4, variant, level_scale)[0][0]
                    scale = max(np.max(np.abs(want)), 1e-30)
                    assert np.max(np.abs(fast - want.ravel())) / scale <= 1e-10

    def test_oracle_exclusion_rule_is_its_own(self, schema, monkeypatch):
        # the oracle tags vertices itself, so a wrong engine key would show:
        # with every vertex keyed alike, the engine drops the walks over the
        # edge and the oracle keeps them
        g = MolecularGraph(num_vertices=2, attr=[[0, 0], [1, 1]], edges=[[0, 1]],
                           schema_fingerprint=schema.fingerprint)
        emb = random_embedding(schema, 4, seed=0)
        for variant in ("path", "vertex_path"):
            assert np.allclose(embed_corpus([g], emb, 2, variant)[0][0],
                               oracle_embed(g, emb, 2, variant).vector)
        monkeypatch.setattr(ng.ngram, "_exclusion_keys",
                            lambda attr, variant: np.zeros((len(attr), 1), dtype=np.int64))
        for variant in ("path", "vertex_path"):
            fast = embed_corpus([g], emb, 2, variant)[0][0]
            slow = oracle_embed(g, emb, 2, variant).vector
            assert not fast[4:].any() and slow[4:].any()

    @settings(max_examples=100, deadline=None)
    @given(g=synth.messy_graphs(synth.small_schema()), seed=st.integers(0, 2**31))
    def test_recurrence_matches_oracle_on_messy_edge_lists(self, g, seed):
        sch = synth.small_schema()
        rng = np.random.default_rng(seed)
        emb = _int_rademacher(rng, sch, 4)
        assert np.array_equal(graph_embed(g, emb, 4).vector, oracle_embed(g, emb, 4).vector)
        emb = random_embedding(sch, 6, dist="gaussian", seed=seed)
        fast = graph_embed(g, emb, 4).vector
        slow = oracle_embed(g, emb, 4).vector
        assert np.max(np.abs(fast - slow)) <= 1e-12 * max(np.max(np.abs(slow)), 1e-300)

    def test_enumeration_cap_enforced(self, rng, schema):
        g = synth.random_graph(rng, schema, m=13, density=0.2)
        emb = random_embedding(schema, 4, seed=0)
        with pytest.raises(GraphTooLarge, match="use embed_corpus"):
            oracle_embed(g, emb, 3, cap=12)

    def test_vertex_path_excludes_revisits_only(self):
        # two vertices share an attribute row: path variant drops walks
        # between them, vertex_path keeps them
        sch = synth.single_attribute_schema(3)
        g = MolecularGraph(num_vertices=2, attr=[[1], [1]], edges=[[0, 1]],
                           schema_fingerprint=sch.fingerprint)
        emb = random_embedding(sch, 4, seed=3)
        assert np.all(graph_embed(g, emb, 2, variant="path").levels[1] == 0)
        assert np.any(graph_embed(g, emb, 2, variant="vertex_path").levels[1] != 0)


class TestProperties:
    def test_permutation_invariance(self, rng, schema):
        emb = random_embedding(schema, 12, dist="gaussian", seed=5)
        for _ in range(30):
            g = synth.random_graph(rng, schema, density=0.4)
            base = graph_embed(g, emb, 5).vector
            for _ in range(4):
                pi = rng.permutation(g.num_vertices)
                other = graph_embed(synth.permute(g, pi), emb, 5).vector
                denom = max(np.linalg.norm(base), 1e-30)
                assert np.linalg.norm(other - base) <= 1e-9 * denom

    def test_scaling_embedding_scales_levels_by_power(self, rng, schema):
        g = synth.random_graph(rng, schema, m=6, density=0.5)
        emb = random_embedding(schema, 6, dist="gaussian", seed=8)
        alpha = 1.7
        scaled = VertexEmbeddingMatrix(
            matrix=alpha * emb.matrix, schema=schema, provenance={}
        )
        a = graph_embed(g, emb, 4)
        b = graph_embed(g, scaled, 4)
        for n in range(1, 5):
            assert np.allclose(b.levels[n - 1], (alpha ** n) * a.levels[n - 1])

    def test_level_scale_factorial(self, path_xyz):
        sch, g = path_xyz
        W = VertexEmbeddingMatrix(matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch,
                                  provenance={})
        X, _ = embed_corpus([g], W, 3, level_scale="factorial")
        assert np.allclose(X[0], [6.0, 8.0, 8.0])

    def test_level_scale_count(self, path_xyz):
        sch, g = path_xyz
        W = VertexEmbeddingMatrix(matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch,
                                  provenance={})
        X, _ = embed_corpus([g], W, 3, level_scale="count")
        # walk counts per level: 3, 4, 6
        assert np.allclose(X[0], [2.0, 4.0, 8.0])

    def test_level_scale_count_builds_adjacency_once(self, path_xyz, monkeypatch):
        sch, g = path_xyz
        W = VertexEmbeddingMatrix(matrix=np.array([[1.0, 2.0, 3.0]]), schema=sch,
                                  provenance={})
        calls = []
        stack = ng.ngram.stack_graphs
        monkeypatch.setattr(ng.ngram, "stack_graphs",
                            lambda graphs: calls.append(1) or stack(graphs))
        embed_corpus([g], W, 3, level_scale="count")
        assert len(calls) == 1

    def test_runtime_roughly_linear_in_T(self, rng, schema):
        g = synth.molecule_scale_corpus(rng, schema, n_graphs=60, m_range=(24, 27))
        emb = random_embedding(schema, 64, seed=0)
        embed_corpus(g, emb, 2)  # warm up
        t0 = time.perf_counter()
        embed_corpus(g, emb, 2)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        embed_corpus(g, emb, 16)
        t_big = time.perf_counter() - t0
        # 8x the levels should cost well under 30x the time
        assert t_big <= max(30 * t_small, 0.5)


class TestInt64Range:
    @staticmethod
    def _triangle(value):
        sch = synth.single_attribute_schema(2)
        g = MolecularGraph(num_vertices=3, attr=[[0]] * 3, edges=[[0, 1], [0, 2], [1, 2]],
                           graph_id="tri", schema_fingerprint=sch.fingerprint)
        W = VertexEmbeddingMatrix(matrix=np.array([[value, 1]], dtype=np.int64), schema=sch,
                                  provenance={"kind": "int"})
        return sch, g, W

    def test_exact_below_bound(self):
        # 3 * 1000^5 * 2^4 fits in int64; level n sums 3 * 2^(n-1) walks of 1000^n
        _, g, W = self._triangle(1000)
        e = graph_embed(g, W, 5)
        assert [int(lv[0]) for lv in e.levels] == [3 * 2 ** (n - 1) * 1000 ** n
                                                   for n in range(1, 6)]

    def test_overflow_refused_by_every_engine(self):
        # level 8 is 384 * 1000^8 = 3.84e26, far outside int64
        sch, g, W = self._triangle(1000)
        for variant in ng.ngram.VARIANTS:
            with pytest.raises(WalkOverflow):
                graph_embed(g, W, 8, variant=variant)
        with pytest.raises(WalkOverflow):
            oracle_embed(g, W, 8)
        with pytest.raises(WalkOverflow):
            ng.count_statistics(g, sch, 8, synth.checked_rows(g, W))

    def test_overflow_isolated_in_corpus(self):
        sch, g, W = self._triangle(1000)
        lone = dataclasses.replace(g, edges=[], graph_id="edgeless")
        X, manifest = embed_corpus([lone, g], W, 8)
        assert list(manifest["errors"]) == ["1"]
        assert "overflow" in manifest["errors"]["1"]
        assert np.isnan(X[1]).all() and not np.isnan(X[0]).any()

    def test_walk_counts_checked_for_float_embeddings(self):
        # K5 has 5 * 4^32 ~ 9.2e19 walks of 33 vertices
        sch = synth.single_attribute_schema(2)
        edges = [[u, v] for u in range(5) for v in range(u + 1, 5)]
        g = MolecularGraph(num_vertices=5, attr=[[0]] * 5, edges=edges,
                           schema_fingerprint=sch.fingerprint)
        emb = VertexEmbeddingMatrix(matrix=np.array([[0.5, 1.0]]), schema=sch, provenance={})
        assert np.isfinite(graph_embed(g, emb, 33).vector).all()
        X, manifest = embed_corpus([g], emb, 33, level_scale="count")
        assert np.isnan(X).all()
        assert manifest["errors"]["0"].startswith("int64 walk sums may overflow at T=33")


class TestNormalization:
    def test_unit_l2_rows(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 40, density=0.4)
        emb = random_embedding(schema, 8, seed=0)
        X, _ = embed_corpus(graphs, emb, 3, normalization="unit-l2")
        norms = np.linalg.norm(X, axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))

    def test_zero_graph_stays_zero_under_normalization(self, schema):
        g = MolecularGraph(num_vertices=0, attr=np.zeros((0, 2)), edges=[],
                           schema_fingerprint=schema.fingerprint)
        emb = random_embedding(schema, 4, seed=0)
        X, manifest = embed_corpus([g], emb, 2, normalization="unit-l2")
        assert np.all(X == 0.0) and not manifest["errors"]

    def test_integer_norm_does_not_wrap(self):
        # x = (1e6, 1e6), y = (1e6, 5e5) on the path x-y-x: the levels are
        # (3e6, 2.5e6) and (4e12, 2e12), whose squares sum to 2e25, past int64
        sch = synth.single_attribute_schema(2)
        g = MolecularGraph(num_vertices=3, attr=[[0], [1], [0]], edges=[[0, 1], [1, 2]],
                           schema_fingerprint=sch.fingerprint)
        W = np.array([[10**6, 10**6], [10**6, 5 * 10**5]], dtype=np.int64)
        rows = []
        for dtype in (np.int64, np.float64):
            emb = VertexEmbeddingMatrix(matrix=W.astype(dtype), schema=sch, provenance={})
            X, manifest = embed_corpus([g], emb, 2, normalization="unit-l2")
            assert not manifest["errors"]
            rows.append(X[0])
        assert np.array_equal(rows[0], rows[1])
        np.testing.assert_allclose(rows[0], np.array([3e6, 2.5e6, 4e12, 2e12]) / np.sqrt(2e25),
                                   rtol=1e-12)



class TestCorpus:
    def test_empty_corpus(self, schema):
        emb = random_embedding(schema, 4, seed=0)
        X, manifest = embed_corpus([], emb, 3)
        assert X.shape == (0, 12)
        assert manifest["num_graphs"] == 0
        assert manifest["feature_width"] == 12

    def test_rows_equal_stacked_graph_embed(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 100, density=0.35)
        emb = random_embedding(schema, 6, seed=2)
        X, manifest = embed_corpus(graphs, emb, 4)
        assert not manifest["errors"]
        for i in (0, 17, 63, 99):
            assert np.array_equal(X[i], graph_embed(graphs[i], emb, 4).vector)

    def test_bad_row_reported_not_fatal(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 3, density=0.4)
        bad = MolecularGraph(num_vertices=2, attr=[[0, 0], [0, 9]], edges=[[0, 1]])
        graphs.insert(1, bad)
        emb = random_embedding(schema, 4, seed=0)
        X, manifest = embed_corpus(graphs, emb, 2)
        assert "1" in manifest["errors"]
        assert np.isnan(X[1]).all()
        assert not np.isnan(X[0]).any()

    def test_manifest_records_provenance(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 4)
        emb = random_embedding(schema, 5, seed=9)
        _, manifest = embed_corpus(graphs, emb, 2)
        assert manifest["w_provenance"]["kind"] == "random-rademacher"
        assert manifest["ids"] == [g.graph_id for g in graphs]


class TestBatchIndependence:
    """Rows must not depend on batch composition or slicing, and bad graphs
    must stay isolated as NaN rows with their error strings."""

    T = 4

    @staticmethod
    def _corpus(rng):
        sch = synth.small_schema()
        other = synth.small_schema(name="other", ks=(5, 5))
        # attr0 value 4 is left to the "over" graph
        graphs = [dataclasses.replace(g, attr=np.minimum(g.attr, [3, 3]))
                  for g in synth.random_corpus(rng, sch, 6, density=0.4)]
        big = synth.random_graph(rng, sch, m=12, density=0.4, connected=True, graph_id="big")
        big = dataclasses.replace(big, attr=np.minimum(big.attr, [3, 3]))
        over = MolecularGraph(num_vertices=3, attr=[[4, 0]] * 3,
                              edges=[[0, 1], [0, 2], [1, 2]], graph_id="over",
                              schema_fingerprint=sch.fingerprint)
        empty = MolecularGraph(num_vertices=0, attr=np.zeros((0, 2)), edges=[],
                               graph_id="empty", schema_fingerprint=sch.fingerprint)
        alien = synth.random_graph(rng, other, m=4, density=0.5, graph_id="alien")
        invalid = MolecularGraph(num_vertices=2, attr=[[0, 0], [0, 9]], edges=[[0, 1]],
                                 graph_id="invalid")
        corpus = graphs[:2] + [empty, big, over] + graphs[2:4] + [alien, invalid] + graphs[4:]
        W = np.random.default_rng(7).choice((-1, 1), size=(4, sch.total_width)).astype(np.int64)
        W[:, 4] = 10**6
        W[:, 5] = 1  # so max|F| of the "over" graph is 10**6 + 1
        embs = {
            "int": VertexEmbeddingMatrix(matrix=W, schema=sch, provenance={"kind": "int"}),
            "float": random_embedding(sch, 4, dist="gaussian", seed=11),
        }
        errors = {
            corpus.index(alien): "schema fingerprint mismatch: graph "
                                 f"{other.fingerprint} vs embedding {sch.fingerprint}",
            corpus.index(invalid): "graph invalid under embedding schema: "
                                   "attr index out of range: attr[1][1]=9 with k_1=4",
        }
        overflow = {corpus.index(over): "int64 walk sums may overflow at T=4 "
                                        "(m=3, max|F|=1000001, max degree=2)"}
        return corpus, embs, errors, overflow

    def test_rows_independent_of_batch_and_slicing(self, rng, monkeypatch):
        corpus, embs, errors, overflow = self._corpus(rng)
        options = [(v, ls, nm) for v in ng.ngram.VARIANTS for ls in ng.ngram.LEVEL_SCALES
                   for nm in ng.ngram.NORMALIZATIONS]
        unsliced = {(kind, *o): embed_corpus(corpus, emb, self.T, *o)[0]
                    for kind, emb in embs.items() for o in options}
        # 64 entries at r = 4: 16 frontier rows, so the 12-vertex graph is cut
        # into slices of start vertices and the rest into many batches
        monkeypatch.setattr(ng.ngram, "BATCH_ENTRIES", 64)
        for kind, emb in embs.items():
            expected = {**errors, **overflow} if kind == "int" else errors
            for variant, level_scale, norm in options:
                X, manifest = embed_corpus(corpus, emb, self.T, variant, level_scale, norm)
                assert manifest["errors"] == {str(i): e for i, e in sorted(expected.items())}
                for i, g in enumerate(corpus):
                    if i in expected:
                        assert np.isnan(X[i]).all()
                        continue
                    alone, _ = embed_corpus([g], emb, self.T, variant, level_scale, norm)
                    assert np.array_equal(X[i], alone[0])
                    ref = unsliced[(kind, variant, level_scale, norm)][i]
                    assert np.max(np.abs(X[i] - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)


def _record_frontiers(monkeypatch):
    """Wrap ``expand_walks`` wherever it is called, and ``unit_cuts`` to catch
    an enumeration made while sizing; returns a list that fills with one
    (inside unit_cuts, number of start vertices, frontier rows per level)
    entry per enumeration."""
    calls, sizing = [], []
    expand, cuts = ng.ngram.expand_walks, ng.ngram.unit_cuts

    def recording(indptr, indices, keys, starts, T):
        sizes = []
        calls.append((bool(sizing), len(starts), sizes))
        for level in expand(indptr, indices, keys, starts, T):
            sizes.append(level[2].size)
            yield level

    def flagged(*args):
        sizing.append(True)
        try:
            return cuts(*args)
        finally:
            sizing.pop()

    for module in (ng.ngram, ng.counts):
        monkeypatch.setattr(module, "expand_walks", recording)
        monkeypatch.setattr(module, "unit_cuts", flagged)
    return calls


def _clique(schema, m, rng):
    attr = np.stack([rng.integers(0, k, size=m) for k in schema.cardinalities], axis=1)
    return MolecularGraph(num_vertices=m, attr=attr,
                          edges=[[u, v] for u in range(m) for v in range(u + 1, m)],
                          graph_id=f"K{m}", schema_fingerprint=schema.fingerprint)


def _non_backtracking_peaks(g, T):
    """Per start vertex, the largest count at levels 1..T of the walks that
    never step straight back, by depth-first enumeration."""
    nbrs = [g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() for v in range(g.num_vertices)]
    peaks = []
    for start in range(g.num_vertices):
        counts = [0] * T
        stack = [(start, -1, 1)]
        while stack:
            v, prev, n = stack.pop()
            counts[n - 1] += 1
            if n < T:
                stack.extend((u, v, n + 1) for u in nbrs[v] if u != prev)
        peaks.append(max(counts))
    return np.array(peaks, dtype=np.int64)


class TestWalkBound:
    """The unit sizes rest on ``walk_bound`` and on the path keys."""

    def test_equals_brute_force_non_backtracking_count(self, rng):
        sch = synth.small_schema()
        for _ in range(30):  # 300 graphs, stacked ten at a time
            T = int(rng.integers(1, 6))
            graphs = [synth.random_graph(rng, sch, m=int(rng.integers(1, 9)),
                                         density=float(rng.uniform(0.1, 0.6)))
                      for _ in range(10)]
            indptr, indices, _, _ = ng.graph.stack_graphs(graphs)
            peaks = np.concatenate([_non_backtracking_peaks(g, T) for g in graphs])
            for cap in (1, 2, 3, 5, 1 << 40):
                bound = ng.ngram.walk_bound(indptr, indices, T, cap)
                assert np.array_equal(bound, np.clip(peaks, 1, cap))

    def test_bounds_every_frontier(self, rng, full_schema):
        graphs = synth.molecule_scale_corpus(rng, full_schema, n_graphs=4)
        graphs += [_clique(full_schema, 6, rng),
                   synth.random_graph(rng, full_schema, m=9, density=0.5)]
        indptr, indices, attr, _ = ng.graph.stack_graphs(graphs)
        starts = np.arange(attr.shape[0])
        T = 6
        bound = ng.ngram.walk_bound(indptr, indices, T, 1 << 40)
        for keys in (ng.ngram._exclusion_keys(attr, "path"),
                     ng.ngram._exclusion_keys(attr, "vertex_path"), attr):
            seg, peak = starts, np.ones(starts.size, dtype=np.int64)
            for _, parent, _, _ in ng.ngram.expand_walks(indptr, indices, keys, starts, T):
                if parent is not None:
                    seg = seg[parent]
                    peak = np.maximum(peak, np.bincount(seg, minlength=starts.size))
            assert (peak <= bound).all()
            assert (peak < bound).any()

    @pytest.mark.parametrize("shape", [(200, 8), (50, 3), (30, 1), (0, 4)])
    def test_path_keys_rank_rows_like_unique(self, rng, shape):
        for lo, hi in ((0, 3), (-4, 4), (0, 1 << 40)):
            attr = rng.integers(lo, hi, size=shape)
            keys = ng.ngram._exclusion_keys(attr, "path")
            ref = np.unique(attr, axis=0, return_inverse=True)[1].reshape(-1)
            assert keys.shape == (shape[0], 1) and keys.dtype == np.int64
            assert np.array_equal(keys[:, 0], ref)


class TestUnitCuts:
    """The exclusion variants cut a graph into start-vertex slices by the
    non-backtracking walk bound, without enumerating any walk to size them."""

    BUDGET = 1024

    def _check(self, calls, width):
        """No enumeration runs inside unit_cuts, and frontier rows times width
        stay within the budget, except for a single start vertex; returns how
        many single start vertices passed."""
        alone = 0
        for sizing, starts, sizes in calls:
            assert not sizing
            if max(sizes) * width > self.BUDGET:
                assert starts == 1
                alone += 1
        return alone

    def test_frontiers_stay_within_budget(self, rng, full_schema, monkeypatch):
        # 64 frontier rows at r = 16: every molecule is sliced, and a start
        # vertex of K7 spawns 360 five-vertex paths on its own. At T = 2 the
        # bound is exact, and each K12 is cut into slices of 5 start vertices.
        molecules = synth.molecule_scale_corpus(rng, full_schema, n_graphs=12)
        molecules.insert(5, _clique(full_schema, 7, rng))
        cliques = [_clique(full_schema, 12, rng) for _ in range(5)]
        r, S = 16, full_schema.num_attributes
        emb = random_embedding(full_schema, r, seed=0)
        monkeypatch.setattr(ng.ngram, "BATCH_ENTRIES", self.BUDGET)
        calls = _record_frontiers(monkeypatch)
        alone = 0
        for graphs, T in ((molecules, 5), (cliques, 2)):
            for variant in ("path", "vertex_path"):
                embed_corpus(graphs, emb, T, variant)
                assert 2 * len(graphs) < len(calls)  # sliced
                alone += self._check(calls, max(r, T))
                calls.clear()
        assert alone  # the K7 start vertices
        T = 5
        for g in molecules:
            ng.count_statistics(g, full_schema, T, synth.checked_rows(g, emb))
        self._check(calls, max(T * S, r))

    def test_unsliced_graph_keeps_its_unit(self, rng, full_schema):
        graphs = synth.molecule_scale_corpus(rng, full_schema, n_graphs=5, m_range=(5, 7))
        indptr, indices, attr, offsets = ng.graph.stack_graphs(graphs)
        ub, cost = ng.ngram.unit_cuts(indptr, indices, offsets, 4, 32)
        bound = ng.ngram.walk_bound(indptr, indices, 4, 1 << 20)
        assert np.array_equal(ub, offsets)
        assert np.array_equal(cost, np.add.reduceat(bound, offsets[:-1]))

    def test_count_statistics_independent_of_slicing(self, rng, monkeypatch):
        sch = synth.small_schema(ks=(8, 9))
        g = synth.random_graph(rng, sch, m=12, density=0.5, connected=True)
        F = {"int": synth.checked_rows(g, _int_rademacher(rng, sch, 5)),
             "float": synth.checked_rows(g, random_embedding(sch, 6, dist="gaussian", seed=3))}
        whole = {kind: ng.count_statistics(g, sch, 5, f) for kind, f in F.items()}
        monkeypatch.setattr(ng.ngram, "BATCH_ENTRIES", 48)
        calls = _record_frontiers(monkeypatch)
        for kind, f in F.items():
            sliced = ng.count_statistics(g, sch, 5, f)
            assert sliced.walk_counts == whole[kind].walk_counts
            assert all(np.array_equal(sliced.level(n), whole[kind].level(n))
                       for n in range(1, 6))
            for a, b in zip(sliced.products, whole[kind].products):
                if kind == "int":
                    assert np.array_equal(a, b)
                else:
                    assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)
        assert len(calls) > 2 and not any(sizing for sizing, _, _ in calls)  # sliced

    def test_pack_runs_stop_at_breaks(self):
        pack = ng.ngram.pack
        assert pack([1, 1, 1, 1, 1], 3).tolist() == [0, 3, 5]
        assert pack([1, 1, 1, 1, 1], 3, [1, 4]).tolist() == [0, 1, 4, 5]
        assert pack([5, 1, 1], 3, [0, 3]).tolist() == [0, 1, 3]
        assert pack([], 3, [0]).tolist() == [0]

    def test_sliced_graph_rows_built_once(self, rng, full_schema, monkeypatch):
        # a 60-vertex graph between two single edges; at r = 4 and T = 5, 256
        # entries are 51 frontier rows, so only the large graph is sliced,
        # and its end slices leave room for an edge in their batch
        edge = [MolecularGraph(num_vertices=2, attr=[[0] * full_schema.num_attributes] * 2,
                               edges=[[0, 1]], schema_fingerprint=full_schema.fingerprint)
                for _ in range(2)]
        large = synth.molecule_scale_corpus(rng, full_schema, n_graphs=1, m_range=(60, 61))
        graphs = [edge[0], large[0], edge[1]]
        emb = random_embedding(full_schema, 4, dist="gaussian", seed=2)
        T = 5
        monkeypatch.setattr(ng.ngram, "BATCH_ENTRIES", 256)
        indptr, indices, _, offsets = ng.graph.stack_graphs(graphs)
        ub, _ = ng.ngram.unit_cuts(indptr, indices, offsets, T, 5)
        units = np.bincount(np.searchsorted(offsets, ub[:-1], side="right") - 1)
        assert units[0] == units[2] == 1 and units[1] >= 3
        built, rows_of = [], ng.ngram.vertex_rows
        monkeypatch.setattr(ng.ngram, "vertex_rows",
                            lambda attr, e: built.append(len(attr)) or rows_of(attr, e))
        for variant in ng.ngram.VARIANTS:
            alone = [embed_corpus([g], emb, T, variant)[0][0] for g in graphs]
            built.clear()
            X, manifest = embed_corpus(graphs, emb, T, variant)
            assert sum(built) <= offsets[-1]
            assert not manifest["errors"]
            assert all(np.array_equal(x, a) for x, a in zip(X, alone))

    def test_sliced_integer_rows_equal_oracle(self, rng, full_schema, monkeypatch):
        graphs = synth.molecule_scale_corpus(rng, full_schema, n_graphs=4)
        emb = _int_rademacher(rng, full_schema, 4)
        T = 5
        monkeypatch.setattr(ng.ngram, "BATCH_ENTRIES", 256)  # 64 frontier rows
        indptr, indices, attr, offsets = ng.graph.stack_graphs(graphs)
        ub, _ = ng.ngram.unit_cuts(indptr, indices, offsets, T, 4)
        assert ub.size - 1 > 2 * len(graphs)
        for variant in ("path", "vertex_path"):
            X, manifest = embed_corpus(graphs, emb, T, variant)
            assert not manifest["errors"]
            for g, row in zip(graphs, X):
                ref = oracle_embed(g, emb, T, variant=variant, cap=64).vector
                assert ref.dtype == np.int64
                assert np.array_equal(row, ref)
