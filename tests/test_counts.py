from itertools import product
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ngram_graph as ng
from ngram_graph import count_statistics, random_embedding
from ngram_graph.counts import level_dimension, subset_table

from . import synth
from .synth import one_hot, subset_rank, subsets_colex


class TestColexIndexing:
    def test_three_choose_two_order(self):
        assert subsets_colex(3, 2) == [(0, 1), (0, 2), (1, 2)]

    def test_rank_matches_enumeration_order(self):
        for k in (3, 5, 8):
            for n in (1, 2, 3):
                for i, s in enumerate(subsets_colex(k, n)):
                    assert subset_rank(s) == i

    def test_table_row_has_its_rank(self):
        for k, n in ((6, 2), (7, 3), (9, 4)):
            table = subset_table(k, n)
            assert [subset_rank(row) for row in table] == list(range(comb(k, n)))

    def test_subset_table_matches_eager(self):
        for k, n in ((5, 2), (8, 3), (4, 4), (3, 4), (6, 1), (40, 2)):
            table = subset_table(k, n)
            assert table.dtype == np.int64 and table.shape == (comb(k, n), n)
            assert [tuple(row) for row in table.tolist()] == subsets_colex(k, n)

    def test_rank_ignores_input_order(self):
        assert subset_rank((4, 1, 2)) == subset_rank((1, 2, 4))


class TestCountStatistics:
    def test_path_graph_pair_counts(self, path_xyz):
        sch, g = path_xyz
        stats = count_statistics(g, sch, 2)
        # subsets in colex order: {x,y}, {x,z}, {y,z}
        assert stats.level(2).tolist() == [2, 0, 2]

    def test_level_one_is_one_hot_sum(self, rng, schema):
        g = synth.random_graph(rng, schema, m=7, density=0.4)
        stats = count_statistics(g, schema, 1)
        hot_sum = sum(one_hot(g, schema, i) for i in range(7))
        assert np.array_equal(stats.level(1), hot_sum)

    def test_edgeless_graph_higher_levels_zero(self, rng, schema):
        g = synth.random_graph(rng, schema, m=5, density=0.0)
        stats = count_statistics(g, schema, 3)
        assert np.all(stats.level(2) == 0)
        assert np.all(stats.level(3) == 0)

    def test_both_directions_counted(self, path_xyz):
        sch, g = path_xyz
        stats = count_statistics(g, sch, 2)
        assert stats.walk_counts == (3, 4)

    def test_block_sums_equal_walk_count(self, rng):
        sch = synth.small_schema(ks=(8, 9))
        g = synth.random_graph(rng, sch, m=6, density=0.5, distinct_values=True)
        stats = count_statistics(g, sch, 3)
        for n in (1, 2, 3):
            for j in range(sch.num_attributes):
                assert stats.blocks[n - 1][j].sum() == stats.walk_counts[n - 1]

    def test_sparsity_bounded_by_walk_count(self, rng):
        sch = synth.small_schema(ks=(8, 9))
        for _ in range(10):
            g = synth.random_graph(rng, sch, m=6, density=0.5, distinct_values=True)
            stats = count_statistics(g, sch, 3)
            for n in (1, 2, 3):
                nonzero = np.count_nonzero(stats.level(n))
                assert nonzero <= sch.num_attributes * stats.walk_counts[n - 1]

    def test_walks_with_repeated_values_excluded(self):
        # both vertices carry the same value: the only 2-walks repeat it
        sch = synth.single_attribute_schema(3)
        g = ng.MolecularGraph(num_vertices=2, attr=[[1], [1]], edges=[[0, 1]],
                              schema_fingerprint=sch.fingerprint)
        stats = count_statistics(g, sch, 2)
        assert stats.walk_counts == (2, 0)
        assert np.all(stats.level(2) == 0)

    def test_pigeonhole_empties_levels_beyond_cardinality(self):
        # a binary attribute cannot supply three distinct values
        sch = synth.small_schema(ks=(5, 2))
        g = ng.MolecularGraph(
            num_vertices=3, attr=[[0, 0], [1, 1], [2, 0]], edges=[[0, 1], [1, 2]],
            schema_fingerprint=sch.fingerprint,
        )
        stats = count_statistics(g, sch, 3)
        assert level_dimension(sch, 3) == comb(5, 3)  # the k=2 block vanishes
        assert stats.level(3).size == comb(5, 3)
        assert stats.walk_counts[2] == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        sch = synth.small_schema(ks=(7, 6))
        g = synth.random_graph(r, sch, m=5, density=0.5, distinct_values=True)
        pi = r.permutation(5)
        a = count_statistics(g, sch, 3)
        b = count_statistics(synth.permute(g, pi), sch, 3)
        assert all(np.array_equal(a.level(n), b.level(n)) for n in (1, 2, 3))
        assert a.walk_counts == b.walk_counts


def _brute_force_distinct(g, schema, F, T):
    """Counts and walk products over every vertex sequence whose steps are
    edges and whose values are pairwise distinct in every attribute."""
    blocks = [[np.zeros(comb(k, n), dtype=np.int64) for k in schema.cardinalities]
              for n in range(1, T + 1)]
    counts = [0] * T
    levels = [np.zeros(F.shape[1], dtype=F.dtype) for _ in range(T)]
    for n in range(1, T + 1):
        for seq in product(range(g.num_vertices), repeat=n):
            if not all(synth.has_edge(g, u, v) for u, v in zip(seq, seq[1:])):
                continue
            values = g.attr[list(seq)]
            if any(len(set(values[:, j].tolist())) < n for j in range(values.shape[1])):
                continue
            counts[n - 1] += 1
            for j in range(values.shape[1]):
                blocks[n - 1][j][subset_rank(values[:, j])] += 1
            levels[n - 1] = levels[n - 1] + F[list(seq)].prod(axis=0)
    return blocks, counts, levels


class TestBruteForceReference:
    @settings(max_examples=60, deadline=None)
    @given(g=synth.messy_graphs(synth.small_schema(), max_m=6), seed=st.integers(0, 2**31))
    def test_counts_and_products_match_enumeration(self, g, seed):
        sch = synth.small_schema()
        T = 4
        rng = np.random.default_rng(seed)
        W = rng.choice((-1, 1), size=(5, sch.total_width)).astype(np.int64)
        F = synth.checked_rows(g, ng.VertexEmbeddingMatrix(matrix=W, schema=sch, provenance={}))
        blocks, counts, levels = _brute_force_distinct(g, sch, F, T)
        stats = count_statistics(g, sch, T, F)
        assert stats.walk_counts == tuple(counts)
        for n in range(1, T + 1):
            for j in range(sch.num_attributes):
                assert np.array_equal(stats.blocks[n - 1][j], blocks[n - 1][j])
        assert all(np.array_equal(a, b) for a, b in zip(stats.products, levels))
        plain = count_statistics(g, sch, T)
        assert all(np.array_equal(plain.level(n), stats.level(n)) for n in range(1, T + 1))

        F = synth.checked_rows(g, random_embedding(sch, 6, dist="gaussian", seed=seed))
        _, _, levels = _brute_force_distinct(g, sch, F, T)
        got = count_statistics(g, sch, T, F).products
        for a, b in zip(got, levels):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)
