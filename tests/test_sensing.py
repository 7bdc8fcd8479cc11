import numpy as np
import pytest

import ngram_graph as ng
from ngram_graph import build_sensing, count_statistics, verify_identity
from ngram_graph.sensing import (
    BlockSensingMatrix,
    LevelOperator,
    SensingError,
    allocate_rows,
)

from . import synth


class TestAllocation:
    def test_single_attribute_gets_everything(self):
        sch = synth.single_attribute_schema(6)
        assert allocate_rows(sch, 10) == (10,)

    def test_proportional_follows_cardinality(self):
        sch = synth.small_schema(ks=(10, 2))
        rows = allocate_rows(sch, 12)
        assert sum(rows) == 12
        assert rows[0] == 10 and rows[1] == 2

    def test_every_block_gets_a_row(self):
        sch = synth.small_schema(ks=(50, 2))
        rows = allocate_rows(sch, 5)
        assert min(rows) >= 1 and sum(rows) == 5

    def test_floor_overshoot_is_trimmed_from_the_largest_block(self):
        # 3 * 100 // 104 = 2 rows for the big block, and the one-row floor of
        # the others makes 4 > r; the trim takes the extra row back
        sch = synth.small_schema(ks=(100, 2, 2))
        assert allocate_rows(sch, 3) == (1, 1, 1)

    def test_r_below_attribute_count_faults(self):
        sch = synth.small_schema(ks=(3, 3))
        with pytest.raises(SensingError):
            allocate_rows(sch, 1)


class TestOperators:
    def test_integer_scale_keeps_int64(self):
        sch = synth.small_schema(ks=(4, 3))
        B = build_sensing(sch, 6, seed=0, scale=1.0)
        assert all(U.dtype == np.int64 for U in B.blocks)
        assert set(np.unique(B.blocks[0])) <= {-1, 1}

    def test_fractional_scale_gives_float(self):
        sch = synth.small_schema(ks=(4, 3))
        B = build_sensing(sch, 16, seed=0, scale=0.25)
        assert all(U.dtype == np.float64 for U in B.blocks)
        assert np.allclose(np.abs(B.blocks[0]), 0.25)

    def test_assembled_is_block_diagonal(self):
        sch = synth.small_schema(ks=(4, 3))
        B = build_sensing(sch, 6, seed=1)
        W = B.embedding().matrix
        r0 = B.blocks[0].shape[0]
        assert np.all(W[:r0, 4:] == 0)
        assert np.all(W[r0:, :4] == 0)
        assert np.array_equal(W[:r0, :4], B.blocks[0]) and np.array_equal(W[r0:, 4:], B.blocks[1])
        assert W.shape == (6, 7) and W.dtype == np.int64

    def test_pair_column_is_hadamard_of_base_columns(self):
        sch = synth.single_attribute_schema(5)
        B = build_sensing(sch, 7, seed=3)
        U = B.blocks[0]
        op = B.operator(2)
        dense = op.materialize()
        # colex order: column for subset {x, y} sits at subset_rank((x, y))
        for x in range(5):
            for y in range(x + 1, 5):
                col = dense[:, synth.subset_rank((x, y))]
                assert np.array_equal(col, U[:, x] * U[:, y])

    def test_operator_shape(self):
        sch = synth.small_schema(ks=(5, 4))
        B = build_sensing(sch, 9, seed=0)
        op = B.operator(2)
        assert op.shape == (9, 10 + 6)

    def test_materialize_cap(self, monkeypatch):
        sch = synth.single_attribute_schema(30)
        B = build_sensing(sch, 50, seed=0)
        op = B.operator(3)
        monkeypatch.setattr(ng.sensing, "MATERIALIZE_CAP", 100)
        with pytest.raises(SensingError):
            op.materialize()

    def test_matrix_free_matches_dense(self):
        # two blocks at n = 2: correlations come from each block's Gram product
        sch = synth.small_schema(ks=(7, 6))
        B = build_sensing(sch, 11, seed=4, scale=1.0)
        op = B.operator(2)
        dense = op.materialize().astype(np.float64)
        rng = np.random.default_rng(0)
        c = rng.integers(0, 3, size=op.shape[1]).astype(np.float64)
        res = rng.standard_normal(op.shape[0])
        assert np.allclose(op.matvec(c), dense @ c)
        assert np.allclose(op.correlations(res), dense.T @ res, rtol=0, atol=1e-12)
        for idx in (0, 5, op.shape[1] - 1):
            assert np.allclose(op.columns([idx])[:, 0], dense[:, idx])
        assert np.allclose(op.column_norms(), np.linalg.norm(dense, axis=0))

    def test_triple_correlations_cross_column_chunks(self):
        # C(31, 3) = 4495 columns: the chunked gather runs past one 4096 chunk
        sch = synth.single_attribute_schema(31)
        B = build_sensing(sch, 9, seed=5, scale=9 ** -0.5)
        op = B.operator(3)
        assert op.shape[1] == 4495
        res = np.random.default_rng(2).standard_normal(op.shape[0])
        dense = op.materialize()
        assert np.allclose(op.correlations(res), dense.T @ res, rtol=0, atol=1e-12)

    def test_integer_matvec_exact(self):
        # integer blocks and counts stay int64 and match the dense product exactly
        sch = synth.small_schema(ks=(9, 8))
        B = build_sensing(sch, 12, seed=6, scale=3.0)
        for n in (1, 2, 3):
            op = B.operator(n)
            c = np.zeros(op.shape[1], dtype=np.int64)
            c[::3] = np.arange(1, c[::3].size + 1) * 10**6
            got = op.matvec(c)
            assert got.dtype == np.int64
            assert np.array_equal(got, op.materialize() @ c)
            assert np.array_equal(op.matvec(np.zeros_like(c)), np.zeros(op.shape[0], np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ks, dtypes", [
        ((7,), (np.int64,)),
        ((7,), (np.float64,)),
        ((5, 4), (np.int64, np.int64)),
        ((5, 4), (np.float64, np.float64)),
        ((2, 6), (np.int64, np.float64)),  # at n = 3 the first block has no columns
    ])
    def test_column_equals_columns(self, n, ks, dtypes):
        # general entries, so a product taken in another order would show
        rng = np.random.default_rng(n)
        rows = (3, 4)[: len(ks)]
        blocks = tuple(rng.integers(-5, 6, size=(r, k)) if dt == np.int64
                       else rng.standard_normal((r, k))
                       for r, k, dt in zip(rows, ks, dtypes))
        op = LevelOperator(blocks=blocks, n=n)
        assert op.row_offsets == (0, 3, 7)[: len(ks) + 1]
        for c in range(op.shape[1]):
            got, want = op.column(c), op.columns([c])[:, 0]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_omp_works_matrix_free(self):
        from ngram_graph.recovery import omp_recover

        sch = synth.single_attribute_schema(16)
        B = build_sensing(sch, 60, seed=8, scale=60 ** -0.5)
        op = B.operator(2)
        rng = np.random.default_rng(1)
        c = np.zeros(op.shape[1])
        c[rng.choice(op.shape[1], 3, replace=False)] = [1.0, 3.0, 2.0]
        f = op.matvec(c)
        res = omp_recover(f, op, sparsity=3)
        assert np.allclose(res.c_hat, c, atol=1e-8)


def _reference_blocks(schema, r, seed, scale):
    """``build_sensing``'s blocks drawn as a +-1 array and then scaled: int64
    for an integer scale, float64 otherwise."""
    rng = np.random.default_rng(seed)
    blocks = []
    for r_j, k_j in zip(allocate_rows(schema, r), schema.cardinalities):
        signs = rng.choice((-1, 1), size=(r_j, k_j))
        if float(scale).is_integer():
            blocks.append((int(scale) * signs).astype(np.int64))
        else:
            blocks.append(scale * signs.astype(np.float64))
    return blocks


@pytest.mark.parametrize("scale", [1, 1.0, 3, -2.0, 0.25, -0.5, 50 ** -0.5])
@pytest.mark.parametrize("ks", [(40,), (4, 3), (9, 8, 2)])
def test_blocks_equal_the_scaled_sign_draw(scale, ks):
    sch = synth.small_schema(ks=ks)
    for seed in range(4):
        for r in (len(ks), 50):
            got = build_sensing(sch, r, seed=seed, scale=scale).blocks
            want = _reference_blocks(sch, r, seed, scale)
            assert [(U.dtype, U.shape, U.tobytes()) for U in got] == [
                (U.dtype, U.shape, U.tobytes()) for U in want]


class TestIdentity:
    def test_hand_expanded_path_example(self, path_xyz):
        sch, g = path_xyz
        U = np.array([[1, 1, -1], [1, -1, 1]], dtype=np.int64)
        B = BlockSensingMatrix(schema=sch, blocks=(U,), scale=1.0, seed=None)
        stats = count_statistics(g, sch, 2)
        f2 = B.operator(2).matvec(stats.level(2))
        assert f2.tolist() == [0, -4]
        assert verify_identity(g, B, 2) == [0.0, 0.0]

    def test_level_one_holds_for_any_matrix(self, rng, schema):
        # f_(1) = W c_(1) needs no block structure at all
        g = synth.random_graph(rng, schema, m=6, density=0.5)
        emb = ng.random_embedding(schema, 7, dist="gaussian", seed=2)
        stats = count_statistics(g, schema, 1)
        f1 = ng.graph_embed(g, emb, 1).levels[0]
        assert np.allclose(f1, emb.matrix @ stats.level(1))

    def test_edgeless_graph_both_sides_zero(self, rng):
        sch = synth.small_schema(ks=(6, 6))
        g = synth.random_graph(rng, sch, m=4, density=0.0, distinct_values=True)
        B = build_sensing(sch, 8, seed=0)
        res = verify_identity(g, B, 3)
        assert res == [0.0, 0.0, 0.0]

    def test_exact_zero_residual_random_graphs(self, rng):
        for _ in range(40):
            S = int(rng.integers(1, 4))
            m = int(rng.integers(3, 8))
            ks = [int(rng.integers(m, m + 4)) for _ in range(S)]
            sch = ng.AttributeSchema.from_pairs(
                [(f"a{j}", [f"v{j}_{i}" for i in range(ks[j])]) for j in range(S)]
            )
            g = synth.random_graph(rng, sch, m=m, density=0.45, distinct_values=True)
            B = build_sensing(sch, r=4 * S, seed=int(rng.integers(1 << 31)), scale=1.0)
            assert verify_identity(g, B, 3) == [0.0, 0.0, 0.0]

    def test_float_scale_residual_small(self, rng):
        sch = synth.small_schema(ks=(7, 8))
        g = synth.random_graph(rng, sch, m=5, density=0.5, distinct_values=True)
        B = build_sensing(sch, 10, seed=1, scale=10 ** -0.5)
        res = verify_identity(g, B, 3)
        assert max(res) <= 1e-10
