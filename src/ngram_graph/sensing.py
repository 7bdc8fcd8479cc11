"""Block-diagonal sensing construction and the walk-count identity.

With one Rademacher block U^j per attribute, its rows in proportion to the
attribute's cardinality, arranged block-diagonally into W, the level-n
embedding of the distinct-value walk set equals a linear image of the
co-occurrence counts: each count coordinate's sensing column is the
element-wise product of the n base columns named by its subset. The level
operators apply those n-way column products without storing them: they
build only the columns an application needs, and pair correlations come
from one k x k Gram product per block.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb

import numpy as np

from .counts import count_statistics, subset_table
from .graph import MolecularGraph
from .schema import AttributeSchema
from .vertex import VertexEmbeddingMatrix, check_schema, vertex_rows

MATERIALIZE_CAP = 10_000_000  # max r * columns entries for a dense level operator


class SensingError(ValueError):
    pass


def allocate_rows(schema: AttributeSchema, r: int):
    """Split r rows across attribute blocks in proportion to their
    cardinalities; every block gets at least one."""
    S = schema.num_attributes
    if r < S:
        raise SensingError(f"need r >= S, got r={r} < S={S}")
    ks = schema.cardinalities
    base = [max(1, (r * k) // sum(ks)) for k in ks]
    # trim if the max(1, .) bumps overshot, then hand leftovers to largest blocks
    order = sorted(range(S), key=lambda j: (-ks[j], j))
    i = 0
    while sum(base) > r:
        j = order[i % S]
        if base[j] > 1:
            base[j] -= 1
        i += 1
    i = 0
    while sum(base) < r:
        base[order[i % S]] += 1
        i += 1
    return tuple(base)


@dataclass(frozen=True)
class LevelOperator:
    """Block-diagonal n-way column product operator for one level, matrix-free.

    Column S of block j is the element-wise product of the columns of U^j
    named by the colex subset S. No block is stored: ``matvec`` builds only
    the columns of the nonzero coefficients, and ``correlations`` reads pairs
    (n = 2) off one k_j x k_j product U^T diag(res) U per block and gathers
    higher levels in column chunks. ``column`` builds one column straight
    into its block's row span, for greedy pursuit's one pick per step.
    ``materialize`` builds the dense operator for soft thresholding,
    up to ``MATERIALIZE_CAP`` entries. Row and column layouts are read off
    the blocks: block j's rows follow block j - 1's.
    """

    blocks: tuple            # base blocks U^j, each (r_j, k_j)
    n: int

    @cached_property
    def row_offsets(self) -> tuple:
        """Each block's first row, then the operator's row count."""
        return tuple(accumulate((U.shape[0] for U in self.blocks), initial=0))

    @cached_property
    def col_dims(self) -> tuple:
        return tuple(comb(U.shape[1], self.n) for U in self.blocks)

    @cached_property
    def col_offsets(self) -> tuple:
        return tuple(accumulate(self.col_dims, initial=0))[:-1]

    @property
    def shape(self) -> tuple:
        return (self.row_offsets[-1], sum(self.col_dims))

    @cached_property
    def _transposed(self) -> tuple:
        """U^T per block, contiguous, for the row gathers of ``_block_columns``."""
        return tuple(np.ascontiguousarray(U.T) for U in self.blocks)

    def _block_columns(self, j: int, cols=slice(None)) -> np.ndarray:
        """Columns ``cols`` of block j, dense (r_j x len(cols)): row gathers
        on U^T, multiplied in subset order."""
        UT = self._transposed[j]
        subsets = subset_table(UT.shape[0], self.n)[cols]
        out = UT[subsets[:, 0]]
        for t in range(1, self.n):
            out *= UT[subsets[:, t]]
        return out.T

    def materialize(self) -> np.ndarray:
        """Full dense operator; refuses beyond ``MATERIALIZE_CAP`` entries."""
        entries = self.shape[0] * self.shape[1]
        if entries > MATERIALIZE_CAP:
            raise SensingError(
                f"level operator has {entries} entries, over cap {MATERIALIZE_CAP}; "
                "use the matrix-free interface"
            )
        return self.columns(np.arange(self.shape[1]))

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """Apply to c, building only the columns of its nonzero entries."""
        nz = np.flatnonzero(c)
        return self.columns(nz) @ c[nz]

    def correlations(self, res: np.ndarray) -> np.ndarray:
        """Transpose-apply: one correlation per column, without full storage."""
        out = np.empty(self.shape[1], dtype=np.float64)
        for j, (c0, r0, U) in enumerate(zip(self.col_offsets, self.row_offsets, self.blocks)):
            seg = res[r0 : r0 + U.shape[0]]
            if self.n == 2:  # column (a, b) correlates to entry (a, b) of U^T diag(seg) U
                sub = subset_table(U.shape[1], 2)
                out[c0 : c0 + sub.shape[0]] = ((U.T * seg) @ U)[sub[:, 0], sub[:, 1]]
                continue
            for start in range(0, self.col_dims[j], 4096):  # column chunks
                piece = self._block_columns(j, slice(start, start + 4096))
                out[c0 + start : c0 + start + piece.shape[1]] = piece.T @ seg
        return out

    def columns(self, cols) -> np.ndarray:
        """The operator's columns ``cols`` as a dense (rows x len(cols))
        array in the blocks' dtype."""
        cols = np.asarray(cols, dtype=np.int64)
        dtype = np.result_type(*(U.dtype for U in self.blocks))
        out = np.zeros((self.shape[0], cols.size), dtype=dtype)
        for j, (c0, r0, U) in enumerate(zip(self.col_offsets, self.row_offsets, self.blocks)):
            mine = (cols >= c0) & (cols < c0 + self.col_dims[j])
            out[r0 : r0 + U.shape[0], mine] = self._block_columns(j, cols[mine] - c0)
        return out

    def column(self, c: int) -> np.ndarray:
        """Column c alone, equal to ``columns([c])[:, 0]``: its block found
        by bisection on the column offsets, the rows of U^T its subset names
        multiplied in subset order into the block's row span."""
        j = bisect_right(self.col_offsets, c) - 1  # past any block of no columns
        UT, r0 = self._transposed[j], self.row_offsets[j]
        subset = subset_table(UT.shape[0], self.n)[c - self.col_offsets[j]]
        col = UT[subset[0]]
        for t in subset[1:]:
            col = col * UT[t]
        out = np.zeros(self.shape[0], dtype=np.result_type(*(U.dtype for U in self.blocks)))
        out[r0 : r0 + UT.shape[1]] = col
        return out

    def column_norms(self) -> np.ndarray:
        """Exact per-column norms (constant within a block for +-c entries)."""
        out = np.empty(self.shape[1], dtype=np.float64)
        coffs = self.col_offsets
        for j, U in enumerate(self.blocks):
            c = float(np.abs(U[0, 0])) if U.size else 1.0
            norm = (c ** self.n) * np.sqrt(U.shape[0])
            out[coffs[j] : coffs[j] + self.col_dims[j]] = norm
        return out


@dataclass(frozen=True)
class BlockSensingMatrix:
    schema: AttributeSchema
    blocks: tuple          # U^j, each (r_j, k_j)
    scale: float
    seed: int | None

    def embedding(self) -> VertexEmbeddingMatrix:
        """The block-diagonal r x K vertex embedding matrix, which is the
        level-1 operator: block j's columns are attribute j's slots."""
        W = self.operator(1).columns(np.arange(self.schema.total_width))
        prov = {"kind": "random-rademacher-blockdiag", "seed": self.seed, "scale": self.scale}
        return VertexEmbeddingMatrix(matrix=W, schema=self.schema, provenance=prov)

    def operator(self, n: int) -> LevelOperator:
        return LevelOperator(blocks=self.blocks, n=n)


def build_sensing(
    schema: AttributeSchema,
    r: int,
    seed: int | None = 0,
    scale: float = 1.0,
) -> BlockSensingMatrix:
    """Sample per-attribute Rademacher blocks, rows split by
    :func:`allocate_rows`.

    Integer scale keeps the blocks in int64 so downstream identities are
    exact; fractional scales produce float64 blocks.
    """
    rows = allocate_rows(schema, r)
    rng = np.random.default_rng(seed)
    # choice draws its indices from the population size alone, so drawing
    # from the scaled signs gives the stream and the entries of scale * +-1
    if float(scale).is_integer():
        signs = int(scale) * np.array((-1, 1), dtype=np.int64)
    else:
        signs = scale * np.array((-1.0, 1.0))
    blocks = [rng.choice(signs, size=(r_j, k_j))
              for r_j, k_j in zip(rows, schema.cardinalities)]
    return BlockSensingMatrix(
        schema=schema,
        blocks=tuple(blocks),
        scale=float(scale),
        seed=seed,
    )


def verify_identity(g: MolecularGraph, B: BlockSensingMatrix, T: int):
    """Max |level embedding - operator @ counts| per level, n = 1..T.

    Uses the distinct-value walk set on both sides; with integer blocks the
    residuals are exactly zero. One walk enumeration yields both sides.
    """
    emb = B.embedding()
    check_schema(g, emb)
    stats = count_statistics(g, B.schema, T, vertex_rows(g.attr, emb))
    residuals = []
    for n in range(1, T + 1):
        lhs = stats.products[n - 1]
        rhs = B.operator(n).matvec(stats.level(n))
        residuals.append(float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)
    return residuals
