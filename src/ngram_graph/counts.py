"""Per-attribute co-occurrence counts over walks.

For each walk length n and attribute j, a sparse vector of dimension
C(k_j, n) counts how often each n-subset of attribute-j values occurs along
a walk. Walks where any attribute repeats a value are excluded (the subset
index would not exist for them), which also forces the walk to visit
distinct vertices. Subsets are indexed in colexicographic order via the
combinatorial number system, so the vectors are portable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .graph import MolecularGraph
from .ngram import check_int64_walks, expand_walks, unit_cuts
from .schema import AttributeSchema


@lru_cache(maxsize=64)
def subset_table(k: int, n: int) -> np.ndarray:
    """All n-subsets of range(k) in colex order as a read-only (C(k, n) x n)
    int64 array: row i is the sorted subset of rank i. For each top element
    t in turn, the first C(t, n-1) colex (n-1)-subsets are followed by t."""
    table = np.zeros((1, 0), dtype=np.int64)
    for size in range(1, n + 1):
        tops = np.arange(size - 1, k, dtype=np.int64)
        reps = np.array([comb(int(t), size - 1) for t in tops], dtype=np.int64)
        rows = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        table = np.concatenate([table[rows], np.repeat(tops, reps)[:, None]], axis=1)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class CountStatistics:
    """Counts c_(1)..c_(T), each a concatenation of per-attribute blocks."""

    schema: AttributeSchema
    T: int
    blocks: tuple      # blocks[n-1][j] -> int64 vector of length C(k_j, n)
    walk_counts: tuple  # surviving walks per level
    products: tuple | None = None  # per-level walk-product sums, if F was given

    def level(self, n: int) -> np.ndarray:
        """Concatenated c_(n) across attributes (colex within each block)."""
        return np.concatenate(self.blocks[n - 1])


def level_dimension(schema: AttributeSchema, n: int) -> int:
    return sum(comb(k, n) for k in schema.cardinalities)


@lru_cache(maxsize=64)
def _binomials(k: int, T: int) -> np.ndarray:
    """C(v, t) for v < k, t <= T, as a read-only (k x T+1) int64 table."""
    table = np.array([[comb(v, t) for t in range(T + 1)] for v in range(k)], dtype=np.int64)
    table.setflags(write=False)
    return table.reshape(k, T + 1)


def count_statistics(g: MolecularGraph, schema: AttributeSchema, T: int,
                     F: np.ndarray | None = None) -> CountStatistics:
    """Count value subsets along walks of length 1..T, both directions.

    A walk survives only if every attribute takes pairwise-distinct values
    along it; each surviving walk increments one coordinate per attribute,
    the colex rank of its value set. Given vertex features F (m x r, row i
    = W h_i), the same pass also sums the element-wise walk products of F
    over the surviving walks, level by level, into ``products``.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    ks = schema.cardinalities
    blocks = [[np.zeros(comb(k, n), dtype=np.int64) for k in ks] for n in range(1, T + 1)]
    walk_counts = [0] * T
    width = T * len(ks)
    if F is not None:
        check_int64_walks(g, T, F)
        products = [np.zeros(F.shape[1], dtype=F.dtype) for _ in range(T)]
        width = max(width, F.shape[1])
    # walks on which no attribute column repeats, in units sized for ``width``
    ub, _ = unit_cuts(g.indptr, g.indices, np.array([0, g.num_vertices]), T, width)
    walks = (level for lo, hi in zip(ub[:-1], ub[1:])
             for level in expand_walks(g.indptr, g.indices, g.attr, np.arange(lo, hi), T))
    for n, parent, end, hist in walks:
        walk_counts[n - 1] += hist.shape[0]
        for j, k in enumerate(ks):
            values = np.sort(hist[:, :, j], axis=1)
            ranks = _binomials(k, T)[values, np.arange(1, n + 1)].sum(axis=1)
            blocks[n - 1][j] += np.bincount(ranks, minlength=blocks[n - 1][j].size)
        if F is not None:
            prod = F[end] if parent is None else prod[parent] * F[end]
            products[n - 1] += prod.sum(axis=0)
    return CountStatistics(schema=schema, T=T, blocks=tuple(tuple(lv) for lv in blocks),
                           walk_counts=tuple(walk_counts),
                           products=None if F is None else tuple(products))
