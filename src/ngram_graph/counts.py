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
from itertools import combinations
from math import comb

import numpy as np

from .graph import MolecularGraph
from .ngram import check_int64_walks
from .schema import AttributeSchema


def subset_rank(subset) -> int:
    """Colex rank of a sorted index subset: sum of C(s_t, t+1)."""
    return sum(comb(int(s), t + 1) for t, s in enumerate(sorted(subset)))


def subset_unrank(rank: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank`; returns the sorted subset."""
    out = []
    rest = rank
    for t in range(n, 0, -1):
        # largest s with C(s, t) <= rest
        s = t - 1
        while comb(s + 1, t) <= rest:
            s += 1
        out.append(s)
        rest -= comb(s, t)
    return tuple(reversed(out))


def subsets_colex(k: int, n: int):
    """All n-subsets of range(k) in colex order."""
    return sorted(combinations(range(k), n), key=lambda t: t[::-1])


def iter_subsets_colex(k: int, n: int):
    """Lazy colex enumeration (successor form), for large C(k, n)."""
    if n == 0 or n > k:
        return
    cur = list(range(n))
    while True:
        yield tuple(cur)
        t = 0
        while t < n:
            nxt = cur[t] + 1
            limit = cur[t + 1] if t + 1 < n else k
            if nxt < limit:
                break
            t += 1
        if t == n:
            return
        cur[t] += 1
        cur[:t] = range(t)


@dataclass(frozen=True)
class CountStatistics:
    """Counts c_(1)..c_(T), each a concatenation of per-attribute blocks."""

    schema: AttributeSchema
    T: int
    blocks: tuple      # blocks[n-1][j] -> int64 vector of length C(k_j, n)
    walk_counts: tuple  # surviving walks per level

    def level(self, n: int) -> np.ndarray:
        """Concatenated c_(n) across attributes (colex within each block)."""
        return np.concatenate(self.blocks[n - 1])

    def block(self, n: int, j: int) -> np.ndarray:
        return self.blocks[n - 1][j]

    def stacked(self) -> np.ndarray:
        """c_(1); ...; c_(T) concatenated into one vector."""
        return np.concatenate([self.level(n) for n in range(1, self.T + 1)])

    def sparsity(self, n: int) -> int:
        return int(np.count_nonzero(self.level(n)))

    def level_dim(self, n: int) -> int:
        return sum(comb(k, n) for k in self.schema.cardinalities)


def level_dimension(schema: AttributeSchema, n: int) -> int:
    return sum(comb(k, n) for k in schema.cardinalities)


def _distinct_walk_scan(g: MolecularGraph, schema: AttributeSchema, T: int, F=None):
    """DFS over walks pruned as soon as some attribute repeats a value.

    Always accumulates subset counts; when F (r x m vertex embeddings) is
    given, also accumulates the element-wise walk products per level over
    exactly the same walk set.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    S = schema.num_attributes
    ks = schema.cardinalities
    blocks = [
        [np.zeros(comb(ks[j], n), dtype=np.int64) for j in range(S)]
        for n in range(1, T + 1)
    ]
    walk_counts = [0] * T
    levels = None
    base = None
    if F is not None:
        base = F.T
        levels = [np.zeros(F.shape[0], dtype=F.dtype) for _ in range(T)]

    attr = g.attr
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()

    for start in range(g.num_vertices):
        seed_vals = tuple((attr[start, j],) for j in range(S))
        prod0 = base[start] if base is not None else None
        stack = [(start, seed_vals, prod0)]
        while stack:
            v, vals, prod = stack.pop()
            n = len(vals[0])
            walk_counts[n - 1] += 1
            for j in range(S):
                blocks[n - 1][j][subset_rank(vals[j])] += 1
            if levels is not None:
                levels[n - 1] += prod
            if n == T:
                continue
            for u in nbrs[ptr[v] : ptr[v + 1]]:
                row = attr[u]
                if any(row[j] in vals[j] for j in range(S)):
                    continue
                nxt = prod * base[u] if base is not None else None
                stack.append((u, tuple(vals[j] + (row[j],) for j in range(S)), nxt))

    return blocks, walk_counts, levels


def count_statistics(
    g: MolecularGraph, schema: AttributeSchema, T: int
) -> CountStatistics:
    """Count value subsets along walks of length 1..T, both directions.

    A walk survives only if every attribute takes pairwise-distinct values
    along it; each surviving walk increments one coordinate per attribute.
    """
    blocks, walk_counts, _ = _distinct_walk_scan(g, schema, T)
    return CountStatistics(
        schema=schema,
        T=T,
        blocks=tuple(tuple(lv) for lv in blocks),
        walk_counts=tuple(walk_counts),
    )


def walk_products_distinct(
    g: MolecularGraph, schema: AttributeSchema, F: np.ndarray, T: int
):
    """Sum of element-wise walk products over the distinct-value walk set."""
    check_int64_walks(g, T, F)
    _, _, levels = _distinct_walk_scan(g, schema, T, F=F)
    return levels
