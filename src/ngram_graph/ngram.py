"""Walk-set embeddings of attributed graphs.

A level-n embedding sums, over all n-vertex walks, the element-wise product
of the walk's vertex embeddings. Levels 1..T are computed by the latent
recurrence ``X_n = (A @ X_{n-1}) * X_1``, one sparse adjacency product per
level, so the cost is linear in T and in vertices + edges. An
exponential-time enumerator over explicit walks serves as an independent
cross-check and also powers the variants that exclude walks with repeated
attribute rows (``path``) or repeated vertices (``vertex_path``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .graph import MolecularGraph
from .vertex import VertexEmbeddingMatrix, embed_vertices

VARIANTS = ("walk", "path", "vertex_path")
NORMALIZATIONS = ("none", "unit-l2", "unit-l2-level")
LEVEL_SCALES = ("none", "factorial", "count")


class GraphTooLarge(ValueError):
    """Enumeration refused; use graph_embed for large graphs."""


class WalkOverflow(ValueError):
    """Integer walk sums could leave the int64 range; use a float embedding."""


@dataclass(frozen=True)
class NGramEmbedding:
    levels: tuple          # T arrays of shape (r,)
    variant: str = "walk"
    normalization: str = "none"

    @property
    def T(self) -> int:
        return len(self.levels)

    @property
    def r(self) -> int:
        return int(self.levels[0].shape[0])

    def level(self, n: int) -> np.ndarray:
        """1-based level accessor: level(1) is the vertex-sum level."""
        return self.levels[n - 1]

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate(self.levels)


def check_int64_walks(g: MolecularGraph, T: int, F: np.ndarray | None = None):
    """Refuse integer walk sums up to level T that could wrap in int64.

    A level-n sum, partial sums included, is at most
    m * max|F| * (max|F| * maxdeg)^(n-1); walk counts are the case
    max|F| = 1. Float embeddings are not checked.
    """
    fmax = 1
    if F is not None:
        if not np.issubdtype(F.dtype, np.integer):
            return
        fmax = max(int(F.max(initial=0)), -int(F.min(initial=0)))
    deg = int(g.degrees().max(initial=0))
    if g.num_vertices * fmax * max(fmax * deg, 1) ** (T - 1) > np.iinfo(np.int64).max:
        raise WalkOverflow(f"int64 walk sums may overflow at T={T} (m={g.num_vertices}, "
                           f"max|F|={fmax}, max degree={deg})")


def _finalize(levels, counts, variant, level_scale, normalization):
    if level_scale == "factorial":
        levels = [lv / math.factorial(n + 1) for n, lv in enumerate(levels)]
    elif level_scale == "count":
        levels = [
            lv / c if c else lv.astype(np.float64)
            for lv, c in zip(levels, counts)
        ]
    if normalization == "unit-l2":
        norm = math.sqrt(sum(float(lv @ lv) for lv in levels))
        if norm > 0:
            levels = [lv / norm for lv in levels]
        else:
            levels = [np.asarray(lv, dtype=np.float64) for lv in levels]
    elif normalization == "unit-l2-level":
        scaled = []
        for lv in levels:
            norm = math.sqrt(float(lv @ lv))
            scaled.append(lv / norm if norm > 0 else np.asarray(lv, dtype=np.float64))
        levels = scaled
    return NGramEmbedding(
        levels=tuple(levels), variant=variant, normalization=normalization
    )


def graph_embed(
    g: MolecularGraph,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
    level_scale: str = "none",
    normalization: str = "none",
) -> NGramEmbedding:
    """Embed one graph up to walk length T.

    The ``walk`` variant runs the sparse adjacency recurrence. The
    exclusion variants cannot be expressed as a recurrence and fall back to
    pruned enumeration, which stays cheap because the exclusion bounds walk
    depth.

    Integer embedding matrices propagate exactly (no rounding) as long as
    ``level_scale`` and ``normalization`` stay off; :class:`WalkOverflow`
    is raised when the sums could leave the int64 range.
    """
    _check_options(T, variant, level_scale, normalization)
    F = embed_vertices(g, emb)
    check_int64_walks(g, T, F)
    if variant == "walk":
        A = g.adjacency()
        levels, counts = _recurrence_levels(A, F, T), None
        if level_scale == "count":  # walk counts: the recurrence on all-ones rows
            check_int64_walks(g, T)
            ones = np.ones((1, g.num_vertices), dtype=np.int64)
            counts = [int(c[0]) for c in _recurrence_levels(A, ones, T)]
    else:
        levels, counts = _enumerate_levels(g, F, T, variant)
    return _finalize(levels, counts, variant, level_scale, normalization)


def _check_options(T, variant, level_scale, normalization):
    if T < 1:
        raise ValueError(f"walk length T must be >= 1, got {T}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if level_scale not in LEVEL_SCALES:
        raise ValueError(f"level_scale must be one of {LEVEL_SCALES}, got {level_scale!r}")
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )


def _recurrence_levels(A: scipy.sparse.csr_array, F: np.ndarray, T: int):
    base = np.ascontiguousarray(F.T)  # (m, r) latent vectors, row per vertex
    X = base
    levels = [X.sum(axis=0)]
    for _ in range(1, T):
        X = (A @ X) * base
        levels.append(X.sum(axis=0))
    return levels


def _exclusion_ids(g: MolecularGraph, variant: str) -> np.ndarray | None:
    if variant == "path":
        # walks may not revisit an attribute row
        _, ids = np.unique(g.attr, axis=0, return_inverse=True)
        return ids.astype(np.int64).ravel()
    if variant == "vertex_path":
        return np.arange(g.num_vertices, dtype=np.int64)
    return None


def _enumerate_levels(g: MolecularGraph, F: np.ndarray, T: int, variant: str):
    m = g.num_vertices
    base = F.T
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    ids = _exclusion_ids(g, variant)
    levels = [np.zeros(F.shape[0], dtype=F.dtype) for _ in range(T)]
    counts = [0] * T
    for start in range(m):
        used0 = 0 if ids is None else 1 << int(ids[start])
        stack = [(start, 1, base[start], used0)]
        while stack:
            v, depth, prod, used = stack.pop()
            levels[depth - 1] += prod
            counts[depth - 1] += 1
            if depth == T:
                continue
            for u in nbrs[ptr[v] : ptr[v + 1]]:
                if ids is None:
                    stack.append((u, depth + 1, prod * base[u], 0))
                else:
                    bit = 1 << int(ids[u])
                    if used & bit:
                        continue
                    stack.append((u, depth + 1, prod * base[u], used | bit))
    return levels, counts


def oracle_embed(
    g: MolecularGraph,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
    cap: int = 12,
    dedup_reverse: bool = False,
    level_scale: str = "none",
    normalization: str = "none",
) -> NGramEmbedding:
    """Brute-force walk enumeration; exponential, so refuses m > cap.

    With ``dedup_reverse`` each direction pair is enumerated once and
    counted twice (palindromic sequences once), which must agree with the
    plain sum because element-wise products are order-free.
    """
    _check_options(T, variant, level_scale, normalization)
    if g.num_vertices > cap:
        raise GraphTooLarge(
            f"m={g.num_vertices} exceeds enumeration cap {cap}; use graph_embed"
        )
    F = embed_vertices(g, emb)
    check_int64_walks(g, T, F)
    if not dedup_reverse:
        levels, counts = _enumerate_levels(g, F, T, variant)
        return _finalize(levels, counts, variant, level_scale, normalization)

    base = F.T
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    ids = _exclusion_ids(g, variant)
    levels = [np.zeros(F.shape[0], dtype=F.dtype) for _ in range(T)]
    counts = [0] * T
    for start in range(g.num_vertices):
        stack = [(start, (start,), base[start])]
        while stack:
            v, seq, prod = stack.pop()
            rev = seq[::-1]
            if seq <= rev:
                weight = 1 if seq == rev else 2
                levels[len(seq) - 1] = levels[len(seq) - 1] + weight * prod
                counts[len(seq) - 1] += weight
            if len(seq) == T:
                continue
            for u in nbrs[ptr[v] : ptr[v + 1]]:
                if ids is not None:
                    tags = [int(ids[w]) for w in seq]
                    if int(ids[u]) in tags:
                        continue
                stack.append((u, seq + (u,), prod * base[u]))
    return _finalize(levels, counts, variant, level_scale, normalization)


def _embed_one(g, emb, T, variant, level_scale, normalization):
    try:
        e = graph_embed(
            g, emb, T,
            variant=variant, level_scale=level_scale, normalization=normalization,
        )
        return e.vector.astype(np.float64), None
    except (ValueError, RuntimeError) as exc:
        return None, str(exc)


def _embed_chunk(args):
    graphs, emb, T, variant, level_scale, normalization = args
    return [_embed_one(g, emb, T, variant, level_scale, normalization) for g in graphs]


def embed_corpus(
    graphs,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
    level_scale: str = "none",
    normalization: str = "none",
    seed: int | None = None,
    jobs: int = 1,
):
    """Embed a corpus into a (num_graphs x T*r) float64 matrix plus manifest.

    Rows follow input order. A graph that fails to embed gets a NaN row and
    an entry in the manifest's error map instead of aborting the run.
    With ``jobs > 1`` graphs are embedded by a process pool; the output is
    identical to the sequential run.
    """
    _check_options(T, variant, level_scale, normalization)
    r = emb.dim
    width = T * r
    rows = np.full((len(graphs), width), np.nan, dtype=np.float64)
    errors: dict[int, str] = {}
    ids = [
        g.graph_id if g.graph_id is not None else str(i) for i, g in enumerate(graphs)
    ]
    if jobs > 1 and len(graphs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk_size = max(1, (len(graphs) + jobs - 1) // jobs)
        chunks = [graphs[i : i + chunk_size] for i in range(0, len(graphs), chunk_size)]
        work = [(c, emb, T, variant, level_scale, normalization) for c in chunks]
        results = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_embed_chunk, work):
                results.extend(part)
    else:
        results = [
            _embed_one(g, emb, T, variant, level_scale, normalization) for g in graphs
        ]
    for i, (vec, err) in enumerate(results):
        if err is None:
            rows[i] = vec
        else:
            errors[i] = err
    manifest = {
        "kind": "feature-matrix",
        "num_graphs": len(graphs),
        "feature_width": width,
        "r": r,
        "T": T,
        "variant": variant,
        "level_scale": level_scale,
        "normalization": normalization,
        "w_provenance": emb.provenance,
        "schema_fingerprint": emb.schema.fingerprint,
        "schema": emb.schema.to_dict(),
        "seed": seed,
        "ids": ids,
        "errors": {str(k): v for k, v in errors.items()},
    }
    return rows, manifest


def feature_column_names(T: int, r: int) -> list[str]:
    return [f"f_{n}_{i}" for n in range(1, T + 1) for i in range(r)]
