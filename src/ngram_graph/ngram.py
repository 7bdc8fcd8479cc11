"""Walk-set embeddings of attributed graphs.

A level-n embedding sums, over all n-vertex walks, the element-wise product
of the walk's vertex embeddings. One engine embeds a whole corpus: batches
of graphs are stacked into one block-diagonal CSR adjacency, with their
vertex rows as one one-hot product. ``walk`` runs the recurrence
``X_n = (A @ X_{n-1}) * X_1``, one sparse product per level, summed per
graph. ``path`` (no attribute row twice) and ``vertex_path`` (no vertex
twice) run :func:`expand_walks`, a level-synchronous frontier that carries
running products. A row never depends on its batch mates.
:func:`oracle_embed` is an independent depth-first enumerator, kept as the
reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import MolecularGraph, ones_csr, stack_graphs
from .vertex import VertexEmbeddingMatrix, _off_schema, check_schema, vertex_rows

VARIANTS = ("walk", "path", "vertex_path")
NORMALIZATIONS = ("none", "unit-l2")
LEVEL_SCALES = ("none", "factorial", "count")
# Entries (float64-sized) per stacked or frontier array, which set the batch
# size: 1 MiB arrays stay in cache and keep the engine's peak memory small.
BATCH_ENTRIES = 1 << 17


class GraphTooLarge(ValueError):
    """A graph over :func:`oracle_embed`'s enumeration cap (``ngg
    oracle-check --cap``); :func:`embed_corpus` takes graphs of any size."""


class WalkOverflow(ValueError):
    """Integer walk sums could leave the int64 range; use a float embedding."""


@dataclass(frozen=True)
class NGramEmbedding:
    levels: tuple  # T arrays of shape (r,)

    @property
    def r(self) -> int:  # perfbench's traced walk counter reads it
        return int(self.levels[0].shape[0])

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


def _admit(g, emb, T, variant, level_scale):
    """Raise the int64 overflow that keeps g, a graph on the schema, out of the engine."""
    if np.issubdtype(emb.matrix.dtype, np.integer):
        check_int64_walks(g, T, vertex_rows(g.attr, emb))
    if variant == "walk" and level_scale == "count":
        check_int64_walks(g, T)


def _finalize(L, C, level_scale, normalization):
    """Level scaling, then normalization, of (G, T, r) sums with (G, T) counts."""
    T = L.shape[1]
    if level_scale == "factorial":
        L = L / np.array([float(math.factorial(n)) for n in range(1, T + 1)])[:, None]
    elif level_scale == "count":
        L = np.where(C[:, :, None] > 0, L / np.maximum(C, 1)[:, :, None], L)
    if normalization == "unit-l2":
        sq = np.square(L, dtype=np.float64).sum(axis=2)  # an int64 square would wrap
        norm = np.sqrt(np.cumsum(sq, axis=1)[:, -1:])  # summed in level order
        L = np.where(norm[:, :, None] > 0, L / np.where(norm > 0, norm, 1.0)[:, :, None],
                     L.astype(np.float64))
        L[~np.isfinite(norm[:, 0])] = np.nan  # an overflowed norm would scale its row to 0
    return L


# -- the walk engine ---------------------------------------------------------------


def _pool(seg, n):
    """Sparse (n x len(seg)) matrix summing rows by their nondecreasing
    segment ids; a product with it adds each segment's rows in order."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=n))])
    return ones_csr(indptr, np.arange(seg.size), seg.size)


def walk_bound(indptr, indices, T, cap):
    """Per vertex, its largest count of non-backtracking walks at levels
    1..T, clipped to ``[1, cap]``: a rule with a key column refuses the
    vertex a walk just left, so this bounds each level of its frontier. Per
    directed entry, ``e_1 = 1`` and ``e_k(u->v) = S_{k-1}(v) - e_{k-1}(v->u)``
    (the Hashimoto recurrence), where ``S_k(u)``, the sum of u's entries,
    counts the (k+1)-vertex walks from u. Clipping ``e_k`` at ``cap`` keeps
    ``min(true, cap)``, as the subtraction removes exactly one term."""
    m = indptr.size - 1
    src = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    rev = np.searchsorted(src * m + indices, indices * m + src)  # v->u of each u->v
    e = np.ones(indices.size, dtype=np.int64)
    bound = np.ones(m, dtype=np.int64)
    for _ in range(1, T):
        cum = np.concatenate([[0], np.cumsum(e)])
        S = cum[indptr[1:]] - cum[indptr[:-1]]
        bound = np.maximum(bound, np.minimum(S, cap))
        e = np.minimum(S[indices] - e[rev], cap)
    return bound


def pack(costs, budget, breaks=()):
    """Boundaries cutting ``costs`` into consecutive runs whose total stays
    within ``budget``; an item over the budget runs alone, and no run
    crosses a boundary in ``breaks``."""
    cum = np.concatenate([[0], np.cumsum(costs)])
    stops = np.unique(np.append(breaks, len(costs)))
    cuts = [0]
    while cuts[-1] < len(costs):
        lo = cuts[-1]
        fit = int(np.searchsorted(cum, cum[lo] + budget, side="right")) - 1
        cuts.append(min(max(fit, lo + 1), int(stops[np.searchsorted(stops, lo, side="right")])))
    return np.array(cuts, dtype=np.int64)


def expand_walks(indptr, indices, keys, starts, T):
    """Level-synchronous enumeration of the walks that never repeat a key.

    Yields ``(n, parent, end, hist)`` for n = 1..T: the n-vertex walks from
    ``starts`` as their prefix's index in the previous level (``None`` at
    n = 1), end vertex and (walks x n x key-columns) key history. A step to
    u is refused when a key column of u equals the same column at a vertex
    on the walk. Walks stay ordered by start, then by CSR position."""
    end = np.asarray(starts, dtype=np.int64)
    hist = keys[end][:, None, :]
    yield 1, None, end, hist
    for n in range(2, T + 1):
        first, deg = indptr[end], indptr[end + 1] - indptr[end]
        parent = np.repeat(np.arange(end.size), deg)
        nbr = indices[np.arange(parent.size) + np.repeat(first - (np.cumsum(deg) - deg), deg)]
        new = keys[nbr]
        prefix = hist[parent]
        keep = ~(prefix == new[:, None, :]).any(axis=(1, 2))
        parent, end = parent[keep], nbr[keep]
        hist = np.concatenate([prefix[keep], new[keep][:, None, :]], axis=1)
        yield n, parent, end, hist


def _exclusion_keys(attr, variant):
    """Key column for the exclusion variants: vertex id, or for ``path`` the
    attribute row's rank in lexicographic order (``np.unique``'s row ids)."""
    if variant != "path":
        return np.arange(attr.shape[0], dtype=np.int64).reshape(-1, 1)
    order = np.lexsort(attr.T[::-1])  # the first column sorts first
    new = np.ones(attr.shape[0], dtype=np.int64)
    new[1:] = np.diff(attr[order], axis=0).any(axis=1)
    keys = np.empty_like(new)
    keys[order] = np.cumsum(new) - 1
    return keys.reshape(-1, 1)


def unit_cuts(indptr, indices, offsets, T, width):
    """Vertex boundaries and costs (frontier rows per level, at most) of the
    units for :func:`expand_walks`: whole graphs, or slices of start vertices
    that keep a frontier within ``BATCH_ENTRIES // width`` rows unless one
    vertex alone passes it. A graph whose :func:`walk_bound` sum fits stays
    whole; any other graph is packed by its per-vertex bound."""
    rows = max(1, BATCH_ENTRIES // width)
    cost = walk_bound(indptr, indices, T, rows)  # this clip moves no cut below
    cum = np.concatenate([[0], np.cumsum(cost)])
    cuts = [offsets]
    for gi in np.flatnonzero(cum[offsets[1:]] - cum[offsets[:-1]] > rows):
        cuts.append(offsets[gi] + pack(cost[offsets[gi] : offsets[gi + 1]], rows))
    ub = np.unique(np.concatenate(cuts))
    return ub, np.diff(cum[ub])


def _levels(graphs, emb, T, variant, counts=False):
    """Level sums (G, T, r) in the embedding's dtype and walk counts (G, T),
    zero unless ``counts`` is set. Units of work, whole graphs
    or the start-vertex slices of :func:`unit_cuts`, are packed into batches
    by their walk bound, enumerated once and summed on their own; each unit
    sum is added into its graph's row in unit order, so a row never depends
    on its batch. A ``walk`` batch holds each graph once, as one unit, so
    its sums are added by plain fancy indexing; ``np.add.at``, which applies
    repeated indices in order, remains only in the exclusion variants,
    where a sliced graph's units repeat it. A sliced graph's units batch
    apart from other graphs', so its batches share one vertex span, whose
    rows and CSR slices are built once."""
    indptr, indices, attr, offsets = stack_graphs(graphs)
    G, r = len(graphs), emb.dim
    width = r if variant == "walk" else max(r, T)
    if variant == "walk":
        ub = np.unique(offsets)  # unit boundaries
        cost = np.diff(ub)
    else:
        keys = _exclusion_keys(attr, variant)
        ub, cost = unit_cuts(indptr, indices, offsets, T, width)
    unit_graph = np.searchsorted(offsets, ub[:-1], side="right") - 1
    L = np.zeros((G, T, r), dtype=emb.matrix.dtype)
    C = np.zeros((G, T), dtype=np.int64)

    first = np.searchsorted(unit_graph, np.arange(G + 1))  # each graph's first unit
    sliced = np.flatnonzero(np.diff(first) > 1)
    batches = pack(cost, max(1, BATCH_ENTRIES // width),
                   np.concatenate([first[sliced], first[sliced + 1]]))
    span = None
    for u0, u1 in zip(batches[:-1], batches[1:]):
        to = unit_graph[u0:u1]
        v0, v1 = offsets[to[0]], offsets[to[-1] + 1]
        if span != (v0, v1):
            span = (v0, v1)
            ptr, idx = indptr[v0 : v1 + 1] - indptr[v0], indices[indptr[v0] : indptr[v1]] - v0
            base = vertex_rows(attr[v0:v1], emb)
        seg = np.repeat(np.arange(u1 - u0), np.diff(ub[u0 : u1 + 1]))
        if variant == "walk":  # walk counts: the same recurrence on all-ones rows
            A, P = ones_csr(ptr, idx, v1 - v0), _pool(seg, u1 - u0)
            ones = np.ones((v1 - v0, 1), dtype=np.int64)
            for X1, out in [(base, L), (ones, C[:, :, None])][: 1 + counts]:
                X = X1
                out[to, 0] += P @ X
                for n in range(1, T):
                    X = A @ X
                    X *= X1
                    out[to, n] += P @ X
            continue
        starts = np.arange(ub[u0], ub[u1]) - v0
        for n, parent, end, _ in expand_walks(ptr, idx, keys[v0:v1], starts, T):
            if parent is None:
                prod = base[end]
            else:
                prod = prod[parent]
                prod *= base[end]
                seg = seg[parent]
            np.add.at(L[:, n - 1], to, _pool(seg, u1 - u0) @ prod)
            if counts:
                np.add.at(C[:, n - 1], to, np.bincount(seg, minlength=u1 - u0))
    return L, C


def graph_embed(
    g: MolecularGraph,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
) -> NGramEmbedding:
    """The raw level sums of one graph up to walk length T, in the
    embedding's dtype: the corpus engine on one graph, unscaled and
    unnormalized (:func:`embed_corpus` does both). Integer embedding
    matrices propagate exactly; :class:`WalkOverflow` is raised when the
    sums could leave the int64 range.
    """
    _check_options(T, variant, "none", "none")
    check_schema(g, emb)
    _admit(g, emb, T, variant, "none")
    L, _ = _levels([g], emb, T, variant)
    return NGramEmbedding(levels=tuple(L[0]))


def oracle_embed(
    g: MolecularGraph,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
    cap: int = 12,
) -> NGramEmbedding:
    """The raw level sums of one graph by brute-force depth-first walk
    enumeration, every walk once from its start vertex; exponential, so it
    refuses m > cap. The reference the engine is tested against, it shares
    no code with it: it sums its own vertex rows in schema order, and
    ``path`` tags a vertex by its attribute row, ``vertex_path`` by its id.
    """
    _check_options(T, variant, "none", "none")
    if g.num_vertices > cap:
        raise GraphTooLarge(f"m={g.num_vertices} exceeds enumeration cap {cap}; "
                            "use embed_corpus")
    check_schema(g, emb)
    base = np.zeros((g.num_vertices, emb.dim), dtype=emb.matrix.dtype)
    for j, offset in enumerate(emb.schema.offsets):
        base += emb.matrix.T[g.attr[:, j] + offset]
    check_int64_walks(g, T, base)
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    tags = {"walk": None, "path": list(map(tuple, g.attr.tolist())),
            "vertex_path": range(g.num_vertices)}[variant]
    levels = np.zeros((T, base.shape[1]), dtype=base.dtype)
    for start in range(g.num_vertices):
        stack = [((start,), base[start])]
        while stack:
            seq, prod = stack.pop()
            n = len(seq)
            levels[n - 1] += prod
            if n == T:
                continue
            seen = set() if tags is None else {tags[w] for w in seq}
            for u in nbrs[ptr[seq[-1]] : ptr[seq[-1] + 1]]:
                if tags is None or tags[u] not in seen:
                    stack.append((seq + (u,), prod * base[u]))
    return NGramEmbedding(levels=tuple(levels))


def embed_corpus(
    graphs,
    emb: VertexEmbeddingMatrix,
    T: int,
    variant: str = "walk",
    level_scale: str = "none",
    normalization: str = "none",
):
    """Embed a corpus into a (num_graphs x T*r) float64 matrix plus manifest.

    Rows follow input order. Graphs are checked (schema, attribute and int64
    ranges); one that fails gets a NaN row and an entry in the manifest's
    error map instead of aborting the run. The rest go through the batched
    engine: the ``walk`` recurrence on a stacked adjacency, the frontier
    expander for ``path`` and ``vertex_path``; a float row that overflows
    to a non-finite entry fails the same way. A row never depends on which
    graphs share its batch.
    """
    _check_options(T, variant, level_scale, normalization)
    r = emb.dim
    width = T * r
    ids = [str(i) if g.graph_id is None else g.graph_id for i, g in enumerate(graphs)]
    # one schema check over all tables; per graph, to name one, only if it fails
    off = _off_schema(graphs, emb)
    good, errors = [], {}
    for i, g in enumerate(graphs):
        try:
            if off[i]:
                check_schema(g, emb)
            _admit(g, emb, T, variant, level_scale)
            good.append(i)
        except (ValueError, RuntimeError) as exc:
            errors[i] = str(exc)
    rows = np.full((len(graphs), width), np.nan)
    if good:
        with np.errstate(over="ignore", invalid="ignore"):  # reported per row below
            L, C = _levels([graphs[i] for i in good], emb, T, variant,
                           counts=level_scale == "count")
            X = _finalize(L, C, level_scale, normalization).reshape(len(good), -1)
        rows[good] = X
        overflowed = np.asarray(good)[~np.isfinite(X).all(axis=1)]
        rows[overflowed] = np.nan
        errors.update(dict.fromkeys(overflowed.tolist(),
                                    f"float64 walk features overflow at T={T}"))
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
        "ids": ids,
        "errors": {str(k): v for k, v in sorted(errors.items())},
    }
    return rows, manifest


def feature_column_names(T: int, r: int) -> list[str]:
    return [f"f_{n}_{i}" for n in range(1, T + 1) for i in range(r)]
