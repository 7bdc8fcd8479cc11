"""Vertex-attributed graph data model and canonical JSON interchange.

Graphs are immutable after construction. The edge relation is undirected
and binary: it is held both as a canonical edge list (u < v, sorted, for
iteration) and as per-vertex bitset rows (for O(1) membership checks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .schema import AttributeSchema


class GraphError(ValueError):
    """Raised for malformed graph construction or interchange documents."""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


@dataclass(frozen=True)
class MolecularGraph:
    """An attributed graph: m x S table of value indices plus edges.

    ``edges`` keeps pairs exactly as given (so validation can report
    self-loops and duplicates); use :meth:`canonical_edges` for the
    deduplicated u < v list. ``raw_adjacency`` is only set when the graph
    was built from a dense matrix and is consulted by validation.
    """

    num_vertices: int
    attr: np.ndarray
    edges: np.ndarray
    label: float | None = None
    graph_id: str | None = None
    schema_fingerprint: str | None = None
    raw_adjacency: np.ndarray | None = None
    _bitrows: tuple = field(init=False, repr=False, compare=False)
    _canonical: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        attr = np.asarray(self.attr, dtype=np.int64)
        if attr.ndim != 2:
            attr = attr.reshape(self.num_vertices, -1)
        if attr.shape[0] != self.num_vertices:
            raise GraphError(
                f"attribute table has {attr.shape[0]} rows for {self.num_vertices} vertices"
            )
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        attr.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "edges", edges)

        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        in_range = (lo >= 0) & (hi < self.num_vertices)
        proper = np.unique(np.stack([lo[in_range], hi[in_range]], axis=1), axis=0)
        if proper.size == 0:
            proper = np.empty((0, 2), dtype=np.int64)
        proper = proper[proper[:, 0] != proper[:, 1]]
        proper.setflags(write=False)
        object.__setattr__(self, "_canonical", proper)

        rows = [0] * self.num_vertices
        for u, v in proper:
            rows[u] |= 1 << int(v)
            rows[v] |= 1 << int(u)
        object.__setattr__(self, "_bitrows", tuple(rows))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_adjacency(cls, attr, adjacency, **kw) -> "MolecularGraph":
        """Build from a dense 0/1 matrix; the raw matrix is kept for validation."""
        adjacency = np.asarray(adjacency)
        attr = np.asarray(attr, dtype=np.int64)
        m = attr.shape[0]
        iu, iv = np.nonzero(np.triu(adjacency, k=1))
        edges = np.stack([iu, iv], axis=1) if iu.size else np.empty((0, 2), dtype=np.int64)
        return cls(num_vertices=m, attr=attr, edges=edges, raw_adjacency=adjacency, **kw)

    # -- basic structure -------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._canonical.shape[0])

    def canonical_edges(self) -> np.ndarray:
        """Deduplicated in-range edges with u < v, sorted lexicographically."""
        return self._canonical

    def neighbors(self, i: int) -> np.ndarray:
        e = self._canonical
        return np.concatenate([e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._bitrows[u] >> v) & 1)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.num_vertices, dtype=np.int64)
        e = self._canonical
        np.add.at(d, e[:, 0], 1)
        np.add.at(d, e[:, 1], 1)
        return d

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        e = self._canonical
        a[e[:, 0], e[:, 1]] = 1
        a[e[:, 1], e[:, 0]] = 1
        return a

    def replace(self, **kw) -> "MolecularGraph":
        base = dict(
            num_vertices=self.num_vertices,
            attr=self.attr,
            edges=self.edges,
            label=self.label,
            graph_id=self.graph_id,
            schema_fingerprint=self.schema_fingerprint,
            raw_adjacency=self.raw_adjacency,
        )
        base.update(kw)
        return MolecularGraph(**base)

    def structurally_equal(self, other: "MolecularGraph") -> bool:
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.attr, other.attr)
            and np.array_equal(self._canonical, other._canonical)
            and self.label == other.label
            and self.graph_id == other.graph_id
        )


def validate_graph(g: MolecularGraph, schema: AttributeSchema) -> ValidationReport:
    """Check every graph invariant under the schema.

    Violations are returned as data, one entry per problem; an empty report
    means the graph is valid.
    """
    bad: list[str] = []
    m = g.num_vertices
    if m < 0:
        bad.append(f"negative vertex count {m}")

    if g.attr.shape[1] != schema.num_attributes:
        bad.append(
            f"attribute table width {g.attr.shape[1]} != schema S={schema.num_attributes}"
        )
    else:
        ks = schema.cardinalities
        for j in range(schema.num_attributes):
            col = g.attr[:, j]
            for i in np.nonzero((col < 0) | (col >= ks[j]))[0]:
                bad.append(
                    f"attr index out of range: attr[{i}][{j}]={col[i]} with k_{j}={ks[j]}"
                )

    edges = np.asarray(g.edges)
    for idx in range(edges.shape[0]):
        u, v = int(edges[idx, 0]), int(edges[idx, 1])
        if u == v:
            bad.append(f"self-loop@{u}")
        if not (0 <= u < m) or not (0 <= v < m):
            bad.append(f"edge ({u},{v}) endpoint out of range for m={m}")
    pairs = {}
    for idx in range(edges.shape[0]):
        key = (min(edges[idx]), max(edges[idx]))
        pairs[key] = pairs.get(key, 0) + 1
    for (u, v), cnt in sorted(pairs.items()):
        if cnt > 1 and u != v:
            bad.append(f"duplicate edge ({u},{v}) listed {cnt} times")

    if g.raw_adjacency is not None:
        a = np.asarray(g.raw_adjacency)
        if a.shape != (m, m):
            bad.append(f"adjacency shape {a.shape} != ({m},{m})")
        else:
            if not np.array_equal(a, a.T):
                bad.append("adjacency not symmetric")
            if np.any(np.diag(a) != 0):
                hits = np.nonzero(np.diag(a))[0]
                bad.extend(f"self-loop@{i}" for i in hits)
            if not np.isin(a, (0, 1)).all():
                bad.append("adjacency entries outside {0,1}")

    return ValidationReport(tuple(bad))


def one_hot(g: MolecularGraph, schema: AttributeSchema, i: int) -> np.ndarray:
    """Concatenated one-hot encoding of vertex i: one active index per block."""
    if not 0 <= i < g.num_vertices:
        raise GraphError(f"vertex index {i} out of range for m={g.num_vertices}")
    h = np.zeros(schema.total_width, dtype=np.int64)
    h[np.asarray(schema.offsets, dtype=np.int64) + g.attr[i]] = 1
    return h


def permute(g: MolecularGraph, pi) -> MolecularGraph:
    """Relabel vertices by permutation pi: new index pi[i] holds old vertex i."""
    pi = np.asarray(pi, dtype=np.int64)
    m = g.num_vertices
    if pi.shape != (m,) or not np.array_equal(np.sort(pi), np.arange(m)):
        raise GraphError("pi is not a bijection on [0, m)")
    new_attr = np.empty_like(g.attr)
    new_attr[pi] = g.attr
    new_edges = pi[g.edges] if g.edges.size else g.edges
    raw = None
    if g.raw_adjacency is not None:
        inv = np.empty_like(pi)
        inv[pi] = np.arange(m)
        raw = g.raw_adjacency[np.ix_(inv, inv)]
    return MolecularGraph(
        num_vertices=m,
        attr=new_attr,
        edges=new_edges,
        label=g.label,
        graph_id=g.graph_id,
        schema_fingerprint=g.schema_fingerprint,
        raw_adjacency=raw,
    )


def inverse_permutation(pi) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.int64)
    inv = np.empty_like(pi)
    inv[pi] = np.arange(pi.shape[0])
    return inv


# -- JSON graph documents -----------------------------------------------------
#
# {"schema_id": ..., "id": ..., "num_vertices": m,
#  "attributes": [[...], ...], "edges": [[u, v], ...], "label": ...}
#
# Canonical form: exactly this field order, edges listed once with u < v in
# lexicographic order, label omitted when absent, compact separators.

_DOC_FIELDS = ("schema_id", "id", "num_vertices", "attributes", "edges", "label")


def graph_to_doc(g: MolecularGraph, schema: AttributeSchema) -> dict:
    doc = {
        "schema_id": schema.schema_id,
        "id": g.graph_id,
        "num_vertices": g.num_vertices,
        "attributes": g.attr.tolist(),
        "edges": g.canonical_edges().tolist(),
    }
    if g.label is not None:
        doc["label"] = g.label
    return doc


def doc_to_graph(doc: dict, schema: AttributeSchema) -> MolecularGraph:
    if doc.get("schema_id") != schema.schema_id:
        raise GraphError(
            f"schema_id mismatch: document {doc.get('schema_id')!r} vs {schema.schema_id!r}"
        )
    m = int(doc["num_vertices"])
    attr = np.asarray(doc["attributes"], dtype=np.int64).reshape(m, schema.num_attributes)
    edges = np.asarray(doc.get("edges", []), dtype=np.int64).reshape(-1, 2)
    label = doc.get("label")
    return MolecularGraph(
        num_vertices=m,
        attr=attr,
        edges=edges,
        label=None if label is None else float(label),
        graph_id=doc.get("id"),
        schema_fingerprint=schema.fingerprint,
    )


def dumps_graph(g: MolecularGraph, schema: AttributeSchema) -> str:
    doc = graph_to_doc(g, schema)
    ordered = {k: doc[k] for k in _DOC_FIELDS if k in doc}
    return json.dumps(ordered, separators=(",", ":"))


def write_jsonl(graphs, schema: AttributeSchema, stream) -> None:
    for g in graphs:
        stream.write(dumps_graph(g, schema))
        stream.write("\n")


def read_json_graphs(data, schema: AttributeSchema, strict: bool = True):
    """Parse a JSONL stream (or JSON array) of graph documents.

    Every graph is validated against the schema. In strict mode the first
    problem raises; otherwise problems are collected and returned alongside
    the good graphs as ``(graphs, errors)``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if hasattr(data, "read"):
        data = data.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")

    text = data.strip()
    docs: list = []
    if text.startswith("["):
        docs = json.loads(text)
    elif text:
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]

    graphs, errors = [], []
    for pos, doc in enumerate(docs):
        try:
            g = doc_to_graph(doc, schema)
        except (GraphError, KeyError, ValueError) as exc:
            if strict:
                raise GraphError(f"document {pos}: {exc}") from exc
            errors.append((pos, str(exc)))
            continue
        report = validate_graph(g, schema)
        if not report.ok:
            if strict:
                raise GraphError(f"document {pos}: {report}")
            errors.append((pos, str(report)))
            continue
        graphs.append(g)
    if strict:
        return graphs
    return graphs, errors
