"""Synthetic corpora and file fixtures shared across the test suite."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import strategies as st

from ngram_graph import AttributeSchema, MolecularGraph


def small_schema(ks=(5, 4), name="test"):
    return AttributeSchema.from_pairs(
        [(f"attr{j}", tuple(f"v{j}_{i}" for i in range(k))) for j, k in enumerate(ks)],
        name=name,
    )


def single_attribute_schema(k, name="single"):
    return AttributeSchema.from_pairs(
        [("value", tuple(f"v{i}" for i in range(k)))], name=name
    )


def get_flat(net):
    """A CBOW network's parameters as one vector, for finite differences."""
    return np.concatenate([p.ravel() for p in net.parameters()])


def set_flat(net, flat):
    """Write a ``get_flat`` vector back into the network's parameters."""
    pos = 0
    for p in net.parameters():
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size


def random_graph(rng, schema, m=None, density=0.3, distinct_values=False,
                 connected=False, label=None, graph_id=None):
    """Random simple graph with attributes drawn under the schema."""
    if m is None:
        m = int(rng.integers(2, 9))
    ks = schema.cardinalities
    if distinct_values:
        cols = [rng.choice(k, size=m, replace=False) for k in ks]
    else:
        cols = [rng.integers(0, k, size=m) for k in ks]
    attr = np.stack(cols, axis=1)
    edges = {(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < density}
    if connected:
        order = rng.permutation(m)
        edges |= {tuple(sorted((int(order[i]), int(order[i + 1])))) for i in range(m - 1)}
    edge_arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return MolecularGraph(
        num_vertices=m, attr=attr, edges=edge_arr, label=label, graph_id=graph_id,
        schema_fingerprint=schema.fingerprint,
    )


@st.composite
def messy_graphs(draw, schema, max_m=7):
    """Small graphs whose edge lists repeat pairs, list both orientations,
    contain self-loops and leave vertices isolated."""
    m = draw(st.integers(1, max_m))
    vertex = st.integers(0, m - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * m))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=m))
        pairs += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
    attr = [[draw(st.integers(0, k - 1)) for k in schema.cardinalities] for _ in range(m)]
    return MolecularGraph(num_vertices=m, attr=attr, edges=pairs,
                          schema_fingerprint=schema.fingerprint)


def dense_adjacency(g):
    """Dense 0/1 adjacency built from the raw edge list (self-loops and
    out-of-range pairs dropped, both orientations set): a reference that
    shares no code with the graph's CSR."""
    m = g.num_vertices
    a = np.zeros((m, m), dtype=np.int64)
    for u, v in g.edges.tolist():
        if u != v and 0 <= min(u, v) and max(u, v) < m:
            a[u, v] = a[v, u] = 1
    return a


def has_edge(g, u, v) -> bool:
    """Whether v is in the graph's CSR row of u."""
    return bool(np.any(g.neighbors(u) == v))


def structurally_equal(g, h) -> bool:
    """Same vertex count, attributes, adjacency, label and id."""
    return (
        g.num_vertices == h.num_vertices
        and np.array_equal(g.attr, h.attr)
        and np.array_equal(g.indptr, h.indptr)
        and np.array_equal(g.indices, h.indices)
        and g.label == h.label
        and g.graph_id == h.graph_id
    )


def random_corpus(rng, schema, n, **kw):
    return [random_graph(rng, schema, graph_id=f"g{i}", **kw) for i in range(n)]


def neighbor_predictable_corpus(rng, schema, n_graphs=150):
    """Connected graphs whose attribute rows are constant per graph, so a
    vertex's attributes are fully determined by any neighbor's."""
    ks = schema.cardinalities
    graphs = []
    for gi in range(n_graphs):
        m = int(rng.integers(4, 9))
        row = [int(rng.integers(0, k)) for k in ks]
        attr = np.tile(row, (m, 1))
        edges = {(i, i + 1) for i in range(m - 1)}
        for _ in range(2):
            u, v = sorted(int(x) for x in rng.integers(0, m, 2))
            if u != v:
                edges.add((u, v))
        graphs.append(
            MolecularGraph(
                num_vertices=m, attr=attr,
                edges=np.array(sorted(edges), dtype=np.int64),
                graph_id=f"pred{gi}", schema_fingerprint=schema.fingerprint,
            )
        )
    return graphs


def count_label_corpus(rng, schema, n_graphs=2000, walk_depth=2, noise=0.10,
                       m_range=(5, 10)):
    """Graphs with per-graph distinct values plus labels that are a noisy
    threshold of a fixed linear functional of the walk count statistics."""
    from ngram_graph import count_statistics

    k = schema.cardinalities[0]
    graphs = []
    for gi in range(n_graphs):
        m = int(rng.integers(*m_range))
        vals = rng.choice(k, size=m, replace=False)
        edges = {(i, i + 1) for i in range(m - 1)}
        for _ in range(int(rng.integers(1, m))):
            u, v = sorted(int(x) for x in rng.integers(0, m, 2))
            if u != v:
                edges.add((u, v))
        graphs.append(
            MolecularGraph(
                num_vertices=m, attr=vals.reshape(-1, 1),
                edges=np.array(sorted(edges), dtype=np.int64),
                graph_id=f"c{gi}", schema_fingerprint=schema.fingerprint,
            )
        )
    counts = np.stack(
        [count_statistics(g, schema, walk_depth).stacked() for g in graphs]
    ).astype(np.float64)
    theta = rng.standard_normal(counts.shape[1])
    score = counts @ theta
    labels = (score > np.median(score)).astype(np.float64)
    flip = rng.random(n_graphs) < noise
    labels[flip] = 1.0 - labels[flip]
    return graphs, labels, counts


def planted_walk_corpus(rng, k=6, n_graphs=600, planted_level=4, extra_edges=3):
    """Constant vertex-value multiset per graph (level-1 counts carry nothing)
    with labels planted in the level-``planted_level`` count statistics."""
    from ngram_graph import count_statistics

    schema = single_attribute_schema(k, name="planted")
    graphs = []
    for gi in range(n_graphs):
        vals = rng.permutation(k)
        edges = {(i, i + 1) for i in range(k - 1)}
        for _ in range(extra_edges):
            u, v = sorted(int(x) for x in rng.integers(0, k, 2))
            if u != v:
                edges.add((u, v))
        graphs.append(
            MolecularGraph(
                num_vertices=k, attr=vals.reshape(-1, 1),
                edges=np.array(sorted(edges), dtype=np.int64),
                graph_id=f"p{gi}", schema_fingerprint=schema.fingerprint,
            )
        )
    level = np.stack(
        [count_statistics(g, schema, planted_level).level(planted_level) for g in graphs]
    ).astype(np.float64)
    theta = rng.standard_normal(level.shape[1])
    score = level @ theta
    labels = (score > np.median(score)).astype(np.float64)
    return schema, graphs, labels


def molecule_scale_corpus(rng, schema, n_graphs=1128, m_range=(20, 31)):
    """Sparse graphs at molecule scale (roughly 25 vertices, degree ~2)."""
    graphs = []
    for gi in range(n_graphs):
        m = int(rng.integers(*m_range))
        attr = np.stack([rng.integers(0, k, size=m) for k in schema.cardinalities], axis=1)
        edges = {(i, i + 1) for i in range(m - 1)}
        while len(edges) < int(1.1 * m):
            u, v = sorted(int(x) for x in rng.integers(0, m, 2))
            if u != v:
                edges.add((u, v))
        graphs.append(
            MolecularGraph(
                num_vertices=m, attr=attr,
                edges=np.array(sorted(edges), dtype=np.int64),
                graph_id=f"m{gi}", schema_fingerprint=schema.fingerprint,
            )
        )
    return graphs


# -- CTfile fixtures -----------------------------------------------------------


def molblock(name, atoms, bonds, charge_codes=None):
    """Assemble a V2000 record. atoms: symbols; bonds: (u, v, order) 1-based."""
    charge_codes = charge_codes or [0] * len(atoms)
    lines = [name, "  synthetic", ""]
    lines.append(f"{len(atoms):>3}{len(bonds):>3}  0  0  0  0  0  0  0  0999 V2000")
    for sym, code in zip(atoms, charge_codes):
        lines.append(
            f"{0.0:>10.4f}{0.0:>10.4f}{0.0:>10.4f} {sym:<3}{0:>2}{code:>3}"
            + "  0" * 10
        )
    for u, v, order in bonds:
        lines.append(f"{u:>3}{v:>3}{order:>3}  0")
    lines.append("M  END")
    return "\n".join(lines)


def sdf_stream(*blocks):
    return "\n$$$$\n".join(blocks) + "\n$$$$\n"


WATER = molblock("water", ["O", "H", "H"], [(1, 2, 1), (1, 3, 1)])
METHANE = molblock("methane", ["C", "H", "H", "H", "H"],
                   [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)])
ETHANOL = molblock("ethanol", ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])


@st.composite
def byte_mutations(draw, data: bytes, max_edits=8):
    """``data`` after a few random byte replacements, insertions and
    deletions (new bytes are arbitrary or taken from ``data``), and
    possibly cut short."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(0, max_edits))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = draw(st.integers(0, len(buf)))
        byte = draw(st.integers(0, 255) | st.sampled_from(sorted(set(data))))
        if op == "insert":
            buf.insert(pos, byte)
        elif pos < len(buf):
            if op == "replace":
                buf[pos] = byte
            else:
                del buf[pos]
    if draw(st.booleans()):
        del buf[draw(st.integers(0, len(buf))):]
    return bytes(buf)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def json_field_mutations(draw, docs: list):
    """JSONL text of ``docs`` with one document, or one of its fields,
    replaced by an arbitrary JSON value."""
    docs = [dict(d) for d in docs]
    i = draw(st.integers(0, len(docs) - 1))
    key = draw(st.sampled_from([None, *docs[i]]))
    if key is None:
        docs[i] = draw(JSON_VALUES)
    else:
        docs[i][key] = draw(JSON_VALUES)
    return "".join(json.dumps(d) + "\n" for d in docs).encode()
