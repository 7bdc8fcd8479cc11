"""Synthetic corpora and file fixtures shared across the test suite."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations
from math import comb

import numpy as np
from hypothesis import strategies as st

from ngram_graph import AttributeSchema, GraphError, MolecularGraph
from ngram_graph.featurize import ACCEPTOR_ELEMENTS, DEFAULT_VALENCE
from ngram_graph.schema import BUNDLED_SCHEMAS, UNKNOWN
from ngram_graph.sdf import CHARGE_CODES
from ngram_graph.vertex import check_schema, vertex_rows


def small_schema(ks=(5, 4), name="test"):
    return AttributeSchema.from_pairs(
        [(f"attr{j}", tuple(f"v{j}_{i}" for i in range(k))) for j, k in enumerate(ks)],
        name=name,
    )


def single_attribute_schema(k, name="single"):
    return AttributeSchema.from_pairs(
        [("value", tuple(f"v{i}" for i in range(k)))], name=name
    )


def subset_rank(subset) -> int:
    """Colex rank of a sorted index subset: sum of C(s_t, t+1); the
    reference for ``counts.subset_table``."""
    return sum(comb(int(s), t + 1) for t, s in enumerate(sorted(subset)))


def subsets_colex(k: int, n: int):
    """All n-subsets of range(k) in colex order, by sorting."""
    return sorted(combinations(range(k), n), key=lambda t: t[::-1])


def get_flat(net):
    """A copy of a CBOW network's flat parameter buffer, for finite differences."""
    return net._flat.copy()


def set_flat(net, flat):
    """Write a ``get_flat`` vector back into the network's parameters."""
    net._flat[...] = flat


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
def messy_pair_lists(draw, schema, max_m=7):
    """``(m, attr, pairs)``: an attribute table under the schema and a pair
    list that repeats pairs, lists both orientations, contains self-loops
    and endpoints out of range, and leaves vertices isolated."""
    m = draw(st.integers(1, max_m))
    vertex = st.integers(0, m - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * m))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=m))
        pairs += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
    outside = st.sampled_from([-1, m, m + 2])
    pairs += draw(st.lists(st.tuples(vertex, outside) | st.tuples(outside, vertex), max_size=1))
    pairs = draw(st.permutations(pairs))
    attr = [[draw(st.integers(0, k - 1)) for k in schema.cardinalities] for _ in range(m)]
    return m, attr, pairs


def proper_pairs(m, pairs) -> list:
    """The list's pairs that are no self-loop and lie in range, each once
    (in either orientation), in the order drawn."""
    seen, kept = set(), []
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if u != v and 0 <= key[0] and key[1] < m and key not in seen:
            seen.add(key)
            kept.append((u, v))
    return kept


def messy_graphs(schema, max_m=7):
    """Graphs built from the proper pairs of ``messy_pair_lists``."""
    return messy_pair_lists(schema, max_m).map(
        lambda t: MolecularGraph(num_vertices=t[0], attr=t[1], edges=proper_pairs(t[0], t[2]),
                                 schema_fingerprint=schema.fingerprint))


def dense_adjacency(g):
    """Dense 0/1 adjacency built from the edge list, both orientations set:
    a reference that shares no code with the graph's CSR."""
    a = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    for u, v in g.edges.tolist():
        a[u, v] = a[v, u] = 1
    return a


def has_edge(g, u, v) -> bool:
    """Whether v is in the graph's CSR row of u."""
    return bool(np.any(g.indices[g.indptr[u] : g.indptr[u + 1]] == v))


def canonical_edges(g) -> np.ndarray:
    """The graph's pairs, each as (u, v) with u < v, sorted, from the edge
    list: a reference that shares no code with the CSR that
    ``graph.write_jsonl`` reads them off."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in g.edges.tolist())
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


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


def one_hot(g, schema, i) -> np.ndarray:
    """Concatenated one-hot encoding of vertex i: one active index per block."""
    if not 0 <= i < g.num_vertices:
        raise GraphError(f"vertex index {i} out of range for m={g.num_vertices}")
    h = np.zeros(schema.total_width, dtype=np.int64)
    h[np.asarray(schema.offsets, dtype=np.int64) + g.attr[i]] = 1
    return h


def checked_rows(g, emb) -> np.ndarray:
    """The m x r vertex rows of g (row i = W h_i), once g passes the
    embedding's schema check, as the engine admits a graph."""
    check_schema(g, emb)
    return vertex_rows(g.attr, emb)


def permute(g, pi):
    """Relabel vertices by permutation pi: new index pi[i] holds old vertex i."""
    pi = np.asarray(pi, dtype=np.int64)
    m = g.num_vertices
    if pi.shape != (m,) or not np.array_equal(np.sort(pi), np.arange(m)):
        raise GraphError("pi is not a bijection on [0, m)")
    new_attr = np.empty_like(g.attr)
    new_attr[pi] = g.attr
    return replace(g, attr=new_attr, edges=pi[g.edges])


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
        [np.concatenate([c for level in count_statistics(g, schema, walk_depth).blocks
                         for c in level]) for g in graphs]
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


def molblock(name, atoms, bonds, charge_codes=None, props=()):
    """Assemble a V2000 record. atoms: symbols; bonds: (u, v, order) 1-based;
    props: property lines placed before ``M  END``."""
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
    lines.extend(props)
    lines.append("M  END")
    return "\n".join(lines)


def charge_line(*pairs):
    """An ``M  CHG`` property line setting (atom, charge) pairs, atoms 1-based."""
    return f"M  CHG{len(pairs):>3}" + "".join(f" {a:>3} {c:>3}" for a, c in pairs)


def sdf_stream(*blocks):
    return "\n$$$$\n".join(blocks) + "\n$$$$\n"


# heavy elements of random_sdf; Si and Xe have no default valence
SDF_ELEMENTS = ("C", "N", "O", "S", "Cl", "F", "Br", "I", "P", "Si", "Xe")


def random_sdf(rng, n_records, max_heavy=8, defects=0.0):
    """SDF text of random records: heavy-atom trees with a ring closure,
    explicit hydrogens, bond orders 1-4, every atom-block charge code (the
    radical marker included), elements without a valence entry and an
    occasional nameless record. With probability ``defects`` a record gets
    one defect that the reader must reject (see ``_break_record``)."""
    blocks = []
    for k in range(n_records):
        m = int(rng.integers(1, max_heavy + 1))
        atoms = [str(s) for s in rng.choice(SDF_ELEMENTS, size=m)]
        bonds = {(int(rng.integers(0, i)), i): int(rng.integers(1, 5)) for i in range(1, m)}
        if m > 2:
            u, v = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
            bonds.setdefault((u, v), 1)
        for i in range(m):
            for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.4 else 0):
                atoms.append("H")
                bonds[(i, len(atoms) - 1)] = 1
        codes = [int(rng.integers(0, 8)) if rng.random() < 0.3 else 0 for _ in atoms]
        name = "" if rng.random() < 0.1 else f"r{k}"
        block = molblock(name, atoms, [(u + 1, v + 1, o) for (u, v), o in bonds.items()],
                         codes)
        if rng.random() < defects:
            block = _break_record(rng, block.split("\n"), len(atoms), len(bonds))
        blocks.append(block)
    return sdf_stream(*blocks)


def _break_record(rng, lines, na, nb):
    """One molblock with one field overwritten so that the record is bad: a
    blank symbol, a charge code or bond field that is out of range or not
    an integer, a self-bond, a repeated bond, a bad counts line, or a
    missing bond line."""
    atom = 4 + int(rng.integers(0, na))
    bond = 4 + na + int(rng.integers(0, nb)) if nb else None

    def put(i, lo, text):
        lines[i] = lines[i][:lo] + text + lines[i][lo + len(text):]

    kind = int(rng.integers(0, 8)) if nb else int(rng.integers(0, 3))
    if kind == 0:
        put(atom, 31, "   ")
    elif kind == 1:
        put(atom, 36, str(rng.choice(["  8", " -1", "  x", "1.5"])))
    elif kind == 2:
        put(3, 0, str(rng.choice(["  x", " -1", "   "])))
    elif kind == 3:
        put(bond, 0, str(rng.choice(["   ", "  0", f"{na + 1:>3}", " x "])))
    elif kind == 4:
        put(bond, 6, str(rng.choice(["  0", "  5", "  9", "  a"])))
    elif kind == 5:
        put(bond, 3, lines[bond][:3])  # v = u
    elif kind == 6:  # the first bond again, reversed, as one more bond line
        first = lines[4 + na]
        lines.insert(4 + na + nb, first[3:6] + first[:3] + first[6:])
        put(3, 3, f"{nb + 1:>3}")
    else:  # the last bond line and M  END cut off
        del lines[4 + na + nb - 1 :]
    return "\n".join(lines)


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


# -- reference SDF reader and featurizer -----------------------------------------
#
# The per-atom reader and featurizer that the array versions in ``sdf`` and
# ``featurize`` replaced, kept as the oracle of a differential test: one
# object per atom and bond, one dict row per vertex. The reader does not
# know ``M  CHG`` lines.


@dataclass(frozen=True)
class RefAtom:
    symbol: str
    charge: int


@dataclass(frozen=True)
class RefBond:
    u: int  # 1-based atom index
    v: int
    order: int


@dataclass(frozen=True)
class RefRecord:
    name: str
    atoms: tuple
    bonds: tuple
    warnings: tuple = ()


def _ref_int_field(line, lo, hi, what):
    raw = line[lo:hi].strip()
    if not raw:
        raise ValueError(f"empty {what} field")
    return int(raw)


class _RefMergedRecords(ValueError):
    """A record's lines after its first ``M  END`` hold another: ``rest`` is
    the offset of the line after that first ``M  END``."""

    def __init__(self, message, rest):
        super().__init__(message)
        self.rest = rest


def _ref_parse_record(lines, start):
    """The record of ``lines``, the first of which is stream line ``start``."""
    if len(lines) < 4:
        raise ValueError("record shorter than header + counts line")
    name = lines[0].strip()
    counts = lines[3]
    try:
        num_atoms = _ref_int_field(counts, 0, 3, "atom count")
        num_bonds = _ref_int_field(counts, 3, 6, "bond count")
    except ValueError as exc:
        raise ValueError(f"malformed counts line: {exc}") from exc
    if num_atoms < 0 or num_bonds < 0:
        raise ValueError(f"malformed counts line: negative count in {counts[:6]!r}")
    version = counts[33:39].strip()
    if version and version != "V2000":
        raise ValueError(f"unsupported CTfile version tag {version!r}")
    body = lines[4:]
    if len(body) < num_atoms + num_bonds:
        raise ValueError(
            f"truncated record: expected {num_atoms} atom + {num_bonds} bond lines, "
            f"found {len(body)}"
        )
    ends = [i for i in range(4 + num_atoms + num_bonds, len(lines))
            if lines[i].startswith("M  END")]
    if len(ends) > 1:
        raise _RefMergedRecords(f"second M  END at line {start + ends[1]}: "
                                "a damaged $$$$ line merged two records", ends[0] + 1)
    warnings, atoms = [], []
    for i in range(num_atoms):
        line = body[i]
        symbol = line[30:34].strip()
        if not symbol:
            raise ValueError(f"atom {i + 1}: empty symbol field")
        code_raw = line[36:39].strip()
        code = int(code_raw) if code_raw else 0
        if code not in CHARGE_CODES:
            raise ValueError(f"atom {i + 1}: unknown charge code {code}")
        if code == 4:
            warnings.append(f"atom {i + 1}: radical charge code 4 treated as charge 0")
        atoms.append(RefAtom(symbol=symbol, charge=CHARGE_CODES[code]))
    bonds, seen = [], set()
    for i in range(num_bonds):
        line = body[num_atoms + i]
        u = _ref_int_field(line, 0, 3, "bond endpoint")
        v = _ref_int_field(line, 3, 6, "bond endpoint")
        order_raw = line[6:9].strip()
        order = int(order_raw) if order_raw else 1
        if not (1 <= u <= num_atoms and 1 <= v <= num_atoms) or u == v:
            raise ValueError(f"bond {i + 1}: endpoints ({u},{v}) out of range")
        if not 1 <= order <= 4:
            raise ValueError(f"bond {i + 1}: order {order} outside 1..4")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"bond {i + 1}: duplicate bond ({u},{v})")
        seen.add(key)
        bonds.append(RefBond(u=u, v=v, order=order))
    return RefRecord(name=name, atoms=tuple(atoms), bonds=tuple(bonds),
                     warnings=tuple(warnings))


def reference_parse_sdf(data):
    """``(records, errors)`` with errors as ``(line, message)`` pairs."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    records, errors = [], []
    chunks, start, lines = [], 1, []
    for lineno, line in enumerate(data.splitlines(), start=1):
        if line.startswith("$$$$"):
            chunks.append((start, lines))
            start, lines = lineno + 1, []
        else:
            lines.append(line)
    chunks.append((start, lines))

    def parse(start, lines):
        if not any(line.strip() for line in lines):
            return
        try:
            records.append(_ref_parse_record(lines, start))
        except _RefMergedRecords as exc:
            errors.append((start, str(exc)))
            parse(start + exc.rest, lines[exc.rest:])
        except ValueError as exc:
            errors.append((start, str(exc)))

    for start, lines in chunks:
        parse(start, lines)
    return records, errors


def _ref_encode_row(schema, row):
    out = []
    for j, name in enumerate(schema.attribute_names):
        value = row[name]
        if name in ("symbol", "degree", "charge"):
            out.append(schema.index_of(j, value))
        elif name in ("num_hydrogen", "implicit_valence"):
            if value is None:
                out.append(schema.index_of(j, UNKNOWN))
            else:
                top = len(schema.values_of(j)) - 2  # last numeric token before Unknown
                out.append(min(max(value, 0), top))
        else:  # yes/no flags
            out.append(1 if value else 0)
    return out


def reference_featurize(rec, schema):
    """``(graph, warnings)`` of one reference record under the schema."""
    warnings = []
    n = len(rec.atoms)
    total_bonds, explicit_h = [0] * n, [0] * n
    aromatic = [False] * n
    heavy_neighbors = [[] for _ in range(n)]
    for b in rec.bonds:
        u, v = b.u - 1, b.v - 1
        total_bonds[u] += 1
        total_bonds[v] += 1
        if b.order == 4:
            aromatic[u] = aromatic[v] = True
        if rec.atoms[v].symbol == "H":
            explicit_h[u] += 1
        if rec.atoms[u].symbol == "H":
            explicit_h[v] += 1
        if rec.atoms[u].symbol != "H" and rec.atoms[v].symbol != "H":
            heavy_neighbors[u].append(v)
            heavy_neighbors[v].append(u)
    heavy = [i for i in range(n) if rec.atoms[i].symbol != "H"]
    new_index = {old: new for new, old in enumerate(heavy)}
    rows = []
    for old in heavy:
        atom = rec.atoms[old]
        valence = DEFAULT_VALENCE.get(atom.symbol)
        if valence is None:
            num_h = implicit = None
            warnings.append(
                f"atom {old + 1} ({atom.symbol}): no valence entry, hydrogen count unknown"
            )
        else:
            implicit = valence - total_bonds[old] - abs(atom.charge)
            num_h = explicit_h[old] + implicit
        acceptor = atom.symbol in ACCEPTOR_ELEMENTS
        rows.append(_ref_encode_row(schema, {
            "symbol": atom.symbol,
            "degree": len(heavy_neighbors[old]),
            "num_hydrogen": num_h,
            "implicit_valence": implicit,
            "charge": atom.charge,
            "is_aromatic": aromatic[old],
            "is_acceptor": acceptor,
            "is_donor": acceptor and bool(num_h and num_h > 0),
        }))
    edges = [(new_index[b.u - 1], new_index[b.v - 1]) for b in rec.bonds
             if b.u - 1 in new_index and b.v - 1 in new_index]
    g = MolecularGraph(
        num_vertices=len(heavy),
        attr=np.asarray(rows, dtype=np.int64).reshape(len(heavy), schema.num_attributes),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        graph_id=rec.name or None,
        schema_fingerprint=schema.fingerprint,
    )
    return g, warnings


def graph_fields(g):
    """Every field of a graph as a comparable tuple; each array with its
    dtype, shape and read-only flag."""
    arrays = tuple((a.dtype.str, a.shape, a.flags.writeable, a.tobytes())
                   for a in (g.attr, g.edges, g.indptr, g.indices))
    return (g.num_vertices, *arrays, repr(g.label), g.graph_id, g.schema_fingerprint)


# -- reference JSON graph reader -------------------------------------------------
#
# The per-document reader that ``graph.read_json_graphs`` replaced, kept as
# the oracle of a differential test: each document converted and checked on
# its own, by ``reference_violations``, and then built as one
# ``MolecularGraph``. It calls no validation code of the package to decide
# which documents are valid.


def reference_violations(m, attr, edges, schema) -> tuple[str, ...]:
    """Every graph rule that the tables break under the schema, one message
    each, in the order the reader names them: the table's width or its
    indices out of range (attribute-major), each self-loop and each pair out
    of range in listed order, then each pair listed more than once."""
    ks = schema.cardinalities
    attr, edges = np.asarray(attr).tolist(), np.asarray(edges).reshape(-1, 2).tolist()
    if any(len(row) != len(ks) for row in attr):
        return (f"attribute table width {len(attr[0])} != schema S={len(ks)}",)
    bad = [f"attr index out of range: attr[{i}][{j}]={row[j]} with k_{j}={k}"
           for j, k in enumerate(ks) for i, row in enumerate(attr) if not 0 <= row[j] < k]
    for u, v in edges:
        if u == v:
            bad.append(f"self-loop@{u}")
        if min(u, v) < 0 or max(u, v) >= m:
            bad.append(f"edge ({u},{v}) endpoint out of range for m={m}")
    times = Counter((min(u, v), max(u, v)) for u, v in edges if u != v)
    bad += [f"duplicate edge ({a},{b}) listed {t} times"
            for (a, b), t in sorted(times.items()) if t > 1]
    return tuple(bad)


def _ref_integers(values, field, shape):
    try:
        values = np.asarray(values)
    except ValueError:
        raise GraphError(f"{field} must be {shape}") from None
    if values.size and values.dtype.kind != "i":
        raise GraphError(f"{field} must be JSON integers")
    return values


def reference_doc_fields(doc, schema) -> dict:
    """The ``MolecularGraph`` fields of a valid document; a problem raises."""
    if not isinstance(doc, dict):
        raise GraphError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema_id") != schema.schema_id:
        raise GraphError(
            f"schema_id mismatch: document {doc.get('schema_id')!r} vs {schema.schema_id!r}"
        )
    for key in ("num_vertices", "attributes"):
        if key not in doc:
            raise GraphError(f"missing field {key!r}")
    m, S = doc["num_vertices"], schema.num_attributes
    if type(m) is not int:
        raise GraphError(f"num_vertices must be a JSON integer, got {type(m).__name__}")
    shape = f"{m} rows of {S} value indices"
    attr = _ref_integers(doc["attributes"], "attributes", shape)
    if attr.tolist() == [] and m == 0:
        attr = attr.reshape(0, S)
    if attr.shape != (m, S):
        raise GraphError(f"attributes must be {shape}")
    edges = _ref_integers(doc.get("edges", []), "edges", "a list of [u, v] pairs")
    if edges.tolist() == []:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError("edges must be a list of [u, v] pairs")
    label, graph_id = doc.get("label"), doc.get("id")
    if graph_id is not None and not isinstance(graph_id, str):
        raise GraphError(f"id must be a JSON string or null, got {type(graph_id).__name__}")
    if label is not None and type(label) not in (bool, int, float):
        raise GraphError(f"label must be a JSON number or null, got {type(label).__name__}")
    label = None if label is None else float(label)
    violations = reference_violations(m, attr, edges, schema)
    if violations:
        raise GraphError("; ".join(violations))
    return dict(num_vertices=m, attr=attr, edges=edges, label=label, graph_id=graph_id,
                schema_fingerprint=schema.fingerprint)


def _ref_documents(data, errors):
    # a str breaks into lines, and has blank ones, where its UTF-8 bytes do
    raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    array = raw.lstrip()[:1] == b"["
    lines = [line for line in raw.splitlines() if line.strip()]
    if isinstance(data, str):
        lines = [line.decode("utf-8", "surrogatepass") for line in lines]
    chunks = [data] if array else lines
    for pos, chunk in enumerate(chunks):
        try:
            doc = json.loads(chunk.decode("utf-8") if isinstance(chunk, bytes) else chunk)
        except ValueError as exc:
            if errors is None:
                exc.document = pos
                raise
            errors.append((pos, str(exc)))
            continue
        yield from enumerate(doc) if array else [(pos, doc)]


def reference_read_json_graphs(data, schema, errors=None):
    """Without a schema, the first document that names a bundled one fixes
    it; a document before that one names none."""
    graphs = []
    for pos, doc in _ref_documents(data, errors):
        named = doc.get("schema_id") if isinstance(doc, dict) else None
        for bundled in BUNDLED_SCHEMAS.values():
            if schema is None and named == bundled.schema_id:
                schema = bundled
        try:
            if schema is None:
                ids = ", ".join(s.schema_id for s in BUNDLED_SCHEMAS.values())
                raise GraphError(f"schema_id {named!r} is not a bundled schema ({ids})")
            fields = reference_doc_fields(doc, schema)
        except (GraphError, TypeError, ValueError, OverflowError) as exc:
            problem = str(exc)
        else:
            # built outside the handler: a document that the reference passes
            # and the constructor refuses fails the comparison
            graphs.append(MolecularGraph(**fields))
            continue
        if errors is None:
            raise GraphError(f"document {pos}: {problem}")
        errors.append((pos, problem))
    if schema is None and errors is None:
        raise GraphError("no graph documents")
    return graphs


# -- reference JSON graph writer ---------------------------------------------------
#
# A graph as its document, and that document as ``json.dumps`` writes it:
# the reference that ``graph.write_jsonl``'s lines are compared against.

_DOC_FIELDS = ("schema_id", "id", "num_vertices", "attributes", "edges", "label")


def graph_to_doc(g, schema) -> dict:
    doc = {
        "schema_id": schema.schema_id,
        "id": g.graph_id,
        "num_vertices": g.num_vertices,
        "attributes": g.attr.tolist(),
        "edges": canonical_edges(g).tolist(),
    }
    if g.label is not None:
        doc["label"] = g.label
    return doc


def dumps_graph(g, schema) -> str:
    doc = graph_to_doc(g, schema)
    ordered = {k: doc[k] for k in _DOC_FIELDS if k in doc}
    return json.dumps(ordered, separators=(",", ":"))


# one defect each, applied by ``graph_document_corpora`` to a valid document
DOCUMENT_DEFECTS = (
    "attr-range", "edge-range", "self-loop", "duplicate", "negative-count",
    "empty-count", "float-count", "bool-count", "string-count", "bool-only",
    "stray-bool", "float-value", "integral-float", "string-value", "big-value",
    "uint64-value", "flat-attributes", "flat-edges", "wide-edges", "ragged",
    "wrong-width", "missing-field", "schema-id", "not-object", "int-label",
    "string-label", "bad-label", "odd-id", "null-edges", "empty-attributes",
    "falsy-tables", "big-count", "big-id", "big-schema-id",
)
# integers just outside int64 and uint64, which orjson would read as floats
BIG_INTEGERS = (2**64, 2**70, -(2**63) - 1)
BIG_FIELDS = {"big-count": "num_vertices", "big-id": "id", "big-schema-id": "schema_id"}
# characters that str.splitlines() breaks at and bytes.splitlines() does not
UNICODE_BREAKS = "\u2028\u2029\x85\x1c\x1d\x1e\x0b\x0c"


@st.composite
def graph_documents(draw, schema, max_m=6, defect_percent=50, defects=DOCUMENT_DEFECTS):
    """One graph document under the schema: valid (possibly with no vertices
    or no edges, a label and any id), or, with the given chance, with one of
    ``defects``."""
    ks = schema.cardinalities
    m = draw(st.integers(0, max_m))
    attr = [[draw(st.integers(0, k - 1)) for k in ks] for _ in range(m)]
    vertex = st.integers(0, max(m - 1, 0))
    edges = sorted({tuple(sorted(p)) for p in draw(st.lists(st.tuples(vertex, vertex),
                                                            max_size=2 * m))
                    if p[0] != p[1]})
    ids = st.text(st.characters() | st.sampled_from(UNICODE_BREAKS), max_size=3)
    doc = {"schema_id": schema.schema_id, "id": draw(st.none() | ids),
           "num_vertices": m, "attributes": attr, "edges": [list(e) for e in edges]}
    if draw(st.booleans()):
        doc["label"] = draw(st.floats(allow_nan=False, allow_infinity=False, width=32))
    defect = (draw(st.sampled_from(defects))
              if draw(st.integers(0, 99)) < defect_percent else None)
    values = [(row, j) for row in doc["attributes"] for j in range(len(row))]
    cell = draw(st.sampled_from(values)) if values else None

    def put(value):
        if cell is not None:
            cell[0][cell[1]] = value
        else:
            doc["edges"].append([0, value])

    if defect == "attr-range" and cell is not None:
        put(draw(st.sampled_from([-1, ks[cell[1]], 99])))
    elif defect == "edge-range":
        doc["edges"].append(draw(st.sampled_from([[0, m], [-1, 0], [m + 3, 1]])))
    elif defect == "self-loop":
        doc["edges"].append([m // 2, m // 2])
    elif defect == "duplicate" and doc["edges"]:
        doc["edges"].append(list(reversed(doc["edges"][0])))
    elif defect == "negative-count":
        doc["num_vertices"] = draw(st.sampled_from([-1, -2]))
    elif defect == "float-count":
        doc["num_vertices"] = draw(st.sampled_from([float(m), m + 0.5]))
    elif defect == "bool-count":
        doc["num_vertices"] = bool(m)
    elif defect == "string-count":
        doc["num_vertices"] = str(m)
    elif defect == "bool-only":
        doc["attributes"] = [[bool(x % 2) for x in row] for row in doc["attributes"]]
        doc["edges"] = [[bool(u % 2), bool(v % 2)] for u, v in doc["edges"]]
    elif defect == "stray-bool":
        put(draw(st.booleans()))
    elif defect == "float-value":
        put(0.5)
    elif defect == "integral-float":
        put(1.0)
    elif defect == "string-value":
        put("1")
    elif defect == "big-value":
        put(draw(st.sampled_from([2**63, 2**70, -(2**63) - 1])))
    elif defect == "uint64-value":
        put(2**64 - 1)
    elif defect == "flat-attributes":
        doc["attributes"] = [x for row in doc["attributes"] for x in row]
    elif defect == "flat-edges":
        doc["edges"] = [x for pair in doc["edges"] for x in pair]
    elif defect == "wide-edges":
        doc["edges"] = [pair + [0] for pair in doc["edges"]]
    elif defect == "empty-count":
        doc["num_vertices"] = 0
    elif defect == "ragged" and cell is not None:
        cell[0].pop()
    elif defect == "wrong-width":
        doc["attributes"] = [row + [0] for row in doc["attributes"]]
    elif defect == "missing-field":
        del doc[draw(st.sampled_from(["num_vertices", "attributes", "edges", "schema_id"]))]
    elif defect == "schema-id":
        doc["schema_id"] = draw(st.sampled_from(["other:0", None, 3]))
    elif defect == "not-object":
        doc = draw(st.sampled_from([[1, 2], 5, "x", None, [doc]]))
    elif defect == "int-label":
        doc["label"] = draw(st.integers(-3, 3))
    elif defect == "string-label":
        doc["label"] = draw(st.sampled_from(["1.5", "nan", "x"]))
    elif defect == "bad-label":
        doc["label"] = draw(st.sampled_from([{"y": 1}, [1], True, 10**400]))
    elif defect == "odd-id":
        doc["id"] = draw(st.sampled_from([[1], 7, {"a": None}, True]))
    elif defect == "null-edges":
        doc["edges"] = None
    elif defect == "empty-attributes":
        doc["attributes"] = []
    elif defect == "falsy-tables":
        doc[draw(st.sampled_from(["attributes", "edges"]))] = draw(st.sampled_from([{}, "", 0]))
    elif defect in BIG_FIELDS:
        doc[BIG_FIELDS[defect]] = draw(st.sampled_from(BIG_INTEGERS))
    return doc


def _utf8(text: str) -> bytes:
    """UTF-8 bytes of text; a lone surrogate (an ``st.characters()`` id) is
    encoded as is, which makes its line undecodable."""
    return text.encode("utf-8", "surrogatepass")


@st.composite
def graph_document_corpora(draw, *schemas, min_docs=0, max_docs=8, defect_percent=50):
    """A JSONL stream (bytes or text) or one JSON array of graph documents,
    each under one of the schemas, their non-ASCII text raw or escaped.
    JSONL mixes in blank and undecodable lines, and valid documents whose
    label is a ``NaN``, ``Infinity`` or ``1e400`` literal, which only json
    reads."""
    schema = st.sampled_from(schemas)
    docs = draw(st.lists(schema.flatmap(lambda s: graph_documents(s, defect_percent=
                                                                   defect_percent)),
                         min_size=min_docs, max_size=max_docs))
    ascii = draw(st.booleans())
    if draw(st.booleans()):
        text = json.dumps(docs, separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
                          ensure_ascii=ascii)
        return _utf8(text) if draw(st.booleans()) else text
    lines = [_utf8(json.dumps(d, separators=(",", ":"), ensure_ascii=ascii)) for d in docs]
    for _ in range(draw(st.integers(0, 2))):
        broken = draw(st.sampled_from([b"{\"schema_id\":", b"\xff\xfe{}", b"   ", b"",
                                       b"[1, 2", b"nul", b"[1,\x1c2]", b"{\xe2\x80\xa8}"]))
        lines.insert(draw(st.integers(0, len(lines))), broken)
    for _ in range(draw(st.integers(0, 2))):
        doc = {k: v for k, v in draw(graph_documents(draw(schema), defect_percent=0)).items()
               if k != "label"}
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
        line = json.dumps(doc, separators=(",", ":"), ensure_ascii=ascii)[:-1]
        lines.insert(draw(st.integers(0, len(lines))), _utf8(f'{line},"label":{literal}}}'))
    data = b"\n".join(lines)
    return data if draw(st.booleans()) else data.decode("utf-8", errors="replace")


# one each, applied by ``respelled_line`` to a document's line: spellings of
# a table that json reads (or refuses) and a canonical line never has, and
# keys that a count of "attributes" or "edges" in the line's bytes misplaces
TABLE_SPELLINGS = (
    "space-in-table", "minus-zero", "leading-zero", "nineteen-digits", "key-as-id",
    "escaped-key", "escaped-key-after", "repeated-key", "nested-key", "nested-key-alone",
    "space-before-colon", "empty-row", "empty-table",
)
# integers of 19 digits inside int64, which no vertex count reaches
NINETEEN_DIGITS = ("1000000000000000000", "9223372036854775807", "-9223372036854775808")
# a repeated key's value, besides "[]" and the first value: a table that is
# not plain integers, or no table
NOT_PLAIN = ("[[0,true]]", "[[0.5,1]]", "[[1, 2]]", '"x"', "{}", "null", "[[-0]]")
ESCAPED_KEYS = {"attributes": r'"attr\u0069butes":', "edges": r'"e\u0064ges":'}
_FIRST_NUMBER = re.compile(r"(?<=[\[,])(-?)(\d+)")


def line_with(doc: dict, key: str, text: str, ensure_ascii=True) -> str:
    """The document's compact JSON line with the key's value written as text."""
    mark = "\x00mark"
    line = json.dumps({**doc, key: mark}, separators=(",", ":"), ensure_ascii=ensure_ascii)
    return line.replace(json.dumps(mark), text)


def respelled_line(doc, spelling, key="attributes", variant=0, ensure_ascii=True) -> str:
    """The document's compact JSON line with ``spelling`` (one of
    ``TABLE_SPELLINGS``) applied to the ``key`` table or field; ``variant``
    picks among a spelling's choices. A document that is no object, or a
    spelling that finds nothing to change, leaves the line canonical."""
    def dumps(value):
        return json.dumps(value, separators=(",", ":"), ensure_ascii=ensure_ascii)

    if not isinstance(doc, dict):
        return dumps(doc)
    table, line, literal = dumps(doc.get(key)), dumps(doc), f'"{key}":'
    second = ("[]", table, *NOT_PLAIN)[variant % (len(NOT_PLAIN) + 2)]  # a repeated key's value
    with_table = partial(line_with, doc, key, ensure_ascii=ensure_ascii)

    def appended(field):  # the line with one more field at its end
        return line[:-1] + ("," if len(line) > 2 else "") + field + "}"

    if spelling == "space-in-table":
        cuts = [i + 1 for i, c in enumerate(table) if c in "[,"] or [0]
        cut = cuts[variant % len(cuts)]
        return with_table(table[:cut] + " " + table[cut:])
    if spelling == "minus-zero":
        return with_table(_FIRST_NUMBER.sub("-0", table, count=1))
    if spelling == "leading-zero":
        return with_table(_FIRST_NUMBER.sub(r"\g<1>0\2", table, count=1))
    if spelling == "nineteen-digits":
        digits = NINETEEN_DIGITS[variant % len(NINETEEN_DIGITS)]
        return with_table(_FIRST_NUMBER.sub(digits, table, count=1))
    if spelling == "key-as-id":
        return dumps({**doc, "id": key})
    if spelling == "escaped-key":
        return line.replace(literal, ESCAPED_KEYS[key], 1)
    if spelling == "escaped-key-after":  # json keeps the last value, "[]" included
        return appended(ESCAPED_KEYS[key] + second)
    if spelling == "repeated-key":
        return appended(literal + second)
    if spelling == "nested-key":
        return appended('"x":{' + literal + table + "}")
    if spelling == "nested-key-alone":
        line = dumps({k: v for k, v in doc.items() if k != key})
        return appended('"x":{' + literal + table + "}")
    if spelling == "space-before-colon":
        return line.replace(literal, f'"{key}" :', 1)
    if spelling == "empty-row":
        return with_table("[[]]")
    if spelling == "empty-table":
        return with_table("[]")
    raise ValueError(f"unknown spelling {spelling!r}")


@st.composite
def table_spelling_corpora(draw, schema, max_docs=6):
    """A JSONL stream (bytes or text) of graph documents, some with one of
    ``DOCUMENT_DEFECTS``, each line canonical or with one of
    ``TABLE_SPELLINGS``, its non-ASCII text raw or escaped."""
    ascii, lines = draw(st.booleans()), []
    for doc in draw(st.lists(graph_documents(schema, defect_percent=20), max_size=max_docs)):
        spelling = draw(st.none() | st.sampled_from(TABLE_SPELLINGS))
        if spelling is None:
            line = json.dumps(doc, separators=(",", ":"), ensure_ascii=ascii)
        else:
            line = respelled_line(doc, spelling, draw(st.sampled_from(["attributes", "edges"])),
                                  draw(st.integers(0, 20)), ascii)
        lines.append(_utf8(line))
    data = b"\n".join(lines)
    return data if draw(st.booleans()) else data.decode("utf-8", errors="replace")
