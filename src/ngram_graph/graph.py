"""Vertex-attributed graph data model and canonical JSON interchange.

Graphs are immutable after construction. The edge relation is undirected
and binary and has one representation: a CSR adjacency (``indptr``/
``indices``, each row in ascending order) built from the edge list. Every
neighbour lookup reads it, and the canonical edge list (u < v, sorted, for
serialization) is its upper triangle. :func:`stack_graphs` lays a corpus
out as one block-diagonal CSR, the adjacency that the walk engine
multiplies with and the CBOW context counts read.

A corpus is built in one pass (:func:`build_graphs`, which
:func:`read_json_graphs` and ``featurize.featurize_corpus`` call): one CSR
build and one check by the graph rules, written once (:func:`_violations`),
for all its graphs, which are read-only views of the corpus's stacked
arrays. ``MolecularGraph(...)`` is the one-graph case, and refuses a bad
graph with the reader's message. Documents are parsed by orjson wherever
its result is the standard library's, and by ``json`` elsewhere; a written
line has its tables spelled by orjson and its other fields by ``json``.
A JSONL line that passes :func:`_table_spans`'s guards has its two integer
tables read straight from its bytes, many tables per numeric pass, and
kept only where orjson writes the array back as the same bytes; only the
rest of the line is parsed. Any other line is parsed whole.

The readers (:func:`read_json_graphs`, ``sdf.parse_sdf`` and
``featurize.featurize_corpus``) run under :func:`_collector_paused`: the
cyclic garbage collector is off, process-wide, until the outermost of them
exits. A 10,000-vertex document parsed whole decodes to ~21,500 lists that
stay alive until it converts; the collector would traverse them, and every
other live object, in about 100 collections per read, a full one among
them, and free nothing, since documents, records and graphs hold no
reference cycles.
"""

from __future__ import annotations

import gc
import json
import operator
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .schema import BUNDLED_SCHEMAS, AttributeSchema


class GraphError(ValueError):
    """Raised for malformed graph construction or interchange documents."""


_pause_lock = threading.Lock()
_pause = {"depth": 0, "was_enabled": False}


@contextmanager
def _collector_paused():
    """Run the block (or, as a decorator, the function) with the cyclic
    garbage collector off, and restore the caller's setting when the
    outermost pause exits. The switch is process-wide, so pauses nest, and
    overlap across threads, by a depth count under a lock."""
    with _pause_lock:
        if _pause["depth"] == 0:
            _pause["was_enabled"] = gc.isenabled()
            gc.disable()
        _pause["depth"] += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause["depth"] -= 1
            if _pause["depth"] == 0 and _pause["was_enabled"]:
                gc.enable()


@dataclass(frozen=True, eq=False)
class MolecularGraph:
    """An attributed graph: m x S table of value indices plus edges.

    Construction checks the vertex count and both tables by the reader's
    rules (the width of ``attr`` is free: a graph has no schema) and raises
    :class:`GraphError` with the reader's message; a count given as a numpy
    integer is kept as an int. ``indptr``/``indices`` are the symmetric CSR
    adjacency: the neighbours of i are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, and every view of the edges is read off it. ``edges`` stores
    the checked pairs as given only because ``dataclasses.replace(g, ...)``
    rebuilds a graph from its stored fields. ``==`` is identity.
    """

    num_vertices: int
    attr: np.ndarray
    edges: np.ndarray
    label: float | None = None
    graph_id: str | None = None
    schema_fingerprint: str | None = None
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = self.num_vertices
        if isinstance(m, (bool, np.bool_)) or not hasattr(type(m), "__index__"):
            raise GraphError(f"num_vertices must be a JSON integer, got {type(m).__name__}")
        m = operator.index(m)  # a numpy integer is stored, and written, as an int
        object.__setattr__(self, "num_vertices", m)
        attr = _table(self.attr, "attributes", m, None, f"{m} rows of value indices")
        edges = _table(self.edges, "edges", None, 2, "a list of [u, v] pairs")
        (g,), fault = build_graphs([m], attr, edges, [len(edges)])
        if fault:
            raise GraphError(fault[0])
        for name in ("attr", "edges", "indptr", "indices"):
            object.__setattr__(self, name, getattr(g, name))

    # -- basic structure -------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.indices.size // 2)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def stack_graphs(graphs):
    """One block-diagonal CSR (indptr, indices) of the graphs, their stacked
    attribute table and their vertex offsets (``len(graphs) + 1`` entries)."""
    offsets = np.cumsum([0] + [g.num_vertices for g in graphs], dtype=np.int64)
    nnz = np.array([g.indices.size for g in graphs], dtype=np.int64)
    indices = np.concatenate([g.indices for g in graphs]) + np.repeat(offsets[:-1], nnz)
    ends = np.concatenate([g.indptr[1:] for g in graphs])
    indptr = np.concatenate([[0], ends + np.repeat(np.cumsum(nnz) - nnz, np.diff(offsets))])
    return indptr, indices, np.concatenate([g.attr for g in graphs]), offsets


def _block_csr(sizes, edges, edge_counts):
    """The CSR adjacencies of a corpus, built at once: :func:`stack_graphs`
    run backwards.

    ``sizes`` holds each graph's vertex count, ``edges`` every graph's pairs
    stacked, in the graph's own vertex numbers, and ``edge_counts`` how many
    pairs each graph has. Self-loops, out-of-range and repeated pairs are
    dropped, which :func:`_violations` counts: no graph that lost a pair is
    kept. Returns ``(indptr, indices, nnz)`` in each graph's own numbering:
    graph k's ``indptr`` is ``indptr[offsets[k] + k : offsets[k + 1] + k + 1]``
    and its ``indices`` are ``indices[nnz[k] : nnz[k + 1]]``.
    """
    n = sizes.size
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    N, M = int(offsets[-1]), max(int(sizes.max(initial=0)), 1)
    owner = np.repeat(np.arange(n), edge_counts)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    proper = (lo >= 0) & (hi < sizes[owner]) & (lo != hi)
    lo, hi, base = lo[proper], hi[proper], offsets[owner[proper]]
    # corpus row * M + the graph's own column, in both orientations, sorted
    key = np.sort(np.concatenate([(lo + base) * M + hi, (hi + base) * M + lo]))
    row, col = np.divmod(key[np.diff(key, prepend=-1) != 0], M)  # each pair once
    indptr = np.searchsorted(row, np.arange(N + 1))
    # graph k's m_k + 1 row starts sit at offsets[k] + k, each from its own 0
    vertex = np.arange(N + n) - np.repeat(np.arange(n), sizes + 1)
    local = indptr[vertex] - np.repeat(indptr[offsets[:-1]], sizes + 1)
    return local, col, indptr[offsets]


def build_graphs(sizes, attr, edges, edge_counts, labels=None, ids=None, schema=None):
    """Every graph of a corpus from its stacked tables, with one CSR build,
    and by index the messages of each graph that :func:`_violations` flags.

    ``sizes`` and ``edge_counts`` hold each graph's vertex and pair count;
    ``attr`` stacks the attribute tables and ``edges`` the pairs, each graph
    in its own vertex numbers. The graphs are read-only views of these
    arrays and of one block-diagonal CSR, not copies: ``MolecularGraph(...)``
    is the one-graph case.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    edge_counts = np.asarray(edge_counts, dtype=np.int64)
    attr = np.asarray(attr, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    indptr, indices, nnz = _block_csr(sizes, edges, edge_counts)
    faults = _violations(sizes, attr, edges, edge_counts, np.diff(nnz) // 2, schema)
    for arr in (attr, edges, indptr, indices):
        arr.setflags(write=False)
    n = sizes.size
    labels = [None] * n if labels is None else labels
    ids = [None] * n if ids is None else ids
    vs = [0, *accumulate(sizes.tolist())]
    es = [0, *accumulate(edge_counts.tolist())]
    zs = nnz.tolist()
    fingerprint = None if schema is None else schema.fingerprint
    new = object.__new__
    graphs = []
    for k in range(n):
        g = new(MolecularGraph)
        g.__dict__.update(  # the fields, set as __post_init__ would leave them
            num_vertices=vs[k + 1] - vs[k], attr=attr[vs[k] : vs[k + 1]],
            edges=edges[es[k] : es[k + 1]], label=labels[k], graph_id=ids[k],
            schema_fingerprint=fingerprint, indptr=indptr[vs[k] + k : vs[k + 1] + k + 1],
            indices=indices[zs[k] : zs[k + 1]],
        )
        graphs.append(g)
    return graphs, faults


def ones_csr(indptr, indices, ncols):
    """A 0/1 sparse matrix with the given CSR pattern, for products ``A @ X``."""
    # imported here, so commands that make no sparse product never load it
    import scipy.sparse

    data = np.ones(indices.size, dtype=np.int64)
    return scipy.sparse.csr_array((data, indices, indptr), shape=(indptr.size - 1, ncols))


def out_of_range(attr, sizes, schema: AttributeSchema) -> np.ndarray:
    """Which graphs, of ``sizes`` rows each of a stacked table, hold an index out of range."""
    out = ((attr < 0) | (attr >= np.asarray(schema.cardinalities))).any(axis=1)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(owner[out], minlength=len(sizes)) > 0


def attribute_violations(attr: np.ndarray, schema: AttributeSchema) -> list[str]:
    """The attribute rules under a schema: the table's width is the
    schema's S, and every index lies in its attribute's range."""
    if attr.shape[1] != schema.num_attributes:
        return [f"attribute table width {attr.shape[1]} != schema S={schema.num_attributes}"]
    ks = schema.cardinalities
    bad = (attr < 0) | (attr >= np.asarray(ks))
    return [f"attr index out of range: attr[{i}][{j}]={attr[i, j]} with k_{j}={ks[j]}"
            for j, i in zip(*np.nonzero(bad.T))]  # attribute-major order


def _violations(sizes, attr, edges, edge_counts, csr_edges, schema=None) -> dict[int, str]:
    """The graph rules, over a corpus's converted tables (as :func:`_block_csr`
    takes them) and its graphs' CSR edge counts: each bad graph's messages,
    joined by ``"; "``, by index. Masks find them: fewer CSR edges than
    pairs, which a self-loop, a pair out of range or one listed twice
    leaves, and under a schema an attribute index out of range. Only those
    graphs are named: indices out of range (attribute-major), each self-loop
    and pair out of range in listed order, each repeated pair, sorted."""
    bad = csr_edges < edge_counts
    if schema is not None:
        bad |= out_of_range(attr, sizes, schema)
    vs, es = np.cumsum(sizes) - sizes, np.cumsum(edge_counts) - edge_counts
    faults = {}
    for k in np.flatnonzero(bad).tolist():
        m, pairs = sizes[k], edges[es[k] : es[k] + edge_counts[k]]
        found = [] if schema is None else attribute_violations(attr[vs[k] : vs[k] + m], schema)
        ends = np.sort(pairs, axis=1)
        loops, outside = ends[:, 0] == ends[:, 1], (ends[:, 0] < 0) | (ends[:, 1] >= m)
        for i in np.flatnonzero(loops | outside).tolist():
            u, v = pairs[i].tolist()
            if loops[i]:
                found.append(f"self-loop@{u}")
            if outside[i]:
                found.append(f"edge ({u},{v}) endpoint out of range for m={m}")
        keys, times = np.unique(ends[~loops], axis=0, return_counts=True)
        found += [f"duplicate edge ({a},{b}) listed {t} times"
                  for (a, b), t in zip(keys[times > 1].tolist(), times[times > 1].tolist())]
        faults[k] = "; ".join(found)
    return faults


# -- JSON graph documents -----------------------------------------------------
#
# {"schema_id": ..., "id": ..., "num_vertices": m,
#  "attributes": [[...], ...], "edges": [[u, v], ...], "label": ...}
#
# Canonical form: exactly this field order, edges listed once with u < v in
# lexicographic order, label omitted when absent, compact separators.

def _table(values, field: str, rows: int | None, width: int | None, shape: str) -> np.ndarray:
    """The field as an int64 table of ``rows`` rows of ``width`` integers
    (any number for None), by numpy's own conversion: a float, string,
    bool-only or out-of-int64 value is refused instead of cast. An integer
    list with a stray bool still converts, the bool as 0 or 1. A table of
    another shape (flat, ragged, too wide, nested deeper) is refused as not
    ``shape``; ``[]`` is the table of no rows."""
    try:
        values = np.asarray(values)
    except ValueError:  # ragged rows
        raise GraphError(f"{field} must be {shape}") from None
    if values.size and values.dtype.kind != "i":
        raise GraphError(f"{field} must be JSON integers")
    table = values.reshape(0, width or 0) if values.shape == (0,) else values
    if (table.ndim != 2 or width not in (None, table.shape[1])
            or rows not in (None, table.shape[0])):
        raise GraphError(f"{field} must be {shape}")
    return table.astype(np.int64, copy=False)


def _doc_fields(doc, schema: AttributeSchema):
    """One document's ``(num_vertices, attr, edges, label, graph_id)``,
    checked and converted on its own; a problem raises."""
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
    attr = _table(doc["attributes"], "attributes", m, S, f"{m} rows of {S} value indices")
    edges = _table(doc.get("edges", []), "edges", None, 2, "a list of [u, v] pairs")
    label, graph_id = doc.get("label"), doc.get("id")
    if graph_id is not None and not isinstance(graph_id, str):
        raise GraphError(f"id must be a JSON string or null, got {type(graph_id).__name__}")
    if label is not None and not isinstance(label, (int, float)):  # a bool reads as 1 or 0
        raise GraphError(f"label must be a JSON number or null, got {type(label).__name__}")
    return m, attr, edges, None if label is None else float(label), graph_id


def write_jsonl(graphs, schema: AttributeSchema, stream) -> None:
    """Each graph as one canonical line, as ``json.dumps`` with compact
    separators would write its document.

    json spells the scalar fields, where orjson would spell some strings and
    floats differently; orjson spells the two integer tables, as json does,
    straight from the arrays. Both tables are row slices of the corpus's
    :func:`stack_graphs` layout: its attribute table, and its canonical
    edges (each proper pair once, u < v, sorted), read at once off the
    upper triangle of its block-diagonal CSR.
    """
    import orjson  # loaded at the first graph-document write, not at start-up

    graphs = list(graphs)
    if not graphs:
        return
    indptr, indices, attr, offsets = stack_graphs(graphs)
    # orjson refuses a strided table, and one F-ordered table stacks as itself
    attr = np.ascontiguousarray(attr)
    rows = np.repeat(np.arange(offsets[-1]), np.diff(indptr))
    upper = indices > rows
    local = np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))
    edges = local[np.stack([rows[upper], indices[upper]], axis=1)]
    vs = offsets.tolist()
    es = [0, *accumulate(g.num_edges for g in graphs)]  # each graph's upper triangle
    head = '{"schema_id":' + json.dumps(schema.schema_id) + ',"id":'
    for k, g in enumerate(graphs):
        tables = orjson.dumps({"attributes": attr[vs[k] : vs[k + 1]],
                               "edges": edges[es[k] : es[k + 1]]},
                              option=orjson.OPT_SERIALIZE_NUMPY).decode()
        label = "" if g.label is None else ',"label":' + json.dumps(g.label)
        stream.write(f'{head}{json.dumps(g.graph_id)},"num_vertices":'
                     f'{json.dumps(g.num_vertices)},{tables[1:-1]}{label}}}\n')


# orjson reads an integer outside [-2**63, 2**64), 19 digits or more, as a
# float; and orjson 3.8 nests without a limit, so a document deep enough
# overflows the C stack where json raises RecursionError. A line with a run
# of 19 digits, or nested deeper than _MAX_DEPTH, goes to json.
_MAX_DEPTH = 256
_DIGITS_AND_OPENERS = bytes.maketrans(b"123456789{", b"000000000[")
_NOT_BRACKETS = bytes(set(range(256)) - set(b"[]{}"))
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8
_JSON_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"', re.DOTALL)


def _depth(text: bytes) -> int:
    """The deepest bracket nesting of JSON text, its strings left out:
    exact for valid JSON, which is all that orjson builds objects from."""
    brackets = _JSON_STRING.sub(b"", text).translate(_BRACKET_STEPS, _NOT_BRACKETS)
    return int(np.cumsum(np.frombuffer(brackets, dtype=np.int8)).max(initial=0))


def _orjson_reads_as_json(text: bytes) -> bool:
    """Whether orjson may parse the text: no run of 19 digits, and nested
    at most _MAX_DEPTH deep."""
    marked = text.translate(_DIGITS_AND_OPENERS)
    return b"0" * 19 not in marked and (marked.count(b"[") <= _MAX_DEPTH
                                         or _depth(text) <= _MAX_DEPTH)


def _loads(chunk):
    """One JSONL line or JSON array, parsed as ``json.loads`` parses it.

    orjson parses it when :func:`_orjson_reads_as_json`; json parses it
    when orjson refuses it (``NaN``, ``1e400``, lone surrogates, invalid
    UTF-8), which also gives json's own exception and message."""
    import orjson  # loaded at the first graph-document read, not at start-up

    text = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8", "surrogatepass")
    if _orjson_reads_as_json(text):
        try:
            return orjson.loads(chunk)
        except orjson.JSONDecodeError:
            pass
    return json.loads(chunk.decode("utf-8") if isinstance(chunk, bytes) else chunk)


_TABLE_BYTES = b"0123456789,-[]"


def _table_spans(line: bytes):
    """Where the line's ``attributes`` and ``edges`` tables are, as
    ``(start, end)`` byte spans in that order, if the line may have them
    read from its bytes: no backslash, each key once and directly followed
    by ``:[``, and each table's text, up to its first ``]]`` or ``[]``, made
    of digits, commas, minus signs and brackets only. Else None."""
    if b"\\" in line:
        return None
    spans = []
    for key in (b'"attributes"', b'"edges"'):
        at = line.find(key + b":[")
        if at < 0 or line.count(key) != 1:
            return None
        start = at + len(key) + 1
        end = start + 2 if line[start + 1 : start + 2] == b"]" else line.find(b"]]", start) + 2
        if end < start + 2 or line[start:end].translate(None, _TABLE_BYTES):
            return None
        spans.append((start, end))
    return spans


# table text per numeric pass of _int_tables: 64 KiB holds at most ~32,000
# numbers, so a pass's arrays stay within about 0.5 MiB unless one table is
# longer. One pass over a whole corpus of 500 molecules peaked at 4.1 MiB
# traced, against 3.3 MiB for passes of 64 KiB and for parsed lists.
_PASS_BYTES = 1 << 16


def _int_tables(texts):
    """Each table text as the int64 array whose compact JSON it is, or None
    where it is no such JSON, in numeric passes over _PASS_BYTES of text
    each (:func:`_int_pass`): a table's result depends on its text alone."""
    tables, start, size = [], 0, 0
    for end, text in enumerate(texts, 1):
        size += len(text)
        if size >= _PASS_BYTES or end == len(texts):
            tables += _int_pass(texts[start:end])
            start, size = end, 0
    return tables


def _int_pass(texts):
    """:func:`_int_tables` in one numeric pass over all the texts.

    A number is its digit run, read from its last 18 digits at most (a
    longer run reads as a shorter number, and so fails the round trip), and
    negated after a ``-``. A table's numbers fill rows as wide as its first
    row, or stay flat if there are none. Whatever the text, a table is kept
    only if orjson writes its array back as the text, byte for byte."""
    import orjson

    blob = b"".join(texts)
    joined = np.frombuffer(blob, dtype=np.uint8)
    digit = joined - np.uint8(48)  # wraps every non-digit past 9
    flips = np.flatnonzero(np.diff(digit < 10, prepend=False, append=False))
    flips[1::2] -= 1
    starts, last = flips[::2], flips[1::2]  # each run's first and last digit
    values = digit[last].astype(np.int64)
    longer, k = np.flatnonzero(last > starts), 1
    while longer.size and k < 18:  # add the k-th last digit of the runs that have one
        values[longer] += digit[last[longer] - k].astype(np.int64) * 10**k
        k += 1
        longer = longer[last[longer] - k >= starts[longer]]
    if b"-" in blob:
        values[joined[starts - 1] == ord("-")] *= -1  # a table opens with "[": starts >= 1
    bounds = np.searchsorted(starts, np.cumsum([0, *map(len, texts)])).tolist()
    tables = []
    for t, text in enumerate(texts):
        table = values[bounds[t] : bounds[t + 1]]
        width = text.count(b",", 0, text.find(b"]")) + 1
        if table.size and table.size % width == 0:
            table = table.reshape(-1, width)
        tables.append(table if orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY) == text
                      else None)
    return tables


def _tables_read(line: bytes, spans, tables, text: bool):
    """The line's document with its two tables as read from its bytes:
    its rest, both tables spelled ``[]``, parsed by :func:`_loads`, and the
    arrays put in. None, for the line to be parsed whole, where the rest
    does not parse to an object whose own two tables are those ``[]``."""
    (a, b), (c, d) = sorted(spans)
    rest = line[:a] + b"[]" + line[b:c] + b"[]" + line[d:]
    try:
        doc = _loads(rest.decode("utf-8", "surrogatepass") if text else rest)
    except ValueError:
        return None
    if not (isinstance(doc, dict) and doc.get("attributes") == [] and doc.get("edges") == []):
        return None
    doc["attributes"], doc["edges"] = tables
    return doc


def _documents(data):
    """``(pos, document)`` pairs: the elements of one JSON array, or one per
    nonblank JSONL line, each line decoded and parsed on its own. An
    undecodable line gives its exception in place of the document.

    A JSONL line whose :func:`_table_spans` qualify, and whose two tables
    :func:`_int_tables` reads, has them read from its bytes as int64
    arrays, the corpus's tables a pass of many at a time, and only the rest
    of the line parsed (:func:`_tables_read`): orjson never builds their
    lists. Every other line, and a JSON array, is parsed whole, so the
    route that a line takes depends on that line alone.

    A ``str`` has the lines, and blank lines, of its UTF-8 bytes: it breaks
    at ``\\n``, ``\\r`` and ``\\r\\n`` only, as JSON allows a raw U+2028
    inside a string."""
    text = isinstance(data, str)
    raw = data.encode("utf-8", "surrogatepass") if text else data
    array = raw.lstrip()[:1] == b"["
    if array:
        chunks, spans = [data], [None]
    else:
        lines = [line for line in raw.splitlines() if line.strip()]
        spans = [_table_spans(line) for line in lines]
        tables = iter(_int_tables([line[a:b] for line, s in zip(lines, spans) if s
                                   for a, b in s]))
        chunks = [line.decode("utf-8", "surrogatepass") for line in lines] if text else lines
    for pos, chunk in enumerate(chunks):
        doc = None
        if spans[pos]:
            attr, edges = next(tables), next(tables)
            if attr is not None and edges is not None:
                doc = _tables_read(lines[pos], spans[pos], (attr, edges), text)
        if doc is None:
            try:
                doc = _loads(chunk)
            except ValueError as exc:  # UnicodeDecodeError, json.JSONDecodeError
                yield pos, exc
                continue
        yield from enumerate(doc) if array else [(pos, doc)]


@_collector_paused()
def read_json_graphs(data, schema: AttributeSchema | None = None,
                     errors: list | None = None) -> list[MolecularGraph]:
    """Parse JSONL text (``bytes`` or ``str``), or one JSON array, of graph
    documents.

    Returns the graphs that pass validation against the schema, or, without
    one, against the bundled schema that the first document naming one
    names; each graph carries the fingerprint of the schema it was read
    under. A document before that first one fails with its decode error or
    as naming none; a later document that names another schema fails as a
    mismatch. Without an ``errors`` list the first problem raises
    (``UnicodeDecodeError`` or ``json.JSONDecodeError`` for an undecodable
    line, with the line's position in its ``document`` attribute;
    ``GraphError`` for an invalid document, and for an empty corpus read
    without a schema); with one, each is appended as ``(pos, message)``.

    Documents convert one at a time (:func:`_doc_fields`); the corpus is
    then built and checked in one pass (:func:`build_graphs`), and its
    graphs share its arrays as read-only views. A canonical JSONL line's
    tables reach :func:`_doc_fields` as int64 arrays read from its bytes
    (:func:`_documents`), any other line's as parsed lists; both convert by
    the same checks, to the same graph or message.
    """
    fields, tables, failed = [], [], {}
    for pos, doc in _documents(data):
        if schema is None and not isinstance(doc, ValueError):
            named = doc.get("schema_id") if isinstance(doc, dict) else None
            schema = next((s for s in BUNDLED_SCHEMAS.values() if s.schema_id == named), None)
        if isinstance(doc, ValueError):
            failed[pos] = doc
        elif schema is None:
            bundled = ", ".join(s.schema_id for s in BUNDLED_SCHEMAS.values())
            failed[pos] = f"schema_id {named!r} is not a bundled schema ({bundled})"
        else:
            try:
                m, attr, edges, label, graph_id = _doc_fields(doc, schema)
            except (GraphError, TypeError, ValueError, OverflowError) as exc:
                failed[pos] = str(exc)
            else:
                fields.append((pos, m, len(edges), label, graph_id))
                tables.append((attr, edges))
        if failed and errors is None:
            break  # the first problem is this one or one the sweep finds before it

    positions, graphs = (), []
    if fields:
        positions, sizes, counts, labels, ids = zip(*fields)
        attr = np.concatenate([a for a, _ in tables])
        edges = np.concatenate([e for _, e in tables])
        graphs, faults = build_graphs(sizes, attr, edges, counts, labels, ids, schema)
        failed.update((positions[k], message) for k, message in faults.items())
    for pos in sorted(failed):
        problem = failed[pos]
        if errors is not None:
            errors.append((pos, str(problem)))
        elif isinstance(problem, ValueError):
            problem.document = pos  # lets a caller name the broken document
            raise problem
        else:
            raise GraphError(f"document {pos}: {problem}")
    if schema is None and errors is None:
        raise GraphError("no graph documents")
    return [g for pos, g in zip(positions, graphs) if pos not in failed]
