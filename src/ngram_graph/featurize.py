"""Atom attribute computation: parsed records -> MolecularGraphs.

:func:`featurize_corpus` concatenates the records' arrays (``symbols``,
``charges`` and the 1-based ``bonds`` table) and computes every attribute
for all atoms of the corpus at once: bincounts over the bond endpoints,
one vocabulary lookup per distinct value and clips for the counts. It then
slices one graph per record.

Explicit hydrogens are folded into their heavy atom's hydrogen count and
dropped as vertices. Attribute rules are deliberately format-driven and
deterministic:

* symbol: bucketed to the 10-token vocabulary, else Unknown
* degree: heavy-neighbor count after hydrogen collapse
* hydrogens: explicit H neighbors + (default valence - total bonds - |charge|),
  clipped into the attribute range; Unknown only when the element has no
  valence entry
* implicit valence: default valence - total bonds - |charge|, clipped likewise
* charge: bucketed to -2..+2, else Unknown
* aromatic: incident to any order-4 bond
* acceptor: element is N or O; donor: N or O with at least one hydrogen
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import GraphError, _collector_paused, build_graphs
from .schema import FULL_SCHEMA, UNKNOWN, AttributeSchema

DEFAULT_VALENCE = {
    "H": 1, "C": 4, "N": 3, "O": 2, "F": 1,
    "P": 3, "S": 2, "Cl": 1, "Br": 1, "I": 1,
}

# simple lone-pair rule; a pharmacophore factory is out of scope
ACCEPTOR_ELEMENTS = frozenset({"N", "O"})


@_collector_paused()
def featurize_corpus(records, schema: AttributeSchema = FULL_SCHEMA):
    """Compute the vertex attribute tables of a corpus of parsed records
    under a bundled schema.

    Returns ``(graphs, warnings)``, one graph and one list of warnings per
    record, in input order. Heavy atoms keep their record order; vertex i of
    a graph is the i-th non-hydrogen atom of its record.
    """
    if not records:
        return [], []
    sizes = [len(r.symbols) for r in records]
    atom_base = np.concatenate([[0], np.cumsum(sizes)])
    n = int(atom_base[-1])
    symbols = list(chain.from_iterable(r.symbols for r in records))
    charge = np.concatenate([r.charges for r in records])
    bonds = np.concatenate([r.bonds for r in records])
    bond_record = np.repeat(np.arange(len(records)), [len(r.bonds) for r in records])
    u = bonds[:, 0] - 1 + atom_base[bond_record]  # corpus atom indices
    v = bonds[:, 1] - 1 + atom_base[bond_record]

    # element properties: one lookup per distinct symbol
    elements = list(dict.fromkeys(symbols))
    element_of = dict(zip(elements, range(len(elements))))
    element = np.fromiter(map(element_of.__getitem__, symbols), dtype=np.int64, count=n)
    hydrogen = np.array([s == "H" for s in elements], dtype=bool)[element]
    valence = np.array([DEFAULT_VALENCE.get(s, 0) for s in elements], dtype=np.int64)[element]
    known = np.array([s in DEFAULT_VALENCE for s in elements], dtype=bool)[element]
    acceptor = np.array([s in ACCEPTOR_ELEMENTS for s in elements], dtype=bool)[element]

    def per_atom(ends):  # bonds of each atom among the selected ones
        return np.bincount(u[ends], minlength=n) + np.bincount(v[ends], minlength=n)

    heavy_bond = ~hydrogen[u] & ~hydrogen[v]
    explicit_h = (np.bincount(u[hydrogen[v]], minlength=n)
                  + np.bincount(v[hydrogen[u]], minlength=n))
    implicit = valence - per_atom(slice(None)) - np.abs(charge)
    num_h = explicit_h + implicit
    tokens = {
        "symbol": (elements, element),
        "degree": np.unique(per_atom(heavy_bond), return_inverse=True),
        "charge": np.unique(charge, return_inverse=True),
    }
    counts = {"num_hydrogen": num_h, "implicit_valence": implicit}
    flags = {
        "is_aromatic": per_atom(bonds[:, 2] == 4) > 0,
        "is_acceptor": acceptor,
        "is_donor": acceptor & known & (num_h > 0),
    }
    attr = np.empty((n, schema.num_attributes), dtype=np.int64)
    for j, name in enumerate(schema.attribute_names):
        if name in tokens:  # one vocabulary lookup per distinct value
            values, inverse = tokens[name]
            attr[:, j] = np.array([schema.index_of(j, x) for x in values],
                                  dtype=np.int64)[inverse]
        elif name in counts:
            top = len(schema.values_of(j)) - 2  # last numeric token before Unknown
            attr[:, j] = np.where(known, np.clip(counts[name], 0, top),
                                  schema.index_of(j, UNKNOWN))
        else:
            attr[:, j] = flags[name]

    heavy = ~hydrogen
    attr = attr[heavy]
    before = np.concatenate([[0], np.cumsum(heavy)])  # heavy atoms before each atom
    vertex_base = before[atom_base]  # and before each record
    edges = (before[np.stack([u[heavy_bond], v[heavy_bond]], axis=1)]
             - vertex_base[bond_record[heavy_bond], None])
    warnings = [[] for _ in records]
    unknown = np.flatnonzero(heavy & ~known)
    owner = np.searchsorted(atom_base, unknown, side="right") - 1
    for k, i in zip(owner.tolist(), unknown.tolist()):
        warnings[k].append(
            f"atom {i - int(atom_base[k]) + 1} ({symbols[i]}): "
            "no valence entry, hydrogen count unknown"
        )

    graphs, faults = build_graphs(np.diff(vertex_base), attr, edges,
                                  np.bincount(bond_record[heavy_bond], minlength=len(records)),
                                  ids=[rec.name or None for rec in records], schema=schema)
    for k, message in faults.items():  # a record that parse_sdf did not check
        raise GraphError(f"record {k}: {message}")
    return graphs, warnings
