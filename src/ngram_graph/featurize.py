"""Atom attribute computation: MolRecord -> MolecularGraph.

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

from dataclasses import dataclass

import numpy as np

from .graph import MolecularGraph
from .schema import BUNDLED_SCHEMAS, UNKNOWN, AttributeSchema, SchemaError
from .sdf import MolRecord

DEFAULT_VALENCE = {
    "H": 1, "C": 4, "N": 3, "O": 2, "F": 1,
    "P": 3, "S": 2, "Cl": 1, "Br": 1, "I": 1,
}

# simple lone-pair rule; a pharmacophore factory is out of scope
ACCEPTOR_ELEMENTS = frozenset({"N", "O"})


@dataclass(frozen=True)
class FeaturizerConfig:
    schema_key: str = "full"  # "full" (8 attributes) or "reduced" (5 attributes)

    def __post_init__(self):
        if self.schema_key not in BUNDLED_SCHEMAS:
            raise SchemaError(f"unknown schema selection {self.schema_key!r}")

    @property
    def schema(self) -> AttributeSchema:
        return BUNDLED_SCHEMAS[self.schema_key]


def _bucket(schema: AttributeSchema, j: int, value) -> int:
    return schema.index_of(j, value)


def _unknown_index(schema: AttributeSchema, j: int) -> int:
    values = schema.values_of(j)
    if values[-1] != UNKNOWN:
        raise SchemaError(f"attribute {schema.attribute_names[j]!r} has no Unknown slot")
    return len(values) - 1


def featurize(rec: MolRecord, cfg: FeaturizerConfig | None = None):
    """Compute the vertex attribute table for a parsed record.

    Returns ``(graph, warnings)``. Heavy atoms keep their record order;
    vertex i is the i-th non-hydrogen atom.
    """
    cfg = cfg or FeaturizerConfig()
    schema = cfg.schema
    warnings: list[str] = []

    n = rec.num_atoms
    total_bonds = [0] * n
    explicit_h = [0] * n
    aromatic = [False] * n
    heavy_neighbors: list[list[int]] = [[] for _ in range(n)]

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
        degree = len(heavy_neighbors[old])
        valence = DEFAULT_VALENCE.get(atom.symbol)
        if valence is None:
            num_h = None
            implicit = None
            warnings.append(
                f"atom {old + 1} ({atom.symbol}): no valence entry, hydrogen count unknown"
            )
        else:
            implicit = valence - total_bonds[old] - abs(atom.charge)
            num_h = explicit_h[old] + implicit

        acceptor = atom.symbol in ACCEPTOR_ELEMENTS
        row = {
            "symbol": atom.symbol,
            "degree": degree,
            "num_hydrogen": num_h,
            "implicit_valence": implicit,
            "charge": atom.charge,
            "is_aromatic": aromatic[old],
            "is_acceptor": acceptor,
            "is_donor": acceptor and bool(num_h and num_h > 0),
        }
        rows.append(_encode_row(schema, row))

    edges = []
    for b in rec.bonds:
        u, v = b.u - 1, b.v - 1
        if u in new_index and v in new_index:
            edges.append((new_index[u], new_index[v]))

    attr = np.asarray(rows, dtype=np.int64).reshape(len(heavy), schema.num_attributes)
    g = MolecularGraph(
        num_vertices=len(heavy),
        attr=attr,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        graph_id=rec.name or None,
        schema_fingerprint=schema.fingerprint,
    )
    return g, warnings


def _encode_row(schema: AttributeSchema, row: dict) -> list[int]:
    out = []
    for j, name in enumerate(schema.attribute_names):
        value = row[name]
        if name in ("symbol", "degree"):
            out.append(_bucket(schema, j, value))
        elif name in ("num_hydrogen", "implicit_valence"):
            if value is None:
                out.append(_unknown_index(schema, j))
            else:
                top = len(schema.values_of(j)) - 2  # last numeric token before Unknown
                out.append(min(max(value, 0), top))
        elif name == "charge":
            out.append(_bucket(schema, j, value))
        else:  # yes/no flags
            out.append(1 if value else 0)
    return out
