"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and returns the same inputs for the same seed.
None of them reads the test suite's fixtures, so editing a test can never
shift a workload. Counts and size ranges are fixed per call and the seed only
draws the structure, which keeps the work of a pass nearly constant across
seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# -- molecules: V2000 SDF text ---------------------------------------------------

# Heavy-atom element draw. Si, B and Se have no default valence in the
# featurizer, so their hydrogen count and implicit valence become Unknown.
_ELEMENTS = ("C", "N", "O", "S", "Cl", "F", "Br", "I", "P", "Si", "B", "Se")
_ELEMENT_P = (0.56, 0.12, 0.12, 0.04, 0.03, 0.03, 0.02, 0.01, 0.02, 0.02, 0.02, 0.01)
# Atom-block charge codes: 0 none, 3/5 = +1/-1, 2/6 = +2/-2, 1/7 = +3/-3
# (outside the charge vocabulary), 4 = radical marker.
_CHARGE_CODES = (0, 3, 5, 2, 6, 1, 7, 4)
_CHARGE_P = (0.85, 0.04, 0.04, 0.015, 0.015, 0.01, 0.01, 0.02)


@dataclass(frozen=True)
class MoleculeSet:
    sdf: str
    heavy_atoms: tuple[int, ...]   # vertices each record must featurize to
    heavy_bonds: tuple[int, ...]   # edges each record must featurize to
    total_atoms: int               # including explicit hydrogens


def _atom_line(symbol: str, code: int) -> str:
    return f"{0.0:>10.4f}{0.0:>10.4f}{0.0:>10.4f} {symbol:<3}{0:>2}{code:>3}" + "  0" * 10


def _molecule(rng, name: str, m_range=(15, 31)):
    """One record: a heavy-atom tree plus a ring, bond orders 1/2/4, explicit H."""
    m = int(rng.integers(*m_range))
    symbols = list(rng.choice(_ELEMENTS, size=m, p=_ELEMENT_P))
    codes = [int(c) for c in rng.choice(_CHARGE_CODES, size=m, p=_CHARGE_P)]
    # aromatic six-ring on the first atoms, written as order-4 bonds
    bonds = {(i, i + 1): 4 for i in range(5)}
    bonds[(0, 5)] = 4
    for i in range(6, m):
        parent = int(rng.integers(0, i))
        bonds[(parent, i)] = 2 if rng.random() < 0.12 else 1
    # one extra ring closure between non-adjacent atoms
    u, v = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
    if (u, v) not in bonds:
        bonds[(u, v)] = 1
    heavy_bonds = len(bonds)
    # explicit hydrogens hang off about a third of the heavy atoms
    atoms = list(zip(symbols, codes))
    for i in range(m):
        if rng.random() < 0.35:
            for _ in range(int(rng.integers(1, 3))):
                atoms.append(("H", 0))
                bonds[(i, len(atoms) - 1)] = 1
    lines = [name, "  perfbench", ""]
    lines.append(f"{len(atoms):>3}{len(bonds):>3}  0  0  0  0  0  0  0  0999 V2000")
    lines.extend(_atom_line(sym, code) for sym, code in atoms)
    lines.extend(f"{a + 1:>3}{b + 1:>3}{order:>3}  0" for (a, b), order in bonds.items())
    lines.append("M  END")
    return "\n".join(lines), m, heavy_bonds, len(atoms)


def molecule_sdf(seed: int, n_records: int) -> MoleculeSet:
    """A V2000 SDF stream of molecule-sized records (15-30 heavy atoms).

    Covers every featurizer branch: explicit hydrogens, order-4 (aromatic)
    bonds, every charge code including the radical marker, and elements
    without a default valence.
    """
    rng = np.random.default_rng([seed, 1])
    blocks, heavy, hbonds, total = [], [], [], 0
    for i in range(n_records):
        text, m, nb, na = _molecule(rng, f"mol{i}")
        blocks.append(text)
        heavy.append(m)
        hbonds.append(nb)
        total += na
    return MoleculeSet(
        sdf="\n$$$$\n".join(blocks) + "\n$$$$\n",
        heavy_atoms=tuple(heavy),
        heavy_bonds=tuple(hbonds),
        total_atoms=total,
    )


# -- kfold-path: planted-label corpus --------------------------------------------


def _path_subset_counts(k: int, edges, level: int) -> np.ndarray:
    """Occurrences of each value subset along walks of ``level`` distinct
    vertices (both directions), one coordinate per subset.

    Vertex i carries value i, so a walk with distinct values is a path and
    its value set is its vertex set.
    """
    nbrs = [[] for _ in range(k)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    index = {s: i for i, s in enumerate(combinations(range(k), level))}
    counts = np.zeros(len(index))
    stack = [(v, (v,)) for v in range(k)]
    while stack:
        v, path = stack.pop()
        if len(path) == level:
            counts[index[tuple(sorted(path))]] += 1
            continue
        stack.extend((u, path + (u,)) for u in nbrs[v] if u not in path)
    return counts


_PLANTED_THETA_SEED = 20180624


@dataclass(frozen=True)
class PlantedCorpus:
    k: int
    edges: tuple             # per graph, sorted (u, v) pairs with u < v
    labels: np.ndarray       # (n,) in {0, 1}


def planted_corpus(seed: int, n_graphs: int, k: int = 6, planted_level: int = 4,
                   extra_edges: int = 3) -> PlantedCorpus:
    """k-vertex graphs in which vertex i carries value i; only the edges
    vary. Level-1 features are therefore bit-identical across graphs and
    carry nothing, while the label thresholds a fixed random linear
    functional of the level-``planted_level`` path counts at their median."""
    rng = np.random.default_rng([seed, 2])
    all_edges = []
    for _ in range(n_graphs):
        order = rng.permutation(k)
        edges = {tuple(sorted((int(order[i]), int(order[i + 1])))) for i in range(k - 1)}
        for _ in range(extra_edges):
            u, v = sorted(int(x) for x in rng.integers(0, k, 2))
            if u != v:
                edges.add((u, v))
        all_edges.append(tuple(sorted(edges)))
    level = np.stack([_path_subset_counts(k, edges, planted_level) for edges in all_edges])
    # The planted functional does not depend on the seed, so every seed
    # poses a task of the same difficulty; the seed varies the graphs.
    theta = np.random.default_rng(_PLANTED_THETA_SEED).standard_normal(level.shape[1])
    score = level @ theta
    labels = (score > np.median(score)).astype(np.float64)
    return PlantedCorpus(k=k, edges=tuple(all_edges), labels=labels)


# -- large-graph: sparse full-schema JSON documents ------------------------------


def large_graph_docs(seed: int, sizes, cardinalities, schema_id: str,
                     extra_edge_frac: float = 0.15) -> list[dict]:
    """Sparse connected graphs: a random spanning tree plus
    ``extra_edge_frac * m`` random chords, attributes drawn uniformly."""
    rng = np.random.default_rng([seed, 3])
    docs = []
    for gi, m in enumerate(sizes):
        attrs = np.stack([rng.integers(0, k, size=m) for k in cardinalities], axis=1)
        parents = (rng.random(m - 1) * np.arange(1, m)).astype(np.int64)
        edges = set(zip(parents.tolist(), range(1, m)))
        target = len(edges) + int(extra_edge_frac * m)
        while len(edges) < target:
            u, v = sorted(int(x) for x in rng.integers(0, m, 2))
            if u != v:
                edges.add((u, v))
        docs.append({
            "schema_id": schema_id,
            "id": f"big{gi}",
            "num_vertices": int(m),
            "attributes": attrs.tolist(),
            "edges": [list(e) for e in sorted(edges)],
        })
    return docs


def jsonl(docs) -> str:
    return "".join(json.dumps(d, separators=(",", ":")) + "\n" for d in docs)


# -- count-lab: attribute-distinct graphs ----------------------------------------


@dataclass(frozen=True)
class DistinctGraph:
    attr: np.ndarray     # (m, S); every column holds distinct values
    edges: np.ndarray    # (e, 2) with u < v


def distinct_graphs(seed: int, n_graphs: int, cardinalities, m_range=(5, 8),
                    density: float = 0.45) -> list[DistinctGraph]:
    """Connected graphs whose attribute columns never repeat a value, so
    every path survives the distinct-value filter of the count statistics."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for _ in range(n_graphs):
        m = int(rng.integers(*m_range))
        attr = np.stack([rng.choice(k, size=m, replace=False) for k in cardinalities],
                        axis=1)
        order = rng.permutation(m)
        edges = {tuple(sorted((int(order[i]), int(order[i + 1])))) for i in range(m - 1)}
        edges |= {(i, j) for i in range(m) for j in range(i + 1, m)
                  if rng.random() < density}
        out.append(DistinctGraph(attr=attr,
                                 edges=np.array(sorted(edges), dtype=np.int64)))
    return out
