"""Vertex embedding matrices: random generation, lookup, and file format.

The matrix W has one column per one-hot slot (r x K); a vertex embeds as
the sum of the columns selected by its attribute values. Matrices carry the
schema they were built against so they can never be applied to graphs
encoded under a different vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixio
from .graph import MolecularGraph, attribute_violations, ones_csr, out_of_range
from .schema import AttributeSchema, SchemaError


class EmbeddingError(ValueError):
    """Raised on schema mismatches or corrupt embedding files."""


@dataclass(frozen=True)
class VertexEmbeddingMatrix:
    matrix: np.ndarray  # r x K
    schema: AttributeSchema
    provenance: dict

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise EmbeddingError("embedding matrix must be 2-d")
        if m.shape[1] != self.schema.total_width:
            raise EmbeddingError(
                f"matrix has {m.shape[1]} columns, schema K={self.schema.total_width}"
            )
        if np.issubdtype(m.dtype, np.floating) and not np.isfinite(m).all():
            raise EmbeddingError("embedding matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def random_embedding(
    schema: AttributeSchema,
    r: int,
    dist: str = "rademacher",
    seed: int | None = 0,
) -> VertexEmbeddingMatrix:
    """I.i.d. random W: rademacher = uniform {-c, +c}, gaussian = N(0, c^2),
    with c = r^(-1/2), which keeps column norms near one.
    """
    if r < 1:
        raise EmbeddingError(f"embedding dimension must be >= 1, got {r}")
    c = r ** -0.5
    rng = np.random.default_rng(seed)
    K = schema.total_width
    if dist == "rademacher":
        w = c * rng.choice((-1.0, 1.0), size=(r, K))
    elif dist == "gaussian":
        w = c * rng.standard_normal((r, K))
    else:
        raise EmbeddingError(f"unknown distribution {dist!r}")
    prov = {"kind": f"random-{dist}", "seed": seed, "scale": c, "r": r}
    return VertexEmbeddingMatrix(matrix=w, schema=schema, provenance=prov)


def check_schema(g: MolecularGraph, emb: VertexEmbeddingMatrix) -> None:
    """Raise EmbeddingError unless g is encoded under the embedding's schema:
    by its fingerprint, if any, and its attribute table's width and ranges."""
    if g.schema_fingerprint not in (None, emb.schema.fingerprint):
        raise EmbeddingError(
            "schema fingerprint mismatch: graph "
            f"{g.schema_fingerprint} vs embedding {emb.schema.fingerprint}"
        )
    violations = attribute_violations(g.attr, emb.schema)
    if violations:
        raise EmbeddingError("graph invalid under embedding schema: " + "; ".join(violations))


def _off_schema(graphs, emb: VertexEmbeddingMatrix) -> np.ndarray:
    """Which graphs :func:`check_schema` refuses, as a mask: fingerprints and
    widths graph by graph, index ranges on the stacked tables at once."""
    schema = emb.schema
    fits = np.array([g.schema_fingerprint in (None, schema.fingerprint)
                     and g.attr.shape[1] == schema.num_attributes for g in graphs], dtype=bool)
    tables = [g.attr for g, ok in zip(graphs, fits) if ok]
    if tables:
        fits[fits] = ~out_of_range(np.concatenate(tables), [len(t) for t in tables], schema)
    return ~fits


def vertex_rows(attr: np.ndarray, emb: VertexEmbeddingMatrix) -> np.ndarray:
    """Vertex embeddings as rows (m x r, row i = W h_i) of a checked attribute
    table, for any number of graphs: H W^T, h_i being row i of a sparse H.
    scipy sums each row from 0 in CSR order, which is schema order, in W's
    dtype; an index out of range would read outside W^T unnoticed."""
    m, S = attr.shape
    H = ones_csr(np.arange(0, m * S + 1, S), (attr + emb.schema.offsets).ravel(),
                 emb.schema.total_width)
    return H @ np.ascontiguousarray(emb.matrix.T)


def save_embedding(path, emb: VertexEmbeddingMatrix) -> None:
    meta = {
        "kind": "vertex-embedding",
        "r": emb.dim,
        "K": emb.schema.total_width,
        "schema_fingerprint": emb.schema.fingerprint,
        "schema": emb.schema.to_dict(),
        "provenance": emb.provenance,
    }
    matrixio.write_matrix(path, emb.matrix, meta)


def load_embedding(path) -> VertexEmbeddingMatrix:
    matrix, meta = matrixio.read_matrix(path)
    if meta.get("kind") != "vertex-embedding":
        raise EmbeddingError(f"{path}: not a vertex embedding file")
    if "schema" not in meta or "schema_fingerprint" not in meta:
        raise EmbeddingError(f"{path}: schema fingerprint missing from header")
    try:
        schema = AttributeSchema.from_dict(meta["schema"])
    except SchemaError as exc:
        raise EmbeddingError(f"{path}: {exc}") from None
    if schema.fingerprint != meta["schema_fingerprint"]:
        raise EmbeddingError(f"{path}: schema fingerprint does not match stored schema")
    return VertexEmbeddingMatrix(
        matrix=matrix, schema=schema, provenance=meta.get("provenance", {})
    )
