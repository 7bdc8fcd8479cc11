"""Attribute schemas for vertex-attributed graphs.

A schema declares an ordered list of discrete attributes, each with an
ordered value vocabulary. It fixes the one-hot layout used everywhere
else: attribute j owns the index block [offset_j, offset_j + k_j).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate


class SchemaError(ValueError):
    """Raised for structurally invalid schemas or schema mismatches."""


UNKNOWN = "Unknown"


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered discrete attributes with per-attribute value vocabularies.

    ``attributes`` is a tuple of (name, values) pairs. ``cardinalities[j]``
    (k_j) is the vocabulary size of attribute j, ``total_width`` (K) is the
    sum of cardinalities, and ``offsets[j]`` is where attribute j's block
    starts in the concatenated one-hot encoding.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]
    name: str = "custom"
    _value_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # walks are excluded by attribute keys: with none, a walk may step back
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a for a, _ in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        lookup = {}
        for attr_name, values in self.attributes:
            if len(values) < 2:
                raise SchemaError(f"attribute {attr_name!r} needs >= 2 values")
            if len(set(values)) != len(values):
                raise SchemaError(f"duplicate value token in attribute {attr_name!r}")
            lookup[attr_name] = {v: i for i, v in enumerate(values)}
        object.__setattr__(self, "_value_index", lookup)

    @classmethod
    def from_pairs(cls, pairs, name="custom"):
        attrs = tuple((str(n), tuple(str(v) for v in vals)) for n, vals in pairs)
        return cls(attributes=attrs, name=name)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(values) for _, values in self.attributes)

    @cached_property
    def total_width(self) -> int:
        return sum(self.cardinalities)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.cardinalities, initial=0))[:-1]

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)

    def values_of(self, j: int) -> tuple[str, ...]:
        return self.attributes[j][1]

    def index_of(self, j: int, token: str) -> int:
        """Map a value token to its index within attribute j.

        Tokens absent from the vocabulary fall back to the designated
        ``Unknown`` catch-all when the attribute has one; otherwise this
        raises.
        """
        name, values = self.attributes[j]
        idx = self._value_index[name].get(str(token))
        if idx is not None:
            return idx
        if values[-1] == UNKNOWN:
            return len(values) - 1
        raise SchemaError(f"value {token!r} not in attribute {name!r} and no Unknown slot")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attributes": [{"name": n, "values": list(v)} for n, v in self.attributes],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttributeSchema":
        attrs = doc.get("attributes") if isinstance(doc, dict) else None
        if not (isinstance(attrs, list) and all(isinstance(a, dict) and "name" in a
                                                and isinstance(a.get("values"), list)
                                                for a in attrs)):
            raise SchemaError("a schema must be an object whose attributes are objects "
                              "with a name and a list of values")
        pairs = [(a["name"], a["values"]) for a in attrs]
        return cls.from_pairs(pairs, name=doc.get("name", "custom"))

    @cached_property
    def fingerprint(self) -> str:
        """Stable hash of the attribute layout (names + value vocabularies)."""
        payload = json.dumps(
            [[n, list(v)] for n, v in self.attributes], separators=(",", ":")
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def schema_id(self) -> str:
        return f"{self.name}:{self.fingerprint}"


_SYMBOLS = ("C", "Cl", "I", "F", "O", "N", "P", "S", "Br", UNKNOWN)
_COUNT_0_5 = ("0", "1", "2", "3", "4", "5", UNKNOWN)
_COUNT_0_4 = ("0", "1", "2", "3", "4", UNKNOWN)
_CHARGES = ("-2", "-1", "0", "1", "2", UNKNOWN)
_FLAG = ("no", "yes")

# 42-slot layout: 8 attributes covering symbol, connectivity, hydrogens,
# valence, charge, aromaticity and acceptor/donor flags.
FULL_SCHEMA = AttributeSchema.from_pairs(
    [
        ("symbol", _SYMBOLS),
        ("degree", _COUNT_0_5),
        ("num_hydrogen", _COUNT_0_5),
        ("implicit_valence", _COUNT_0_4),
        ("charge", _CHARGES),
        ("is_aromatic", _FLAG),
        ("is_acceptor", _FLAG),
        ("is_donor", _FLAG),
    ],
    name="molecule-full",
)

# 32-slot layout: 5 attributes, for inputs where hydrogen counts and
# acceptor/donor flags cannot be derived.
REDUCED_SCHEMA = AttributeSchema.from_pairs(
    [
        ("symbol", _SYMBOLS),
        ("degree", _COUNT_0_5),
        ("implicit_valence", _COUNT_0_5),
        ("charge", _CHARGES),
        ("is_aromatic", _FLAG),
    ],
    name="molecule-reduced",
)

BUNDLED_SCHEMAS = {"full": FULL_SCHEMA, "reduced": REDUCED_SCHEMA}
