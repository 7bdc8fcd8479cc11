"""Minimal CTfile V2000 reader for MOL/SDF streams.

Only the fields needed downstream are parsed: atom symbols, atom-block
charge codes and the bond table. Fields are cut by column position, records
are split on ``$$$$`` delimiter lines, and a malformed record yields a
:class:`RecordError` carrying its line number while parsing continues with
the next record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Atom-block charge codes (column 36-38). Code 4 is a radical marker, not a
# charge; it maps to 0 and raises a warning on the record.
CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}


@dataclass(frozen=True)
class Atom:
    symbol: str
    charge: int


@dataclass(frozen=True)
class Bond:
    u: int  # 1-based atom index
    v: int
    order: int


@dataclass(frozen=True)
class MolRecord:
    name: str
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    warnings: tuple[str, ...] = ()

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def degrees(self) -> list[int]:
        d = [0] * len(self.atoms)
        for b in self.bonds:
            d[b.u - 1] += 1
            d[b.v - 1] += 1
        return d


@dataclass(frozen=True)
class RecordError:
    line: int  # 1-based line number in the input stream
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class _Record:
    start_line: int
    lines: list = field(default_factory=list)


def _int_field(line: str, lo: int, hi: int, what: str) -> int:
    raw = line[lo:hi].strip()
    if not raw:
        raise ValueError(f"empty {what} field")
    return int(raw)


def _parse_record(rec: _Record) -> MolRecord:
    lines = rec.lines
    if len(lines) < 4:
        raise ValueError("record shorter than header + counts line")
    name = lines[0].strip()
    counts = lines[3]
    try:
        num_atoms = _int_field(counts, 0, 3, "atom count")
        num_bonds = _int_field(counts, 3, 6, "bond count")
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

    warnings: list[str] = []
    atoms = []
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
        atoms.append(Atom(symbol=symbol, charge=CHARGE_CODES[code]))

    bonds = []
    seen = set()
    for i in range(num_bonds):
        line = body[num_atoms + i]
        u = _int_field(line, 0, 3, "bond endpoint")
        v = _int_field(line, 3, 6, "bond endpoint")
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
        bonds.append(Bond(u=u, v=v, order=order))

    return MolRecord(name=name, atoms=tuple(atoms), bonds=tuple(bonds), warnings=tuple(warnings))


def parse_sdf(data) -> tuple[list[MolRecord], list[RecordError]]:
    """Split a MOL/SDF stream on ``$$$$`` and parse each record.

    Returns ``(records, errors)`` with input order preserved on both.
    A trailing record without the delimiter (plain .mol file) is accepted.
    """
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")

    records: list[MolRecord] = []
    errors: list[RecordError] = []
    current = _Record(start_line=1)
    for lineno, line in enumerate(data.splitlines(), start=1):
        if line.startswith("$$$$"):
            _finish(current, records, errors)
            current = _Record(start_line=lineno + 1)
        else:
            current.lines.append(line)
    _finish(current, records, errors)
    return records, errors


def _finish(rec: _Record, records: list, errors: list) -> None:
    if not any(line.strip() for line in rec.lines):
        return
    try:
        records.append(_parse_record(rec))
    except ValueError as exc:
        errors.append(RecordError(line=rec.start_line, message=str(exc)))
