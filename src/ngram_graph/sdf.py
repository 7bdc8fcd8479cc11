"""Minimal CTfile V2000 reader for MOL/SDF streams.

Only the fields needed downstream are parsed, and a record holds them as
arrays: ``symbols`` (one str per atom), ``charges`` (int64, one per atom)
and ``bonds`` (int64, one row of 1-based u, v and order per bond). Records
are split on ``$$$$`` delimiter lines. A record whose lines after its first
``M  END`` hold another ``M  END`` line is two records merged by a damaged
delimiter: it is a :class:`RecordError`, and parsing resumes after its first
``M  END``. Each field is cut by column position with one list
comprehension over the atom or bond lines of the whole stream, and array
masks check the fields of every record at once. A
malformed record yields a :class:`RecordError` carrying its line number and
naming its first bad line, while parsing continues with the next record.

Charges come from the atom-block charge codes unless the record has
``M  CHG`` property lines. As the CTfile specification says, those then
supersede every atom-block charge of the record: the codes are still
checked, but neither their charges nor the radical marker count.

:func:`parse_sdf` runs with the cyclic garbage collector paused
(``graph._collector_paused``): its lines, fields and records hold no
reference cycles, and at 20,000 records the collections it would start
took about a tenth of its time, freeing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _collector_paused

# Atom-block charge codes (column 36-38). Code 4 is a radical marker, not a
# charge; it maps to 0 and raises a warning on the record.
CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}
_CODE_CHARGE = np.array([CHARGE_CODES[c] for c in range(8)], dtype=np.int64)
# a field int() rejects; every column read holds at most 4 characters, so
# no valid field comes near it
_BAD = -(10**6)


@dataclass(frozen=True, eq=False)
class MolRecord:
    name: str
    symbols: tuple[str, ...]
    charges: np.ndarray  # int64 (n,)
    bonds: np.ndarray  # int64 (nb, 3): 1-based u, v and order
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RecordError:
    line: int  # 1-based line number in the input stream
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


def _int_field(line: str, lo: int, hi: int, what: str) -> int:
    raw = line[lo:hi].strip()
    if not raw:
        raise ValueError(f"empty {what} field")
    return int(raw)


def _ints(fields: list[str], empty: int) -> np.ndarray:
    """``int()`` of each stripped field, ``empty`` for a blank one and
    ``_BAD`` where ``int()`` fails: one conversion per distinct field. (The
    strip is ``str.strip``: ``int()``'s own skips fewer characters.)"""
    value = {}
    for f in set(fields):
        raw = f.strip()
        try:
            value[f] = int(raw) if raw else empty
        except ValueError:
            value[f] = _BAD
    return np.fromiter(map(value.__getitem__, fields), dtype=np.int64, count=len(fields))


def _counts(lines: list[str]) -> tuple[int, int]:
    """Atom and bond count of a record from its counts line."""
    if len(lines) < 4:
        raise ValueError("record shorter than header + counts line")
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
    if len(lines) - 4 < num_atoms + num_bonds:
        raise ValueError(
            f"truncated record: expected {num_atoms} atom + {num_bonds} bond lines, "
            f"found {len(lines) - 4}"
        )
    return num_atoms, num_bonds


def _line_problem(i: int, line: str, values: list, num_atoms: int) -> str:
    """The first check that bad line i (1-based) fails, from the values read
    off it (an atom's charge code; a bond's u, v, order). A ``_BAD`` field
    gets :func:`_int_field`'s message; a bond passing all else repeats."""
    atom = len(values) == 1
    if atom and not line[30:34].strip():
        return f"atom {i}: empty symbol field"
    for lo, value in zip((36,) if atom else (0, 3, 6), values):
        if value == _BAD:
            try:
                _int_field(line, lo, lo + 3, "bond endpoint")
            except ValueError as exc:
                return str(exc)
    if atom:
        return f"atom {i}: unknown charge code {values[0]}"
    u, v, order = values
    if not (1 <= u <= num_atoms and 1 <= v <= num_atoms) or u == v:
        return f"bond {i}: endpoints ({u},{v}) out of range"
    if not 1 <= order <= 4:
        return f"bond {i}: order {order} outside 1..4"
    return f"bond {i}: duplicate bond ({u},{v})"


def _charge_lines(props: list[str], num_atoms: int, lineno: int) -> np.ndarray | None:
    """The charges set by the ``M  CHG`` lines of a property block (whose
    first line is stream line ``lineno``), or None when it has none.

    A line holds a count (1-8) and that many atom/charge pairs of 4-column
    fields; atoms it does not name are neutral, and a later pair wins.
    """
    charges = None
    for offset, line in enumerate(props):
        if line.startswith("M  END"):
            break
        if not line.startswith("M  CHG"):
            continue
        where = f"M  CHG line {lineno + offset}"
        try:
            count = _int_field(line, 6, 9, "count")
            if not 1 <= count <= 8:
                raise ValueError(f"count {count} outside 1..8")
            pairs = [
                (_int_field(line, p, p + 4, "atom"), _int_field(line, p + 4, p + 8, "charge"))
                for p in range(9, 9 + 8 * count, 8)
            ]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if charges is None:
            charges = np.zeros(num_atoms, dtype=np.int64)
        for atom, charge in pairs:
            if not 1 <= atom <= num_atoms:
                raise ValueError(f"{where}: atom {atom} out of range")
            charges[atom - 1] = charge
    return charges


@_collector_paused()
def parse_sdf(data) -> tuple[list[MolRecord], list[RecordError]]:
    """Split MOL/SDF text (``bytes`` or ``str``) on ``$$$$`` and parse each record.

    Returns ``(records, errors)`` with input order preserved on both.
    A trailing record without the delimiter (plain .mol file) is accepted.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lines = data.splitlines()
    cuts = [i for i, line in enumerate(lines) if line.startswith("$$$$")]

    problems = {}  # first line (0-based) of a bad record -> message
    heads = []  # (first line, end, atoms, bonds) of the records whose counts read
    spans = list(zip([0] + [i + 1 for i in cuts], cuts + [len(lines)]))[::-1]
    while spans:
        start, end = spans.pop()
        rec = lines[start:end]
        if not any(line.strip() for line in rec):
            continue
        try:
            a, b = _counts(rec)
        except ValueError as exc:
            problems[start] = str(exc)
            continue
        ends = [i for i in range(start + 4 + a + b, end) if lines[i].startswith("M  END")]
        if len(ends) > 1:
            problems[start] = (f"second M  END at line {ends[1] + 1}: "
                               "a damaged $$$$ line merged two records")
            spans.append((ends[0] + 1, end))
            continue
        heads.append((start, end, a, b))

    na = np.array([h[2] for h in heads], dtype=np.int64)
    nb = np.array([h[3] for h in heads], dtype=np.int64)
    atom_lines = [line for s, _, a, _ in heads for line in lines[s + 4 : s + 4 + a]]
    bond_lines = [line for s, _, a, b in heads for line in lines[s + 4 + a : s + 4 + a + b]]
    symbols = [line[30:34].strip() for line in atom_lines]
    codes = _ints([line[36:39] for line in atom_lines], empty=0)
    u = _ints([line[0:3] for line in bond_lines], empty=_BAD)
    v = _ints([line[3:6] for line in bond_lines], empty=_BAD)
    order = _ints([line[6:9] for line in bond_lines], empty=1)

    # masks: a record is bad when any of its atoms or bonds is
    bad_atom = ~np.fromiter(map(bool, symbols), dtype=bool, count=len(symbols))
    bad_atom |= (codes < 0) | (codes > 7)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad_bond = (lo < 1) | (hi > np.repeat(na, nb)) | (lo == hi) | (order < 1) | (order > 4)
    # a repeated pair, keyed by its corpus atom indices (bad bonds never match)
    atom_base = np.concatenate([[0], np.cumsum(na)])
    bond_base = np.concatenate([[0], np.cumsum(nb)])
    shift = np.repeat(atom_base[:-1], nb) - 1
    key = (lo + shift) * (atom_base[-1] + 1) + hi + shift
    key[bad_bond] = -1 - np.flatnonzero(bad_bond)
    by_key = np.argsort(key, kind="stable")
    bad_bond[by_key[1:][np.diff(key[by_key]) == 0]] = True
    # a bad record is named by its first bad line: atom lines, then bond lines
    bad_atoms, bad_bonds = np.flatnonzero(bad_atom), np.flatnonzero(bad_bond)
    owner = np.concatenate([np.repeat(np.arange(len(heads)), na)[bad_atoms],
                            np.repeat(np.arange(len(heads)), nb)[bad_bonds]])
    for k, x in zip(*(arr.tolist() for arr in np.unique(owner, return_index=True))):
        s, _, a, _ = heads[k]
        if x < bad_atoms.size:
            i = bad_atoms[x]
            problems[s] = _line_problem(i - atom_base[k] + 1, atom_lines[i], [codes[i]], a)
        else:
            i = bad_bonds[x - bad_atoms.size]
            problems[s] = _line_problem(i - bond_base[k] + 1, bond_lines[i],
                                        [u[i], v[i], order[i]], a)

    charges = _CODE_CHARGE[np.clip(codes, 0, 7)]
    bonds = np.stack([u, v, order], axis=1)
    for arr in (charges, bonds):
        arr.setflags(write=False)
    records = []
    radicals = np.flatnonzero(codes == 4)  # corpus atom indices, sliced per record
    rad_base = np.searchsorted(radicals, atom_base).tolist()
    radicals = radicals.tolist()
    for (s, e, a, b), a0, b0, r0, r1 in zip(heads, atom_base.tolist(), bond_base.tolist(),
                                            rad_base, rad_base[1:]):
        if s in problems:
            continue
        try:
            chg = _charge_lines(lines[s + 4 + a + b : e], a, s + 5 + a + b)
        except ValueError as exc:
            problems[s] = str(exc)
            continue
        warnings = ()
        if chg is None:
            chg = charges[a0 : a0 + a]
            warnings = tuple(f"atom {i - a0 + 1}: radical charge code 4 treated as charge 0"
                             for i in radicals[r0:r1])
        records.append(MolRecord(
            name=lines[s].strip(),
            symbols=tuple(symbols[a0 : a0 + a]),
            charges=chg,
            bonds=bonds[b0 : b0 + b],
            warnings=warnings,
        ))
    errors = [RecordError(line=s + 1, message=problems[s]) for s in sorted(problems)]
    return records, errors
