"""Binary matrix container shared by embedding and feature files.

Layout: 8-byte magic ``NGGMATv1``, uint32 little-endian JSON header length,
UTF-8 JSON header, then the row-major little-endian payload. The header
carries shape, dtype and arbitrary metadata (provenance, manifests), so a
file is self-describing and round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"NGGMATv1"

_DTYPES = {"float64": "<f8", "int64": "<i8"}


class MatrixFormatError(ValueError):
    """Raised for unreadable or corrupt matrix files."""


def write_matrix(path, matrix: np.ndarray, meta: dict | None = None) -> None:
    matrix = np.asarray(matrix)
    if matrix.dtype == np.float64:
        dtype = "float64"
    elif matrix.dtype == np.int64:
        dtype = "int64"
    else:
        matrix = matrix.astype(np.float64)
        dtype = "float64"
    header = dict(meta or {})
    header["shape"] = list(matrix.shape)
    header["dtype"] = dtype
    blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(matrix, dtype=_DTYPES[dtype]).tobytes())


def read_matrix(path):
    """Return ``(matrix, meta)``; MatrixFormatError names what is corrupt:
    the magic, the header, its shape or dtype, or the payload's length."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise MatrixFormatError(f"{path}: not a matrix file (bad magic)")
    off = len(MAGIC)
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    try:
        meta = json.loads(data[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFormatError(f"{path}: corrupt header ({exc})") from exc
    off += hlen
    if not isinstance(meta, dict):
        raise MatrixFormatError(f"{path}: header is not a JSON object")
    shape, dtype = meta.get("shape"), meta.get("dtype")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise MatrixFormatError(f"{path}: shape {shape!r} is not a list of "
                                "non-negative integers")
    if dtype not in tuple(_DTYPES):
        raise MatrixFormatError(f"{path}: unsupported dtype {dtype!r}")
    count = math.prod(shape)
    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    if len(data) - off != count * itemsize:
        raise MatrixFormatError(f"{path}: payload has {len(data) - off} bytes where shape "
                                f"{shape} of {dtype} needs {count * itemsize}")
    flat = np.frombuffer(data, dtype=_DTYPES[dtype], count=count, offset=off)
    return flat.reshape(shape).copy(), meta


def csv_field(text) -> str:
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it: in double quotes, with
    quotes doubled, only when it holds a comma, a quote or a line break."""
    text = str(text)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, matrix: np.ndarray, header: list[str], row_ids) -> None:
    """One line per row: its id (:func:`csv_field`), then each value as
    Python's ``repr`` of the float.

    orjson formats a row in one call with the same shortest digits as
    ``repr``; it spells only exponents and non-finite values differently
    (``1e16``, ``1e-5``, ``null``), so a value that is not finite, or nonzero
    outside [1e-4, 1e16), is re-formatted with ``repr``: it is set to NaN
    before the call, so orjson writes ``null`` in its place, and each
    ``null`` is replaced. Rows are formatted and masked one at a time, never
    the whole matrix at once.
    """
    import orjson  # loaded at the first CSV write, not at start-up

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(np.asarray(matrix)):
            # orjson refuses a strided row; an integer row becomes floats here
            row = np.ascontiguousarray(row, dtype=np.float64)
            size = np.abs(row)
            odd = ~(size < 1e16) | ((size < 1e-4) & (size > 0))
            cells = orjson.dumps(np.where(odd, np.nan, row),
                                 option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
            if odd.any():
                gaps = cells.split("null")
                cells = "".join(gap + repr(v) for gap, v in zip(gaps, row[odd].tolist()))
                cells += gaps[-1]
            fh.write(f"{csv_field(row_ids[i])},{cells}\n")
