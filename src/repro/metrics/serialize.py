"""JSON-compatible (de)serialization of call records, in two layouts.

* **Rows** — :func:`record_to_dict` / :func:`records_to_dicts` give one
  JSON object per record.  The golden fingerprints and the benchmark's
  reference digests hash this form, so it never changes.
* **Columns** — :func:`records_to_columns` / :func:`records_from_columns`
  are what the on-disk result cache (:mod:`repro.experiments.parallel`)
  stores: ``{"n": N, "columns": {field: column}}`` in field order.  A
  float column is base64 text of its little-endian float64 bytes
  (:func:`pack_floats`), which keeps every bit (``-0.0``, subnormals,
  infinities, NaN payloads), so a record loaded from the cache is
  bit-identical to the record that was stored — the property the
  serial-vs-parallel identity tests rely on.  A string column is its
  sorted distinct values plus one integer code per record; integer and
  boolean columns are plain lists.  The accumulator's t-digests store
  their centroids with the same float codec
  (:meth:`repro.metrics.streaming.TDigest.to_dict`).

Decoding validates every column (exactly ``n`` values, string codes in
range, well-formed base64) and raises :class:`ValueError` on damage, so
the cache treats a damaged entry as a miss instead of serving wrong
records.
"""

from __future__ import annotations

import base64
import struct
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, get_type_hints

from repro.metrics.records import CallRecord

__all__ = [
    "record_to_dict",
    "records_to_dicts",
    "records_to_columns",
    "records_from_columns",
    "pack_floats",
    "unpack_floats",
]

#: Field order is fixed by the named tuple's definition, so serialized
#: records are stable across runs (useful for diffing cache entries).
_RECORD_FIELDS = CallRecord._fields

#: Failure-injection fields are serialized *sparsely*: the failure-free
#: values are omitted, so records from the historical code path — and the
#: golden fingerprints computed over them — are byte-identical to before
#: the fields existed.
_SPARSE_DEFAULTS = {"attempts": 1, "outcome": "ok"}


def record_to_dict(record: CallRecord) -> Dict[str, Any]:
    """A JSON-compatible dict with one key per record field (sparse
    fields omitted at their failure-free defaults)."""
    data = {}
    for name, value in zip(_RECORD_FIELDS, record):
        if name in _SPARSE_DEFAULTS and value == _SPARSE_DEFAULTS[name]:
            continue
        data[name] = value
    return data


def records_to_dicts(records: Iterable[CallRecord]) -> List[Dict[str, Any]]:
    return [record_to_dict(r) for r in records]


# ----------------------------------------------------------------------
# Column layout
# ----------------------------------------------------------------------
def _unpack_list(column: Any, n: int) -> List[Any]:
    if not isinstance(column, list) or len(column) != n:
        raise ValueError(f"column does not hold {n} values")
    return column


def pack_floats(column: Sequence[float]) -> str:
    """Base64 text of ``column``'s little-endian float64 bytes."""
    return base64.b64encode(struct.pack(f"<{len(column)}d", *column)).decode("ascii")


def unpack_floats(text: str, n: Optional[int] = None) -> Tuple[float, ...]:
    """Inverse of :func:`pack_floats`: exactly ``n`` floats, or as many
    as the bytes hold when ``n`` is ``None``.  Raises :class:`ValueError`
    on malformed base64, a byte count that is not a multiple of 8, or
    (given ``n``) a count other than ``n``."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) % 8 or (n is not None and len(raw) != 8 * n):
        expected = "a multiple of 8" if n is None else 8 * n
        raise ValueError(f"float column holds {len(raw)} bytes, expected {expected}")
    return struct.unpack(f"<{len(raw) // 8}d", raw)


def _pack_strings(column: Sequence[str]) -> Dict[str, List[Any]]:
    values = sorted(set(column))
    code = {value: i for i, value in enumerate(values)}
    return {"values": values, "codes": [code[value] for value in column]}


def _unpack_strings(data: Dict[str, List[Any]], n: int) -> List[str]:
    values, codes = data["values"], _unpack_list(data["codes"], n)
    # A negative code would silently read from the end of the list.
    if codes and (min(codes) < 0 or max(codes) >= len(values)):
        raise ValueError(f"string code outside [0, {len(values)})")
    return [values[c] for c in codes]


#: Field type -> (encoder, decoder).  A field of any other type fails at
#: import.  The types come from ``get_type_hints``: the module uses
#: postponed evaluation, which leaves a named tuple's annotations as
#: ``ForwardRef``s.
_CODECS = {
    float: (pack_floats, unpack_floats),
    str: (_pack_strings, _unpack_strings),
    int: (list, _unpack_list),
    bool: (list, _unpack_list),
}
_FIELD_TYPES = get_type_hints(CallRecord)
_FIELD_CODECS = tuple(_CODECS[_FIELD_TYPES[name]] for name in _RECORD_FIELDS)


def records_to_columns(records: Sequence[CallRecord]) -> Dict[str, Any]:
    """The column layout of ``records``: ``{"n": N, "columns": {...}}``.

    Sparse fields are left out when every record holds the failure-free
    default, as :func:`record_to_dict` leaves them out of a row.
    """
    n = len(records)
    columns: Dict[str, Any] = {}
    transposed = list(zip(*records)) or [()] * len(_RECORD_FIELDS)
    for name, (encode, _), column in zip(_RECORD_FIELDS, _FIELD_CODECS, transposed):
        if name in _SPARSE_DEFAULTS and column.count(_SPARSE_DEFAULTS[name]) == n:
            continue
        columns[name] = encode(column)
    return {"n": n, "columns": columns}


def records_from_columns(data: Dict[str, Any]) -> List[CallRecord]:
    """Inverse of :func:`records_to_columns`.

    Unknown columns are ignored; a missing column raises :class:`KeyError`
    unless it is a sparse field, which then holds its default.  Damaged
    columns raise :class:`ValueError`.  Each record is built with
    ``tuple.__new__``, as ``CallRecord._make`` builds one, without the
    generated keyword ``__new__``.
    """
    n = data["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"record count {n!r} is not a non-negative integer")
    columns = data["columns"]
    decoded = []
    for name, (_, decode) in zip(_RECORD_FIELDS, _FIELD_CODECS):
        if name in _SPARSE_DEFAULTS and name not in columns:
            decoded.append(repeat(_SPARSE_DEFAULTS[name], n))
        else:
            decoded.append(decode(columns[name], n))
    new = tuple.__new__
    return [new(CallRecord, row) for row in zip(*decoded)]
