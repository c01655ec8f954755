"""JSON-compatible (de)serialization of call records, in two layouts.

* **Rows** — :func:`record_to_dict` / :func:`records_to_dicts` give one
  JSON object per record.  The golden fingerprints and the benchmark's
  reference digests hash this form, so it never changes.
* **Columns** — :func:`records_to_columns` / :func:`records_from_columns`
  are what the on-disk result cache (:mod:`repro.experiments.parallel`)
  stores: ``{"n": N, "columns": {field: column}}`` in dataclass field
  order.  A float column is base64 text of its little-endian float64
  bytes, which keeps every bit (``-0.0``, subnormals, infinities, NaN
  payloads), so a record loaded from the cache is bit-identical to the
  record that was stored — the property the serial-vs-parallel identity
  tests rely on.  A string column is its sorted distinct values plus one
  integer code per record; integer and boolean columns are plain lists.

Decoding validates every column (exactly ``n`` values, string codes in
range, well-formed base64) and raises :class:`ValueError` on damage, so
the cache treats a damaged entry as a miss instead of serving wrong
records.
"""

from __future__ import annotations

import base64
import struct
from dataclasses import fields
from itertools import repeat
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Sequence

from repro.metrics.records import CallRecord

__all__ = [
    "record_to_dict",
    "records_to_dicts",
    "records_to_columns",
    "records_from_columns",
]

#: Field order is fixed by the dataclass definition, so serialized records
#: are stable across runs (useful for diffing cache entries).
_RECORD_FIELDS = tuple(f.name for f in fields(CallRecord))

#: Failure-injection fields are serialized *sparsely*: the failure-free
#: values are omitted, so records from the historical code path — and the
#: golden fingerprints computed over them — are byte-identical to before
#: the fields existed.
_SPARSE_DEFAULTS = {"attempts": 1, "outcome": "ok"}


def record_to_dict(record: CallRecord) -> Dict[str, Any]:
    """A JSON-compatible dict with one key per dataclass field (sparse
    fields omitted at their failure-free defaults)."""
    data = {}
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
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


def _pack_floats(column: Sequence[float]) -> str:
    return base64.b64encode(struct.pack(f"<{len(column)}d", *column)).decode("ascii")


def _unpack_floats(text: str, n: int) -> Sequence[float]:
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * n:
        raise ValueError(f"float column holds {len(raw)} bytes, expected {8 * n}")
    return struct.unpack(f"<{n}d", raw)


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


#: Dataclass annotation (a string, the module uses postponed evaluation)
#: -> (encoder, decoder).  A field of any other type fails at import.
_CODECS = {
    "float": (_pack_floats, _unpack_floats),
    "str": (_pack_strings, _unpack_strings),
    "int": (list, _unpack_list),
    "bool": (list, _unpack_list),
}
_FIELD_CODECS = tuple(_CODECS[f.type] for f in fields(CallRecord))
_ROW = attrgetter(*_RECORD_FIELDS)


def records_to_columns(records: Sequence[CallRecord]) -> Dict[str, Any]:
    """The column layout of ``records``: ``{"n": N, "columns": {...}}``.

    Sparse fields are left out when every record holds the failure-free
    default, as :func:`record_to_dict` leaves them out of a row.
    """
    n = len(records)
    columns: Dict[str, Any] = {}
    transposed = list(zip(*map(_ROW, records))) or [()] * len(_RECORD_FIELDS)
    for name, (encode, _), column in zip(_RECORD_FIELDS, _FIELD_CODECS, transposed):
        if name in _SPARSE_DEFAULTS and column.count(_SPARSE_DEFAULTS[name]) == n:
            continue
        columns[name] = encode(column)
    return {"n": n, "columns": columns}


def records_from_columns(data: Dict[str, Any]) -> List[CallRecord]:
    """Inverse of :func:`records_to_columns`.

    Unknown columns are ignored; a missing column raises :class:`KeyError`
    unless it is a sparse field, which then holds its default.  Damaged
    columns raise :class:`ValueError`.  Records are rebuilt the way pickle
    rebuilds them (``object.__new__`` plus ``__dict__.update``), which
    skips the frozen dataclass's ``__init__`` and its per-field
    ``object.__setattr__`` calls; ``CallRecord`` has no ``__post_init__``
    for this to skip.
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
    new = object.__new__
    records = []
    for row in zip(*decoded):
        record = new(CallRecord)
        record.__dict__.update(zip(_RECORD_FIELDS, row))
        records.append(record)
    return records
