"""Record (de)serialization: the row form the fingerprints hash and the
column form the on-disk result cache stores."""

import base64
import json
import math
import pickle
import struct
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.records import CallRecord
from repro.metrics.serialize import (
    record_to_dict,
    records_from_columns,
    records_to_columns,
    records_to_dicts,
)

FLOAT_FIELDS = [
    name for name, kind in get_type_hints(CallRecord).items() if kind is float
]


def make_record(**overrides) -> CallRecord:
    base = dict(
        rid=7,
        function_name="dna-visualisation",
        invoker="SEPT-node",
        release_time=0.1 + 0.2,  # deliberately not exactly 0.3
        received_at=0.30000000000000004,
        dispatched_at=0.5,
        exec_start=0.6,
        exec_end=1.9,
        completed_at=2.0,
        service_time=1.3,
        reference_response_time=1.25,
        cold_start=False,
        start_kind="warm",
    )
    base.update(overrides)
    return CallRecord(**base)


def make_records():
    return [
        make_record(rid=0),
        make_record(rid=1, function_name="chameleon", cold_start=True, start_kind="cold"),
        make_record(rid=2, invoker="FC-node", start_kind="prewarm"),
    ]


def through_json(columns):
    return json.loads(json.dumps(columns))


def float_bytes(records):
    """The exact bits of every float field, for comparisons NaN defeats."""
    return [
        struct.pack(f"<{len(FLOAT_FIELDS)}d", *(getattr(r, n) for n in FLOAT_FIELDS))
        for r in records
    ]


class TestRowLayout:
    def test_row_bytes_are_pinned(self):
        # The golden fingerprints and the benchmark references hash this
        # form: any change to it is a change to every digest.
        assert json.dumps(record_to_dict(make_record())) == (
            '{"rid": 7, "function_name": "dna-visualisation", '
            '"invoker": "SEPT-node", "release_time": 0.30000000000000004, '
            '"received_at": 0.30000000000000004, "dispatched_at": 0.5, '
            '"exec_start": 0.6, "exec_end": 1.9, "completed_at": 2.0, '
            '"service_time": 1.3, "reference_response_time": 1.25, '
            '"cold_start": false, "start_kind": "warm"}'
        )

    def test_sparse_fields_appear_only_off_default(self):
        data = record_to_dict(make_record(attempts=2, outcome="gave-up"))
        assert (data["attempts"], data["outcome"]) == (2, "gave-up")
        assert "attempts" not in record_to_dict(make_record())


class TestRecordSerialize:
    """The column codec the result cache stores."""

    def test_round_trip_is_equal(self):
        records = make_records()
        assert records_from_columns(through_json(records_to_columns(records))) == records

    def test_json_round_trip_preserves_float_bits(self):
        record = make_record(release_time=1 / 3, completed_at=math.pi, exec_end=-0.0)
        (loaded,) = records_from_columns(through_json(records_to_columns([record])))
        assert float_bytes([loaded]) == float_bytes([record])
        # Derived metrics therefore match bit-for-bit too.
        assert loaded.response_time == record.response_time
        assert loaded.stretch == record.stretch

    def test_layout(self):
        data = records_to_columns(make_records())
        assert data["n"] == 3
        # Field order, sparse fields left out at their defaults.
        assert list(data["columns"]) == [
            name for name in CallRecord._fields if name not in ("attempts", "outcome")
        ]
        assert data["columns"]["rid"] == [0, 1, 2]
        assert data["columns"]["cold_start"] == [False, True, False]
        assert data["columns"]["start_kind"] == {
            "values": ["cold", "prewarm", "warm"],
            "codes": [2, 0, 1],
        }
        packed = base64.b64decode(data["columns"]["exec_start"])
        assert packed == struct.pack("<3d", 0.6, 0.6, 0.6)

    def test_same_records_give_same_bytes(self):
        records = make_records()
        first = json.dumps(records_to_columns(records))
        assert json.dumps(records_to_columns(list(records))) == first
        rebuilt = records_from_columns(json.loads(first))
        assert json.dumps(records_to_columns(rebuilt)) == first

    def test_sparse_fields_absent_hold_their_defaults(self):
        data = through_json(records_to_columns(make_records()))
        assert "attempts" not in data["columns"]
        assert "outcome" not in data["columns"]
        loaded = records_from_columns(data)
        assert [(r.attempts, r.outcome) for r in loaded] == [(1, "ok")] * 3

    def test_sparse_fields_present_when_any_record_differs(self):
        records = make_records()
        records[1] = make_record(rid=1, attempts=3, outcome="gave-up")
        data = through_json(records_to_columns(records))
        assert data["columns"]["attempts"] == [1, 3, 1]
        assert data["columns"]["outcome"] == {"values": ["gave-up", "ok"], "codes": [1, 0, 1]}
        assert records_from_columns(data) == records

    def test_unknown_keys_ignored(self):
        # Unknown columns: entries whose record schema only grew still load.
        data = through_json(records_to_columns(make_records()))
        data["columns"]["added_in_future_version"] = [123] * 3
        assert records_from_columns(data) == make_records()

    def test_missing_key_raises(self):
        data = through_json(records_to_columns(make_records()))
        del data["columns"]["rid"]
        with pytest.raises(KeyError):
            records_from_columns(data)

    def test_list_helpers(self):
        records = make_records()
        assert records_to_dicts(records) == [record_to_dict(r) for r in records]
        assert records_from_columns(records_to_columns(tuple(records))) == records

    def test_empty_list(self):
        data = through_json(records_to_columns([]))
        assert data["n"] == 0
        assert data["columns"]["release_time"] == ""
        assert records_from_columns(data) == []

    def test_rebuild_equals_the_constructor(self):
        # Records are rebuilt with tuple.__new__, as CallRecord._make
        # builds them, skipping the generated __new__.  That is only sound
        # while no hook runs at construction: no __post_init__, and
        # CallRecord is the generated class itself (a NamedTuple body may
        # not define __new__), not a subclass that could add one.
        assert not hasattr(CallRecord, "__post_init__")
        assert CallRecord.__bases__ == (tuple,)
        records = make_records()
        records[2] = make_record(rid=2, attempts=2, outcome="gave-up")
        loaded = records_from_columns(through_json(records_to_columns(records)))
        built = [CallRecord(*tuple(r)) for r in records]
        assert loaded == built
        assert [r._asdict() for r in loaded] == [r._asdict() for r in built]
        assert [repr(r) for r in loaded] == [repr(r) for r in built]
        assert all(type(r) is CallRecord for r in loaded)
        with pytest.raises(AttributeError):
            loaded[0].rid = 99  # still frozen
        # The worker-to-parent pipe pickles records: the same records come back.
        unpickled = pickle.loads(pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL))
        assert unpickled == built
        assert all(type(r) is CallRecord for r in unpickled)
        # The rendering the dataclass gave, byte for byte.
        assert repr(loaded[2]) == (
            "CallRecord(rid=2, function_name='dna-visualisation', "
            "invoker='SEPT-node', release_time=0.30000000000000004, "
            "received_at=0.30000000000000004, dispatched_at=0.5, exec_start=0.6, "
            "exec_end=1.9, completed_at=2.0, service_time=1.3, "
            "reference_response_time=1.25, cold_start=False, start_kind='warm', "
            "attempts=2, outcome='gave-up')"
        )


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Any double: Hypothesis's float strategy (−0.0, subnormals, ±inf, NaN)
#: plus raw 64-bit patterns, which reach every NaN payload.
ANY_FLOAT = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits))


class TestColumnProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[ANY_FLOAT] * len(FLOAT_FIELDS)), max_size=12))
    def test_float_columns_keep_every_bit(self, rows):
        records = [
            make_record(rid=i, **dict(zip(FLOAT_FIELDS, row))) for i, row in enumerate(rows)
        ]
        loaded = records_from_columns(through_json(records_to_columns(records)))
        assert len(loaded) == len(records)
        assert float_bytes(loaded) == float_bytes(records)


class TestColumnValidation:
    """Damage raises ValueError, which the cache treats as a miss."""

    def columns(self):
        return through_json(records_to_columns(make_records()))

    def test_truncated_float_column(self):
        data = self.columns()
        text = data["columns"]["completed_at"]
        data["columns"]["completed_at"] = text[: len(text) - 4]
        with pytest.raises(ValueError):
            records_from_columns(data)

    def test_unpadded_float_column(self):
        data = self.columns()
        data["columns"]["completed_at"] = data["columns"]["completed_at"][:-1]
        with pytest.raises(ValueError):
            records_from_columns(data)

    @pytest.mark.parametrize("junk", ["!", "\n", "é"])
    def test_non_base64_characters(self, junk):
        # Inserted, not replaced: a lenient decoder would skip the junk
        # and read the right bytes, so only validation rejects it.
        data = self.columns()
        text = data["columns"]["completed_at"]
        data["columns"]["completed_at"] = text[:4] + junk + text[4:]
        with pytest.raises(ValueError):
            records_from_columns(data)

    @pytest.mark.parametrize("column", ["rid", "cold_start"])
    def test_list_column_one_value_short(self, column):
        data = self.columns()
        data["columns"][column].pop()
        with pytest.raises(ValueError):
            records_from_columns(data)

    def test_string_column_one_code_short(self):
        data = self.columns()
        data["columns"]["function_name"]["codes"].pop()
        with pytest.raises(ValueError):
            records_from_columns(data)

    @pytest.mark.parametrize("code", [-1, 3])
    def test_string_code_out_of_range(self, code):
        data = self.columns()
        data["columns"]["start_kind"]["codes"][0] = code
        with pytest.raises(ValueError):
            records_from_columns(data)

    @pytest.mark.parametrize(
        "n", [2, 4, -1, 3.0, "3"], ids=["short", "long", "negative", "float", "text"]
    )
    def test_count_disagrees_with_the_columns(self, n):
        data = self.columns()
        data["n"] = n
        with pytest.raises(ValueError):
            records_from_columns(data)
