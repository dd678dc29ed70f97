"""Property: an index entry's payload is observationally the dict it
replaced.

Entries used to carry a plain four-key dict.  :class:`EntryPayload`
stores the same values in slots; everything that reads an entry —
mapping access, equality, hashing, sizing, printing — must not be able
to tell the difference, and nothing may write to it.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pointers import PointerKind
from repro.core.records import Record, estimate_size
from repro.storage import EntryPayload, IndexEntry

scalars = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-2**63, max_value=2**63),
    st.floats(allow_nan=False),
    st.none(),
)
values = st.one_of(scalars, st.tuples(scalars, scalars),
                   st.tuples(st.text(max_size=4), scalars, scalars))
kinds = st.sampled_from([PointerKind.LOGICAL, PointerKind.PHYSICAL])
FIELDS = ("key", "target_partition_key", "target_key", "target_kind")
absent_names = st.one_of(
    st.sampled_from(["", "Key", "target", "data", "get", "keys",
                     "target_kind "]),
    st.text(max_size=8).filter(lambda name: name not in FIELDS))


def dict_entry(index_key, partition_key, target_key, kind) -> dict:
    """The dict payload entries carried before :class:`EntryPayload`."""
    data = {"key": index_key, "target_partition_key": partition_key,
            "target_key": target_key}
    if kind is not PointerKind.LOGICAL:
        data["target_kind"] = kind.value
    return data


@settings(max_examples=300, deadline=None)
@given(index_key=values, partition_key=values, target_key=values,
       kind=kinds, absent=absent_names)
def test_payload_reads_like_its_dict(index_key, partition_key, target_key,
                                     kind, absent):
    entry = IndexEntry(index_key, partition_key, target_key, kind=kind)
    payload = entry.data
    expected = dict_entry(index_key, partition_key, target_key, kind)
    assert type(payload) is EntryPayload

    assert dict(payload) == expected
    assert list(payload) == list(expected)
    assert list(payload.items()) == list(expected.items())
    assert len(payload) == len(expected)
    for name in FIELDS + (absent,):
        assert (name in payload) == (name in expected)
        assert payload.get(name) == expected.get(name)
        assert payload.get(name, "missing") == expected.get(name, "missing")
        assert entry.get(name) == expected.get(name)
        if name in expected:
            assert payload[name] == expected[name]
        else:
            with pytest.raises(KeyError):
                payload[name]

    assert payload == expected
    assert expected == payload
    assert not payload != expected
    assert payload != {**expected, "key": ("other", index_key)}
    assert {**expected, "extra": 1} != payload
    assert repr(payload) == repr(expected)

    dict_record = Record(expected)
    assert entry == dict_record
    assert dict_record == entry
    assert hash(entry) == hash(dict_record)
    assert estimate_size(payload) == estimate_size(expected)
    assert entry.size_bytes == dict_record.size_bytes

    assert pickle.loads(pickle.dumps(payload)) == expected


@given(kind=kinds)
def test_payload_cannot_be_written(kind):
    payload = IndexEntry(1, 2, 3, kind=kind).data
    with pytest.raises(TypeError):
        payload["key"] = 5
    with pytest.raises(TypeError):
        del payload["key"]
    with pytest.raises(TypeError):
        payload["target_kind"] = "logical"
    with pytest.raises(TypeError):
        payload.key = 5
    with pytest.raises(TypeError):
        del payload.target_key
    with pytest.raises(TypeError):
        hash(payload)  # unhashable, like the dict it stands for
    assert dict(payload) == dict_entry(1, 2, 3, kind)
