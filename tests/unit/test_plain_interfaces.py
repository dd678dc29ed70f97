"""Contract of the six extension interfaces, which are plain classes.

``File``, ``Partitioner``, ``Referencer``, ``Dereferencer``,
``Interpreter`` and ``Filter`` carry no ``abc.ABC`` metaclass, so the
engines' per-record ``isinstance`` checks stay plain type checks.  The
price is that a subclass missing its one required method can be
constructed; the contract is that it then fails loudly, naming the
method, on first use — never by quietly returning ``None``.
"""

import pytest

from repro.core import Record
from repro.core.functions import Dereferencer, Referencer
from repro.core.interpreters import Filter, Interpreter
from repro.core.pointers import Pointer
from repro.storage.files import File
from repro.storage.partitioner import HashPartitioner, Partitioner

INTERFACES = (File, Partitioner, Referencer, Dereferencer, Interpreter,
              Filter)
RECORD = Record({"k": 1})
POINTER = Pointer("f", 1, 1)


class _File(File):
    pass


class _Partitioner(Partitioner):
    pass


class _Referencer(Referencer):
    pass


class _Dereferencer(Dereferencer):
    pass


class _Interpreter(Interpreter):
    pass


class _Filter(Filter):
    pass


def _file() -> File:
    return _File("f", HashPartitioner(2), [0, 1])


FIRST_USES = {
    "File.lookup": (lambda: _file().lookup(POINTER), "lookup"),
    "Partitioner.partition": (lambda: _Partitioner(4).partition(1),
                              "partition"),
    "File.partition_of_key via its partitioner": (
        lambda: _File("f", _Partitioner(2), [0, 1]).node_of_key(1),
        "partition"),
    "Referencer.reference": (
        lambda: _Referencer().reference(RECORD, {}), "reference"),
    "Dereferencer.fetch": (
        lambda: _Dereferencer("f").fetch(_file(), POINTER, 0), "fetch"),
    "Interpreter.interpret": (
        lambda: _Interpreter().interpret(RECORD), "interpret"),
    "Interpreter.field": (
        lambda: _Interpreter().field(RECORD, "k"), "interpret"),
    "Interpreter.interpret_batch": (
        lambda: _Interpreter().interpret_batch([RECORD]), "interpret"),
    "Filter.matches": (lambda: _Filter().matches(RECORD, {}), "matches"),
    "Filter.matches_batch": (
        lambda: _Filter().matches_batch([RECORD], {}), "matches"),
}


@pytest.mark.parametrize("use", sorted(FIRST_USES))
def test_missing_override_fails_loudly_on_first_use(use):
    call, method = FIRST_USES[use]
    with pytest.raises(NotImplementedError, match=rf"\b{method}\(\)"):
        call()


@pytest.mark.parametrize("cls", INTERFACES, ids=lambda c: c.__name__)
def test_interfaces_are_plain_classes(cls):
    assert type(cls) is type


def test_dereferencer_filter_still_runs_through_apply_filter():
    """The concrete helpers on the bases keep working for subclasses."""

    class Odd(Filter):
        def matches(self, record, context):
            return record["k"] % 2 == 1

    class Deref(Dereferencer):
        def fetch(self, file, target, partition_id):
            return [Record({"k": k}) for k in range(4)]

    records = Deref("f", filter=Odd()).fetch(_file(), POINTER, 0)
    kept = Deref("f", filter=Odd()).apply_filter(records, {})
    assert [r["k"] for r in kept] == [1, 3]
