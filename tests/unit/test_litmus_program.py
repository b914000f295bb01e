"""Tests for the litmus program representation."""

import dataclasses
import pickle

import pytest

from repro.litmus.program import Fence, Ld, Outcome, Program, St, make_program


def test_make_program_builds_tuples():
    program = make_program("t", [[St("x", 1)], [Ld("x", "r0")]],
                           initial={"x": 5})
    assert isinstance(program.threads, tuple)
    assert program.initial == (("x", 5),)
    assert program.initial_value("x") == 5
    assert program.initial_value("y") == 0


def test_addresses_collected_in_order():
    program = make_program("t", [[St("b", 1), Ld("a", "r0")],
                                 [St("c", 2)]])
    assert program.addresses == ("b", "a", "c")


def test_cached_addresses_leave_equality_hash_and_pickle_alone():
    def build():
        return make_program("t", [[St("b", 1), Ld("a", "r0")]],
                            initial={"z": 3})
    cached, fresh = build(), build()
    assert cached.addresses == ("z", "b", "a")       # now cached
    assert cached == fresh and hash(cached) == hash(fresh)
    assert "addresses" not in {f.name for f in dataclasses.fields(Program)}
    for program in (cached, fresh):
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program and hash(clone) == hash(program)
        assert clone.addresses == ("z", "b", "a")


def test_replace_recomputes_cached_addresses():
    program = make_program("t", [[St("b", 1), Ld("a", "r0")]])
    assert program.addresses == ("b", "a")
    moved = dataclasses.replace(program, threads=((St("c", 1),),))
    assert moved.addresses == ("c",)
    assert program.addresses == ("b", "a")


def test_loads_and_stores_iterators():
    program = make_program("t", [[St("x", 1), Ld("x", "r0"), Fence()]])
    assert [(tid, idx) for tid, idx, _ in program.loads()] == [(0, 1)]
    assert [(tid, idx) for tid, idx, _ in program.stores()] == [(0, 0)]


def test_empty_program_rejected():
    with pytest.raises(ValueError):
        make_program("t", [])


def test_register_reuse_rejected():
    with pytest.raises(ValueError):
        make_program("t", [[Ld("x", "r0"), Ld("y", "r0")]])


def test_outcome_accessors():
    outcome = Outcome(registers=(((0, "r0"), 7),),
                      memory=(("x", 1), ("y", 2)))
    assert outcome.reg(0, "r0") == 7
    assert outcome.mem("y") == 2
    with pytest.raises(KeyError):
        outcome.reg(1, "r0")
    with pytest.raises(KeyError):
        outcome.mem("z")
    assert "r0=7" in str(outcome)
    assert "[x]=1" in str(outcome)
