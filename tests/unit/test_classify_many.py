"""classify_many() is classify() for many models in one pass: same
verdicts and witnesses for any model order or subset, and the same
up-front rejection of unknown models."""

import itertools

import pytest

from repro.lint import memory_model
from repro.lint.memory_model import MODELS, classify, classify_many
from repro.litmus import FIG5, IRIW, N6, SB_BOTH_RMW
from repro.litmus.program import Cas, Ld, St, make_program

#: A failing-or-succeeding cas, so guarded (cas-write) edges occur.
CAS_RACE = make_program("cas-race", [
    [Cas("x", 0, 1, "r0"), Ld("y", "r1")],
    [St("y", 2), St("x", 3), Ld("x", "r2")]])

PROGRAMS = (N6, IRIW, FIG5, SB_BOTH_RMW, CAS_RACE)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_every_order_and_subset_matches_classify(program):
    single = {model: classify(program, model) for model in MODELS}
    for size in range(1, len(MODELS) + 1):
        for models in itertools.permutations(MODELS, size):
            verdicts = classify_many(program, models)
            assert list(verdicts) == list(models)
            for model in models:
                assert verdicts[model] == single[model], (models, model)


def test_duplicate_models_collapse():
    verdicts = classify_many(N6, ("x86", "370", "x86"))
    assert list(verdicts) == ["x86", "370"]
    assert verdicts["x86"] == classify(N6, "x86")


def test_unknown_model_rejected_before_enumeration(monkeypatch):
    def enumerate_nothing(program):
        raise AssertionError("candidates enumerated for an unknown model")

    monkeypatch.setattr(memory_model, "RelationAnalysis", enumerate_nothing)
    with pytest.raises(ValueError, match="unknown model 'PSO'"):
        classify_many(N6, ("SC", "PSO"))
    with pytest.raises(ValueError, match="unknown model 'PSO'"):
        classify(N6, "PSO")


def test_witness_cycles_are_closed_chains():
    for program in PROGRAMS:
        for verdict in classify_many(program, MODELS).values():
            for witness in verdict.witnesses.values():
                edges = witness.edges
                for first, second in zip(edges, edges[1:] + edges[:1]):
                    assert first.dst == second.src, witness
