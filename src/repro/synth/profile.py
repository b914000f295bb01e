"""Exhaustive per-model outcome profiling — the synthesis judge.

One pass over a program's candidate executions (the rf × co cross
product from :class:`repro.lint.memory_model.RelationAnalysis`) judges
every candidate under *all* requested models at once: the uniproc
(sc-per-location) axiom is model-independent, so its cycle check runs
once per candidate, and only the per-model ghb edge sets differ.  The
result is the program's complete allowed-outcome set per model — the
total function the paper's authors sampled hardware to approximate,
computed statically.

Unlike :func:`repro.lint.memory_model.classify_many` — also one pass
for all models, but judging every candidate and tracking the shortest
witness cycle per forbidden outcome — this loop builds no witness at
all: it skips inconsistent candidates and answers each acyclicity
question with a bare Kahn peel.  :mod:`repro.synth.oracle` cross-checks
the two loops against each other, the independent enumerator in
:mod:`repro.litmus.axiomatic`, and the operational machines.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.lint.memory_model import GhbPlan, RelationAnalysis, is_acyclic
from repro.litmus.program import Outcome, Program
from repro.synth.space import LATTICE

#: model name -> complete allowed outcome set
Profile = Dict[str, FrozenSet[Outcome]]


def outcome_profile(program: Program,
                    models: Sequence[str] = LATTICE) -> Profile:
    """The complete allowed-outcome set of ``program`` per model.

    Agrees with ``classify(program, m).allowed`` for every model ``m``
    (asserted by the oracle layer and the unit tests) while enumerating
    the candidate space exactly once.
    """
    analysis = RelationAnalysis(program)
    plans = {model: GhbPlan(analysis, model) for model in models}
    allowed: Dict[str, set] = {model: set() for model in models}
    for candidate in analysis.candidates():
        # uniproc and RMW atomicity are model-independent: once each.
        if not candidate.consistent():
            continue
        outcome = candidate.outcome()
        remaining = [model for model in models
                     if outcome not in allowed[model]]
        if not remaining:
            continue
        for model in remaining:
            if is_acyclic(candidate.ghb_edges(plans[model])):
                allowed[model].add(outcome)
    return {model: frozenset(found) for model, found in allowed.items()}


def lattice_violations(profile: Profile) -> List[str]:
    """The SC ⊆ 370 ⊆ x86 ⊆ WMM containment, checked.

    Every outcome a stronger model allows, every weaker model must
    allow too; a violation here means a bug in the ghb engine, not an
    interesting program — the synthesis loop treats it as fatal.
    """
    problems: List[str] = []
    ordered = [model for model in LATTICE if model in profile]
    for strong, weak in zip(ordered, ordered[1:]):
        escaped = profile[strong] - profile[weak]
        if escaped:
            problems.append(
                f"{strong} allows {len(escaped)} outcome(s) that "
                f"{weak} forbids: "
                + "; ".join(str(o) for o in sorted(escaped, key=str)))
    return problems


def profile_diff(profile: Profile, pair: Tuple[str, str]
                 ) -> Tuple[Outcome, ...]:
    """Outcomes the weak model admits that the strong model forbids,
    sorted — empty iff the pair's outcome sets coincide."""
    strong, weak = pair
    return tuple(sorted(profile[weak] - profile[strong], key=str))
