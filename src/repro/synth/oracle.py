"""Triple cross-checking of synthesized tests.

A synthesized distinguisher earns promotion only when three independent
implementations of the memory-model lattice agree *exactly* on its
outcome sets:

1. the lint relation analyzer's exhaustive candidate judging, twice:
   :func:`repro.synth.profile.outcome_profile` (allowed sets only) and
   :func:`repro.lint.memory_model.classify_many` (every candidate
   judged, witness cycles tracked) — two distinct loops, each one pass
   over the program's candidates for all models, so neither result is
   a view of the other,
2. the axiomatic enumerator (:func:`repro.litmus.axiomatic
   .enumerate_axiomatic`) — an independent rf/co/fr/ghb implementation,
3. the operational machines (:func:`repro.litmus.operational
   .enumerate_outcomes`) — state-space exploration, no relations at all.

Any disagreement is rendered through :func:`repro.litmus.explain
.explain_chain` so the offending happens-before cycle (or its absence)
is visible, not just the outcome diff.  :func:`pipeline_check` adds a
budgeted fourth leg: timed pipeline runs must stay *within* the model
(conformance, not equality — a pipeline may be stricter than its spec).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# The traced litmus-verify run (perfbench/litmus_verify.py) times the
# lint/classify leg through this module's ``classify`` attribute.
from repro.lint.memory_model import classify_many as classify
from repro.litmus.axiomatic import enumerate_axiomatic
from repro.litmus.explain import explain_chain
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.program import Outcome, Program
from repro.synth.profile import outcome_profile
from repro.synth.space import LATTICE


def outcome_conditions(outcome: Outcome) -> Dict[str, int]:
    """An :class:`Outcome` as the ``r{tid}_{reg}`` / ``mem_{addr}``
    condition dict the ``allows``/``exists:`` machinery speaks."""
    conditions: Dict[str, int] = {}
    for (tid, reg), value in outcome.registers:
        conditions[f"r{tid}_{reg}"] = value
    for addr, value in outcome.memory:
        conditions[f"mem_{addr}"] = value
    return conditions


def _render_disagreement(program: Program, model: str, outcome: Outcome,
                         verdict: str) -> str:
    lines = [f"  {model}: outcome [{outcome}] {verdict}"]
    chain = explain_chain(program, model, **outcome_conditions(outcome))
    if chain:
        lines.append(chain)
    return "\n".join(lines)


@dataclass
class OracleReport:
    """Per-program verdict of the three-way cross-check."""

    program: Program
    models: Tuple[str, ...]
    counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        return {"name": self.program.name,
                "models": list(self.models),
                "counts": dict(sorted(self.counts.items())),
                "agree": self.agree,
                "mismatches": list(self.mismatches)}


def triple_check(program: Program,
                 models: Sequence[str] = LATTICE) -> OracleReport:
    """Exact three-way agreement on ``program``'s outcome sets.

    The lint relation analyzer is consulted twice — the synthesis fast
    path (allowed sets only) and the witness-tracking ``classify_many``
    path, one pass over the candidates each for all models — so an
    optimization bug in either shows up as a mismatch too.
    """
    report = OracleReport(program=program, models=tuple(models))
    profile = outcome_profile(program, models=models)
    classified = {model: verdict.allowed for model, verdict
                  in classify(program, models).items()}
    for model in models:
        lint_fast = profile[model]
        lint_slow = classified[model]
        axiomatic = enumerate_axiomatic(program, model)
        operational = enumerate_outcomes(program, model)
        report.counts[model] = len(lint_fast)
        for other_name, other in (("lint/classify", lint_slow),
                                  ("axiomatic", axiomatic),
                                  ("operational", operational)):
            for outcome in sorted(lint_fast - other, key=str):
                report.mismatches.append(
                    f"{program.name}: lint/profile allows what "
                    f"{other_name} forbids under {model}\n"
                    + _render_disagreement(program, model, outcome,
                                           f"missing from {other_name}"))
            for outcome in sorted(other - lint_fast, key=str):
                report.mismatches.append(
                    f"{program.name}: {other_name} allows what "
                    f"lint/profile forbids under {model}\n"
                    + _render_disagreement(program, model, outcome,
                                           f"extra in {other_name}"))
    return report


def triple_check_many(programs: Sequence[Program],
                      models: Sequence[str] = LATTICE
                      ) -> Tuple[bool, List[OracleReport]]:
    """Cross-check a batch; True iff every program agrees."""
    reports = [triple_check(program, models) for program in programs]
    return all(report.agree for report in reports), reports


def pipeline_check(program: Program,
                   policies: Sequence[str] = ("x86", "370-SLFSoS"),
                   seeds: Sequence[int] = range(8)
                   ) -> Dict[str, bool]:
    """Budgeted fourth oracle: timed pipeline runs must observe only
    model-allowed outcomes (containment, not equality — the pipeline
    under-approximates its model by construction)."""
    from repro.litmus.pipeline_runner import check_conformance
    verdicts: Dict[str, bool] = {}
    for policy in policies:
        conforms, _, _ = check_conformance(program, policy, seeds=seeds)
        verdicts[policy] = conforms
    return verdicts
