"""The machine-checked conformance lattice.

Each registered model declares its immediate stronger parents
(``MemoryModel.stronger_than``); this module closes those edges
transitively and verifies **allowed-outcome monotonicity** — for every
edge ``strong → weak`` and every program, the strong model's outcome
set must be a subset of the weak model's — by exhaustive operational
enumeration over the whole litmus battery plus the synthesized corpus
(``repro.litmus.generated``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Iterable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.models.defs import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - see repro.models.base
    from repro.litmus.program import Program


def declared_edges() -> Tuple[Tuple[str, str], ...]:
    """The immediate (strong, weak) lattice edges, as declared."""
    edges = []
    for model in REGISTRY.values():
        for parent in model.stronger_than:
            if parent not in REGISTRY:
                raise ValueError(
                    f"{model.name} declares unknown parent {parent!r}")
            edges.append((parent, model.name))
    return tuple(edges)


def lattice_edges() -> Tuple[Tuple[str, str], ...]:
    """Transitive closure of :func:`declared_edges` — every (strong,
    weak) pair monotonicity must hold for, e.g. ``("SC", "WMM")``."""
    direct = declared_edges()
    reach = {name: {weak for strong, weak in direct if strong == name}
             for name in REGISTRY}
    changed = True
    while changed:
        changed = False
        for name, weaker in reach.items():
            expansion = set()
            for w in weaker:
                expansion |= reach[w]
            if not expansion <= weaker:
                weaker |= expansion
                changed = True
    return tuple(sorted((strong, weak)
                        for strong, weaker in reach.items()
                        for weak in weaker))


@dataclass(frozen=True)
class LatticeViolation:
    """An outcome a strong model allows but a declared-weaker one
    forbids — a broken containment edge."""

    program: str
    strong: str
    weak: str
    outcomes: Tuple[str, ...]    # rendered outcomes in strong \ weak


@dataclass
class LatticeReport:
    """The result of checking every lattice edge over a corpus."""

    programs_checked: int = 0
    edges: Tuple[Tuple[str, str], ...] = ()
    violations: List[LatticeViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.programs_checked > 0

    def summary(self) -> str:
        edges = ", ".join(f"{s}⊆{w}" for s, w in self.edges)
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return (f"lattice check: {self.programs_checked} programs × "
                f"[{edges}] — {status}")

    def to_dict(self) -> dict:
        return {
            "programs_checked": self.programs_checked,
            "edges": [list(edge) for edge in self.edges],
            "ok": self.ok,
            "violations": [
                {"program": v.program, "strong": v.strong,
                 "weak": v.weak, "outcomes": list(v.outcomes)}
                for v in self.violations],
        }


def check_program(program: Program,
                  edges: Optional[Sequence[Tuple[str, str]]] = None
                  ) -> List[LatticeViolation]:
    """Monotonicity of one program along the given (default: all
    transitive) lattice edges, by operational enumeration."""
    if edges is None:
        edges = lattice_edges()
    outcome_sets = {}
    violations: List[LatticeViolation] = []
    for strong, weak in edges:
        for name in (strong, weak):
            if name not in outcome_sets:
                outcome_sets[name] = REGISTRY[name].enumerate(program)
        leaked = outcome_sets[strong] - outcome_sets[weak]
        if leaked:
            violations.append(LatticeViolation(
                program=program.name, strong=strong, weak=weak,
                outcomes=tuple(sorted(map(str, leaked)))))
    return violations


def battery_corpus() -> List[Program]:
    """The full check corpus: battery, extra cases, synthesized cases."""
    from repro.litmus.battery import EXTRA_CASES
    from repro.litmus.generated import GENERATED_CASES
    from repro.litmus.tests import ALL_CASES
    return [case.program for case in
            list(ALL_CASES) + list(EXTRA_CASES) + list(GENERATED_CASES)]


def check_lattice(programs: Optional[Iterable[Program]] = None
                  ) -> LatticeReport:
    """Check every (transitive) lattice edge over ``programs``
    (default: :func:`battery_corpus`)."""
    edges = lattice_edges()
    report = LatticeReport(edges=edges)
    for program in (battery_corpus() if programs is None else programs):
        report.violations.extend(check_program(program, edges))
        report.programs_checked += 1
    return report
