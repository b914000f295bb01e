"""Happens-before explanations for forbidden litmus outcomes.

The paper's figures argue forbidden executions by exhibiting a cycle of
happens-before edges (po, rf, fr, ws/co).  This module automates that:
given a program, a model, and a witness condition, it finds the
candidate execution(s) matching the witness and prints the global
happens-before cycle that rules each of them out — or reports that the
outcome is allowed.

Edge labels:

* ``po``/``ppo`` — (preserved) program order; ``po(relaxed)`` marks a
  pair the model drops from ghb.
* ``fence`` — a program-order pair kept *only* because of the barrier
  crossed (mfence/lwfence or a locked instruction's fence semantics).
* ``rfi``/``rfe``/``rf(init)`` — read-from, internal/external/initial.
* ``co``/``fr`` — coherence and from-read.
* ``atom`` — RMW atomicity: the locked write must immediately follow
  the read's source in coherence order; a violating candidate shows
  the three-edge cycle  R --fr--> X --co--> W --atom--> R.

Example (the paper's Figure 2 argument, generated)::

    >>> from repro.litmus import N6
    >>> from repro.litmus.explain import explain
    >>> print(explain(N6, "370", r0_rx=1, r0_ry=0, mem_x=1, mem_y=2))
    n6 under 370: rx=1 ... FORBIDDEN ... cycle: ... rfi ... fr ... co ...
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.litmus.axiomatic import _Execution, _outcome_of, _rf_kind
from repro.litmus.operational import _matches
from repro.litmus.program import LOCKED, Program
from repro.models import get_model, model_names
from repro.models.base import AxiomaticDef, Event

LabeledEdge = Tuple[Event, Event, str]


def _event_name(program: Program, event: Event) -> str:
    tid = event[0]
    if tid < 0:
        return f"init[{program.addresses[event[1]]}]"
    op = program.threads[tid][event[1]]
    if isinstance(op, LOCKED):
        half = "W" if len(event) == 3 else "R"
        return f"T{tid}:{op} [{half}]"
    return f"T{tid}:{op}"


def _labeled_edges(execution: _Execution,
                   axiomatic: AxiomaticDef, sc: bool) -> List[LabeledEdge]:
    """All candidate-execution edges with their relation names."""
    edges: List[LabeledEdge] = []

    for read, source in execution.rf.items():
        kind = _rf_kind(source, read)
        edges.append((source, read,
                      "rf(init)" if kind == "rf-init" else kind))

    co_pairs: Set[Tuple[Event, Event]] = set()
    for addr, order in execution.co.items():
        chain = [execution.init_events[addr]] + order
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                co_pairs.add((a, b))
                edges.append((a, b, "co"))

    co_after: Dict[Event, Set[Event]] = {}
    for a, b in co_pairs:
        co_after.setdefault(a, set()).add(b)
    for read, source in execution.rf.items():
        for later in co_after.get(source, ()):
            edges.append((read, later, "fr"))

    for pair in execution.po_pairs:
        if (pair.a_store and pair.a not in execution.active) or \
                (pair.b_store and pair.b not in execution.active):
            continue
        if not axiomatic.ppo(pair):
            edges.append((pair.a, pair.b, "po(relaxed)"))
        elif pair.fence and not axiomatic.ppo(pair.without_fence()):
            edges.append((pair.a, pair.b, "fence"))
        else:
            edges.append((pair.a, pair.b, "po" if sc else "ppo"))
    return edges


def _ghb_subset(edges: List[LabeledEdge],
                axiomatic: AxiomaticDef) -> List[LabeledEdge]:
    ghb = []
    for a, b, kind in edges:
        if kind in ("co", "fr", "ppo", "po", "fence"):
            ghb.append((a, b, kind))
        elif kind.startswith("rf"):
            # The crux of the paper: forwarding (rfi) participates in
            # global happens-before only under store-atomic models.
            if axiomatic.grf("rf-init" if kind == "rf(init)" else kind):
                ghb.append((a, b, kind))
    return ghb


def _atomicity_cycle(execution: _Execution
                     ) -> Optional[List[LabeledEdge]]:
    """The R --fr--> X --co--> W --atom--> R triangle of the first
    violated locked instruction, if any."""
    successor: Dict[Event, Event] = {}
    for addr, order in execution.co.items():
        chain = [execution.init_events[addr]] + order
        for a, b in zip(chain, chain[1:]):
            successor[a] = b
    for read, write, _op in execution.locked:
        if write not in execution.active:
            continue
        intervening = successor.get(execution.rf[read])
        if intervening != write:
            return [(read, intervening, "fr"),
                    (intervening, write, "co"),
                    (write, read, "atom")]
    return None


def _find_cycle(edges: List[LabeledEdge]) -> Optional[List[LabeledEdge]]:
    graph: Dict[Event, List[Tuple[Event, str]]] = {}
    for a, b, kind in edges:
        graph.setdefault(a, []).append((b, kind))

    state: Dict[Event, int] = {}
    path: List[LabeledEdge] = []

    def dfs(node: Event) -> Optional[List[LabeledEdge]]:
        state[node] = 1
        for nxt, kind in graph.get(node, ()):
            if state.get(nxt, 0) == 1:
                cycle = path + [(node, nxt, kind)]
                # Trim to the cycle proper.
                for i, (a, _, _) in enumerate(cycle):
                    if a == nxt:
                        return cycle[i:]
                return cycle
            if state.get(nxt, 0) == 0:
                path.append((node, nxt, kind))
                found = dfs(nxt)
                if found:
                    return found
                path.pop()
        state[node] = 2
        return None

    for node in list(graph):
        if state.get(node, 0) == 0:
            found = dfs(node)
            if found:
                return found
    return None


def explain_chain(program: Program, model: str,
                  **conditions: int) -> Optional[str]:
    """Communication-chain view of a forbidden witness, computed by the
    static relation analysis (:mod:`repro.lint.memory_model`).

    Returns None when no outcome matching the witness conditions is
    forbidden under ``model``.  The chain strips the witness cycle down
    to its rf/fr/co (plus fence and RMW-atomicity) edges — the
    inter-thread communication the cycle actually rides on — and, when
    the cycle hinges on a forwarding (rfi) edge, notes whether x86-TSO
    (which does not order rfi globally) admits the same outcome: this
    is the paper's Figure 2 store-atomicity distinction, derived rather
    than hand-written.
    """
    from repro.lint.memory_model import classify_many

    verdicts = classify_many(program, (model, "x86"))
    verdict = verdicts[model]
    matching = [o for o in sorted(verdict.forbidden,
                                  key=lambda o: (o.registers, o.memory))
                if _matches(o, conditions)]
    if not matching:
        return None
    lines: List[str] = []
    for outcome in matching:
        witness = verdict.witnesses[outcome]
        comm = witness.communication_edges()
        lines.append(f"  communication chain ({witness.axiom} cycle, "
                     f"{len(witness.edges)} edges total):")
        for edge in comm:
            lines.append(f"    {_event_name(program, edge.src)}"
                         f"  --{edge.kind}-->  "
                         f"{_event_name(program, edge.dst)}")
        if model != "x86" and witness.has_kind("rfi"):
            if outcome in verdicts["x86"].allowed:
                rfi = next(e for e in comm if e.kind == "rfi")
                lines.append(
                    f"    note: x86-TSO drops the forwarding edge "
                    f"{_event_name(program, rfi.src)} --rfi--> "
                    f"{_event_name(program, rfi.dst)} from global "
                    f"happens-before; the same outcome is ALLOWED there.")
    return "\n".join(lines)


def explain(program: Program, model: str, **conditions: int) -> str:
    """Explain why a witness outcome is forbidden (or that it is not).

    Enumerates the candidate executions consistent with the witness and
    renders the happens-before (or atomicity) cycle that invalidates
    each; if some candidate passes the model's axioms, reports the
    outcome as allowed.
    """
    axiomatic_models = model_names(axiomatic_only=True)
    if model not in axiomatic_models:
        raise ValueError(f"explain supports the axiomatic models "
                         f"({', '.join(axiomatic_models)})")
    axiomatic = get_model(model).axiomatic
    execution = _Execution(program)
    witness = ", ".join(f"{k}={v}" for k, v in conditions.items())
    header = f"{program.name} under {model}: witness [{witness}]"

    rf_choices = []
    for read_event, op in execution.reads:
        sources = [execution.init_events[op.addr]]
        sources += [event for event, write in execution.writes
                    if write.addr == op.addr]
        rf_choices.append(sources)
    addr_writes: Dict[str, List[Event]] = {}
    for event, write in execution.writes:
        addr_writes.setdefault(write.addr, []).append(event)
    co_addrs = sorted(addr_writes)

    explanations: List[str] = []
    candidates = 0
    for rf_pick in itertools.product(*rf_choices) if rf_choices else [()]:
        execution.rf = {event: src for (event, _), src
                        in zip(execution.reads, rf_pick)}
        if not execution.compute_active():
            continue
        co_choices = [
            list(itertools.permutations(
                [e for e in addr_writes[a] if e in execution.active]))
            for a in co_addrs]
        for co_pick in (itertools.product(*co_choices)
                        if co_choices else [()]):
            execution.co = {addr: list(order)
                            for addr, order in zip(co_addrs, co_pick)}
            if not _matches(_outcome_of(execution), conditions):
                continue
            candidates += 1
            cycle = _atomicity_cycle(execution)
            if cycle is None:
                edges = _labeled_edges(execution, axiomatic,
                                       sc=(model == "SC"))
                # SC-per-location (uniproc) first: po-loc + rf + co + fr.
                uniproc = [(a, b, k) for a, b, k in edges
                           if k in ("co", "fr") or k.startswith("rf")]
                for pair in execution.po_pairs:
                    if pair.same_addr and \
                            (not pair.a_store
                             or pair.a in execution.active) and \
                            (not pair.b_store
                             or pair.b in execution.active):
                        uniproc.append((pair.a, pair.b, "po-loc"))
                cycle = _find_cycle(uniproc)
                if cycle is None:
                    ghb = _ghb_subset(edges, axiomatic)
                    cycle = _find_cycle(ghb)
            if cycle is None:
                return (f"{header}\n  ALLOWED: a candidate execution "
                        f"satisfies all {model} axioms.")
            rendered = "\n".join(
                f"    {_event_name(program, a)}  --{kind}-->  "
                f"{_event_name(program, b)}"
                for a, b, kind in cycle)
            explanations.append(
                f"  candidate {candidates}: global happens-before "
                f"cycle\n{rendered}")
    if candidates == 0:
        return (f"{header}\n  UNREACHABLE: no read-from assignment "
                f"produces these values.")
    body = "\n".join(explanations)
    chain = explain_chain(program, model, **conditions)
    if chain is not None:
        body += "\n" + chain
    return (f"{header}\n  FORBIDDEN: every matching candidate execution "
            f"is cyclic.\n" + body)
