"""Herd-style axiomatic relation analysis over litmus programs.

This is the lint package's second rule family: a *static* memory-model
classifier that computes the po/rf/co/fr relations of every candidate
execution of a :class:`~repro.litmus.program.Program` and classifies
each reachable outcome as allowed or forbidden per model by cycle
detection — then cross-checks itself against the repo's existing
enumerator (:mod:`repro.litmus.axiomatic`).

The two implementations are deliberately independent so they can serve
as oracles for each other:

* ``axiomatic.py`` materialises the **transitive closure** of ``co``
  (and full ``fr``) and tests acyclicity with an iterative DFS
  three-colouring.
* this module keeps only **immediate-successor** ``co`` edges (and the
  corresponding first-successor ``fr`` edges) — reachability, and hence
  acyclicity, is unchanged because every transitive edge is a chain of
  immediate ones — and tests acyclicity with a **Kahn indegree peel**,
  extracting a concrete witness cycle from the unpeeled residue.

:func:`classify_many` judges every candidate once for all requested
models (:func:`classify` is its one-model call): the model-independent
axioms are checked once per candidate, and a witness cycle is
extracted only while the candidate's outcome is still unallowed under
a model — the only case in which it can be kept.

Each model's ppo/grf predicates are resolved from the registry
(:mod:`repro.models`) — the same definitions ``axiomatic.py``
evaluates, covering SC, 370, x86 and WMM (the paper's Figure 2
forwarding distinction is the 370-vs-x86 ``grf`` difference).  Locked
read-modify-writes contribute a read event ``(tid, idx)`` plus a write
event ``(tid, idx, 1)`` tied by the atomicity axiom; a failed cas
performs no write (its write event is inactive).

An outcome that x86 allows and 370 forbids always owes its 370 cycle to
an ``rfi`` (store-to-load forwarding) edge — exactly the store-atomicity
violation the paper's SLF gate exists to police.  :func:`find_races`
reports those outcomes with their witness cycles and classifies the
program's communication shape (forwarding / WRC / IRIW).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.litmus.axiomatic import M370, SC, X86, enumerate_axiomatic
from repro.litmus.program import (Cas, Ld, Outcome, Program, Rmw, St)
from repro.models import get_model, model_names, po_access_pairs
from repro.models.base import PoPair

MODELS = model_names(axiomatic_only=True)

#: ``(tid, idx)`` for a load/store or the read half of a locked op;
#: ``(tid, idx, 1)`` for the write half of a locked op; tid == -1 for
#: the per-address initial store (idx = ordinal of the address in
#: ``program.addresses``).
Event = Tuple[int, ...]
#: ``(src, dst, kind)`` — an :class:`Edge` before it is wrapped.
Triple = Tuple[Event, Event, str]
#: A po edge and the cas write events it needs to exist.
Guarded = Tuple[Triple, Tuple[Event, ...]]
#: Where a cycle-extracting walk started, and the cycle it closed.
Walk = Tuple[Event, List[Triple]]


@dataclass(frozen=True)
class Edge:
    """One labelled happens-before edge of a candidate execution."""

    src: Event
    dst: Event
    kind: str  # po|ppo|po-loc|fence | rfi|rfe|rf-init | co|fr | atom

    def sort_key(self) -> Tuple[Event, Event, str]:
        return (self.src, self.dst, self.kind)


@dataclass(frozen=True)
class CycleWitness:
    """A happens-before cycle proving an outcome forbidden."""

    axiom: str               # "sc-per-location" | "atomicity" | "ghb"
    edges: Tuple[Edge, ...]

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(edge.kind for edge in self.edges)

    def has_kind(self, kind: str) -> bool:
        return any(edge.kind == kind for edge in self.edges)

    def communication_edges(self) -> Tuple[Edge, ...]:
        """The rf/fr/co (and RMW-atomicity) edges of the cycle — the
        inter-thread communication chain, stripped of intra-thread
        program order."""
        return tuple(e for e in self.edges
                     if e.kind in ("rfi", "rfe", "rf-init", "co", "fr",
                                   "atom"))


def event_name(program: Program, event: Event) -> str:
    tid = event[0]
    if tid < 0:
        return f"init[{program.addresses[event[1]]}]"
    op = program.threads[tid][event[1]]
    if isinstance(op, (Rmw, Cas)):
        return f"T{tid}:{op} [{'W' if len(event) == 3 else 'R'}]"
    return f"T{tid}:{op}"


def render_cycle(program: Program, witness: CycleWitness) -> List[str]:
    return [f"{event_name(program, e.src)}  --{e.kind}-->  "
            f"{event_name(program, e.dst)}" for e in witness.edges]


class GhbPlan:
    """One model's candidate-independent ghb ingredients over one
    program: which rf kinds are global, and the preserved po pairs as
    guarded ``(src, dst, kind)`` edges."""

    __slots__ = ("grf", "all_rf", "po")

    def __init__(self, analysis: "RelationAnalysis", model: str) -> None:
        axiomatic = get_model(model).axiomatic
        self.grf = frozenset(kind for kind in ("rfi", "rfe", "rf-init")
                             if axiomatic.grf(kind))
        self.all_rf = len(self.grf) == 3
        self.po: List[Guarded] = []
        for pair in analysis.po_pairs:
            if not axiomatic.ppo(pair):
                continue
            if pair.fence and not axiomatic.ppo(pair.without_fence()):
                kind = "fence"    # kept only because of the barrier
            else:
                kind = "po" if model == SC else "ppo"
            self.po.append(analysis.guarded((pair.a, pair.b, kind), pair))


class RelationAnalysis:
    """Relation scaffolding for one program: events, accesses, po.

    Everything here is independent of the rf/co choice; a
    :class:`Candidate` adds one concrete (rf, co) pick on top.
    """

    __slots__ = ("program", "addresses", "loads", "stores", "locked",
                 "init_events", "addr_of", "value_of", "po_pairs",
                 "may_fail", "po_loc", "loads_at", "uniproc_memo")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.addresses = program.addresses
        #: (event, op) — loads plus the read half of every locked op.
        self.loads: List[Tuple[Event, object]] = []
        #: (event, op) — stores plus the write half of every locked op.
        self.stores: List[Tuple[Event, object]] = []
        #: (read event, write event, op) per locked instruction.
        self.locked: List[Tuple[Event, Event, object]] = []
        self.init_events: Dict[str, Event] = {}
        self.addr_of: Dict[Event, str] = {}
        self.value_of: Dict[Event, int] = {}
        for ordinal, addr in enumerate(self.addresses):
            init = (-1, ordinal)
            self.init_events[addr] = init
            self.addr_of[init] = addr
            self.value_of[init] = program.initial_value(addr)
        for tid, thread in enumerate(program.threads):
            for idx, op in enumerate(thread):
                event = (tid, idx)
                if isinstance(op, Ld):
                    self.loads.append((event, op))
                    self.addr_of[event] = op.addr
                elif isinstance(op, St):
                    self.stores.append((event, op))
                    self.addr_of[event] = op.addr
                    self.value_of[event] = op.value
                elif isinstance(op, (Rmw, Cas)):
                    write = (tid, idx, 1)
                    self.loads.append((event, op))
                    self.stores.append((write, op))
                    self.locked.append((event, write, op))
                    self.addr_of[event] = op.addr
                    self.addr_of[write] = op.addr
                    self.value_of[write] = op.value
        self.po_pairs: List[PoPair] = list(po_access_pairs(program))
        #: Write events that do not happen when their cas fails.
        self.may_fail = frozenset(write for _, write, op in self.locked
                                  if isinstance(op, Cas))
        self.po_loc: List[Guarded] = [
            self.guarded((pair.a, pair.b, "po-loc"), pair)
            for pair in self.po_pairs if pair.same_addr]
        #: Per address, its read events (see Candidate.uniproc_cycle).
        self.loads_at: List[Tuple[str, Tuple[Event, ...]]] = [
            (addr, tuple(event for event, op in self.loads
                         if op.addr == addr))
            for addr in self.addresses]
        #: (address, co order, rf sources of its reads) -> the
        #: address's sc-per-location walk start and cycle, or None.
        self.uniproc_memo: Dict[tuple, Optional[Walk]] = {}

    def guarded(self, edge: Triple, pair: PoPair) -> Guarded:
        """``edge`` with the cas writes among ``pair``'s events: a po
        edge exists only when both its events happen."""
        return edge, tuple(event for event, is_store in
                           ((pair.a, pair.a_store), (pair.b, pair.b_store))
                           if is_store and event in self.may_fail)

    def candidates(self) -> Iterator["Candidate"]:
        """Every candidate execution: an rf source per read crossed
        with a coherence order per address (over the writes that are
        *active* under the rf choice — a failed cas writes nothing)."""
        rf_domains: List[List[Event]] = []
        for _, op in self.loads:
            domain = [self.init_events[op.addr]]
            domain.extend(event for event, store in self.stores
                          if store.addr == op.addr)
            rf_domains.append(domain)

        def co_orders(addr_index: int, active: frozenset,
                      chosen: Dict[str, Tuple[Event, ...]]
                      ) -> Iterator[Dict[str, Tuple[Event, ...]]]:
            if addr_index == len(self.addresses):
                yield dict(chosen)
                return
            addr = self.addresses[addr_index]
            events = [event for event, store in self.stores
                      if store.addr == addr and event in active]
            for order in itertools.permutations(events):
                chosen[addr] = order
                yield from co_orders(addr_index + 1, active, chosen)
            chosen.pop(addr, None)

        def rf_assignments(load_index: int, chosen: Dict[Event, Event]
                           ) -> Iterator[Dict[Event, Event]]:
            if load_index == len(self.loads):
                yield dict(chosen)
                return
            load_event, _ = self.loads[load_index]
            for source in rf_domains[load_index]:
                chosen[load_event] = source
                yield from rf_assignments(load_index + 1, chosen)
            chosen.pop(load_event, None)

        for rf in rf_assignments(0, {}):
            active = self._active_writes(rf)
            if any(source[0] >= 0 and source not in active
                   for source in rf.values()):
                continue   # a read sources a write that never happens
            for co in co_orders(0, active, {}):
                yield Candidate(self, rf, co, active)

    def _active_writes(self, rf: Dict[Event, Event]) -> frozenset:
        """The writes that happen under ``rf``: everything except the
        write half of a cas whose read saw a value != expect."""
        active = {event for event, _ in self.stores}
        for read, write, op in self.locked:
            if isinstance(op, Cas) and \
                    self.value_of[rf[read]] != op.expect:
                active.discard(write)
        return frozenset(active)


class Candidate:
    """One candidate execution: an (rf, co) choice over the analysis.

    Its rf/co/fr relations are computed at most once, as ``(src, dst,
    kind)`` triples shared by the uniproc check and every model's ghb
    check; they become :class:`Edge` objects only in a kept witness.
    """

    __slots__ = ("analysis", "rf", "co", "active", "_relations")

    def __init__(self, analysis: RelationAnalysis,
                 rf: Dict[Event, Event],
                 co: Dict[str, Tuple[Event, ...]],
                 active: Optional[frozenset] = None) -> None:
        self.analysis = analysis
        self.rf = rf
        self.co = co
        self.active = analysis._active_writes(rf) \
            if active is None else active
        self._relations: Optional[Tuple[List[Triple], ...]] = None

    def relations(self) -> Tuple[List[Triple], List[Triple],
                                 List[Triple]]:
        """``(rf, co, fr)`` edges: immediate-successor coherence (init
        first) and first-successor from-reads — each load precedes the
        store immediately co-after its source (transitively, via co,
        every later store: the same closure as full fr)."""
        if self._relations is None:
            successor: Dict[Event, Event] = {}
            co_edges: List[Triple] = []
            for addr in self.analysis.addresses:
                prev = self.analysis.init_events[addr]
                for event in self.co[addr]:
                    successor[prev] = event
                    co_edges.append((prev, event, "co"))
                    prev = event
            rf_edges: List[Triple] = []
            fr_edges: List[Triple] = []
            for load, source in self.rf.items():
                if source[0] < 0:
                    kind = "rf-init"
                elif source[0] == load[0]:
                    kind = "rfi"
                else:
                    kind = "rfe"
                rf_edges.append((source, load, kind))
                nxt = successor.get(source)
                if nxt is not None:
                    fr_edges.append((load, nxt, "fr"))
            self._relations = (rf_edges, co_edges, fr_edges)
        return self._relations

    def _existing(self, po: List[Guarded]) -> List[Triple]:
        """The po edges whose events all happen."""
        active = self.active
        return [edge for edge, guard in po
                if not guard or all(event in active for event in guard)]

    def uniproc_edges(self) -> List[Triple]:
        rf, co, fr = self.relations()
        return rf + co + fr + self._existing(self.analysis.po_loc)

    def ghb_edges(self, plan: GhbPlan) -> List[Triple]:
        rf, co, fr = self.relations()
        if not plan.all_rf:
            rf = [edge for edge in rf if edge[2] in plan.grf]
        return co + fr + rf + self._existing(plan.po)

    def uniproc_cycle(self) -> Optional[List[Triple]]:
        """The cycle :func:`_walk` finds in the uniproc graph, or None.

        Every uniproc edge joins two events of one address, so the
        graph splits into per-address components, each fixed by the
        address's co order and the rf sources of its loads — a key that
        recurs across the rf × co cross product, so each component is
        judged once per analysis.  The whole-graph walk starts at the
        smallest event left after peeling, so its cycle is the one of
        the component holding that event.
        """
        analysis = self.analysis
        memo = analysis.uniproc_memo
        components: Optional[Dict[str, List[Triple]]] = None
        best: Optional[Walk] = None
        for addr, loads in analysis.loads_at:
            key = (addr, self.co[addr],
                   tuple([self.rf[load] for load in loads]))
            if key not in memo:
                if components is None:
                    components = {a: [] for a in analysis.addresses}
                    for edge in self.uniproc_edges():
                        components[analysis.addr_of[edge[0]]].append(edge)
                memo[key] = _walk(components[addr])
            found = memo[key]
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        return None if best is None else best[1]

    def atomicity_edges(self) -> List[Triple]:
        """Violated-atomicity witness triangle: for a locked op whose
        write is not the immediate co-successor of its read's source,
        the cycle  R --fr--> X --co--> W --atom--> R  (empty list when
        every locked op is atomic)."""
        analysis = self.analysis
        for read, write, op in analysis.locked:
            if write not in self.active:
                continue
            chain = (analysis.init_events[op.addr],) + self.co[op.addr]
            after = chain.index(self.rf[read]) + 1
            intervening = chain[after] if after < len(chain) else None
            if intervening != write:
                return [(read, intervening, "fr"),
                        (intervening, write, "co"),
                        (write, read, "atom")]
        return []

    def consistent(self) -> bool:
        """True when sc-per-location and RMW atomicity hold — the
        model-independent axioms — without building a witness."""
        return is_acyclic(self.uniproc_edges()) and \
            not self.atomicity_edges()

    def universal_witness(self) -> Optional[Tuple[str, List[Triple]]]:
        """A model-independent violation as ``(axiom, cycle)``: an
        sc-per-location cycle or a broken RMW atomicity triangle (None
        when neither)."""
        cycle = self.uniproc_cycle()
        if cycle is not None:
            return "sc-per-location", cycle
        triangle = self.atomicity_edges()
        if triangle:
            return "atomicity", triangle
        return None

    def outcome(self) -> Outcome:
        analysis = self.analysis
        regs = []
        for load_event, op in analysis.loads:
            source = self.rf[load_event]
            regs.append(((load_event[0], op.reg),
                         analysis.value_of[source]))
        mem = []
        for addr in analysis.addresses:
            order = self.co[addr]
            last = order[-1] if order else analysis.init_events[addr]
            mem.append((addr, analysis.value_of[last]))
        return Outcome(registers=tuple(sorted(regs)),
                       memory=tuple(sorted(mem)))


def _peel(edges: Sequence[Triple]) -> Dict[Event, int]:
    """Kahn indegree peel over the (src, dst) of ``edges``: the
    remaining indegree of every destination, all zero iff acyclic."""
    succ: Dict[Event, List[Event]] = {}
    indegree: Dict[Event, int] = {}
    for src, dst, _kind in edges:
        if src in succ:
            succ[src].append(dst)
        else:
            succ[src] = [dst]
        indegree[dst] = indegree.get(dst, 0) + 1
    frontier = [node for node in succ if node not in indegree]
    while frontier:
        for dst in succ.get(frontier.pop(), ()):
            left = indegree[dst] - 1
            indegree[dst] = left
            if not left:
                frontier.append(dst)
    return indegree


def is_acyclic(edges: Sequence[Triple]) -> bool:
    """The allowed/forbidden question alone: no witness is built."""
    return not any(_peel(edges).values())


def _walk(edges: Sequence[Triple]) -> Optional[Walk]:
    """A concrete cycle of ``edges`` from the unpeeled residue, with the
    event the walk to it started at; None when the graph is acyclic.

    Deterministic: the walk starts at the smallest residue event and
    visits successors in sorted (src, dst, kind) order, so the same
    edge set always yields the same witness cycle.
    """
    residue = {node for node, left in _peel(edges).items() if left}
    if not residue:
        return None
    succ: Dict[Event, List[Triple]] = {}
    pred: Dict[Event, List[Event]] = {}
    for edge in sorted(edge for edge in edges
                       if edge[0] in residue and edge[1] in residue):
        succ.setdefault(edge[0], []).append(edge)
        pred.setdefault(edge[1], []).append(edge[0])

    # The residue holds every cycle plus nodes downstream of one; peel
    # sinks (no successor inside the residue) the same way to leave
    # only nodes on or between cycles, then walk until a repeat.
    outdegree = {node: len(out) for node, out in succ.items()}
    sinks = [node for node in residue if node not in outdegree]
    while sinks:
        node = sinks.pop()
        residue.discard(node)
        for src in pred.get(node, ()):
            outdegree[src] -= 1
            if not outdegree[src]:
                sinks.append(src)
    start = min(residue)
    path: List[Triple] = []
    seen_at: Dict[Event, int] = {start: 0}
    node = start
    while True:
        edge = next(e for e in succ[node] if e[1] in residue)
        path.append(edge)
        node = edge[1]
        if node in seen_at:
            return start, path[seen_at[node]:]
        seen_at[node] = len(path)


def find_cycle(edges: Sequence[Edge]) -> Optional[List[Edge]]:
    """Kahn indegree peel; returns a concrete cycle from the residual
    graph, or None when the edge set is acyclic (see :func:`_walk`)."""
    found = _walk([edge.sort_key() for edge in edges])
    return None if found is None else [Edge(*edge) for edge in found[1]]


@dataclass
class Classification:
    """The static verdict for one program under one model."""

    program: Program
    model: str
    allowed: FrozenSet[Outcome] = frozenset()
    forbidden: FrozenSet[Outcome] = frozenset()
    witnesses: Dict[Outcome, CycleWitness] = field(default_factory=dict)

    def witness(self, outcome: Outcome) -> Optional[CycleWitness]:
        return self.witnesses.get(outcome)


def classify_many(program: Program, models: Sequence[str]
                  ) -> Dict[str, Classification]:
    """Partition the program's reachable outcomes into allowed and
    forbidden under each of ``models``, with a witness cycle per
    forbidden outcome (the shortest found across its candidates, the
    first on a tie).

    One pass: every candidate is enumerated once and its uniproc /
    atomicity verdict is shared by all models; only the ghb check is
    per model.  A candidate whose outcome a model already allows is not
    judged for it again, and a witness cycle is extracted only when the
    outcome is still unallowed — the only case it can be kept.
    """
    models = tuple(dict.fromkeys(models))
    for model in models:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of "
                             f"{', '.join(MODELS)}")
    analysis = RelationAnalysis(program)
    plans = [GhbPlan(analysis, model) for model in models]
    #: outcome -> one slot per model: True once some candidate with
    #: that outcome is allowed, else the (axiom, cycle) of the shortest
    #: witness so far.
    slots_of: Dict[Outcome, List] = {}

    def keep(slots: List, index: int, axiom: str,
             cycle: List[Triple]) -> None:
        best = slots[index]
        if best is None or len(cycle) < len(best[1]):
            slots[index] = (axiom, cycle)

    for candidate in analysis.candidates():
        outcome = candidate.outcome()
        slots = slots_of.get(outcome)
        if slots is None:
            slots = slots_of[outcome] = [None] * len(models)
        pending = [index for index, slot in enumerate(slots)
                   if slot is not True]
        if not pending:
            continue
        universal = candidate.universal_witness()
        if universal is not None:
            for index in pending:
                keep(slots, index, *universal)
            continue
        for index in pending:
            found = _walk(candidate.ghb_edges(plans[index]))
            if found is None:
                slots[index] = True
            else:
                keep(slots, index, "ghb", found[1])

    # A universal cycle is shared by every model that keeps it: wrap
    # each cycle once (the kept lists stay alive, so ids are stable).
    wrapped: Dict[int, CycleWitness] = {}

    def wrap(axiom: str, cycle: List[Triple]) -> CycleWitness:
        witness = wrapped.get(id(cycle))
        if witness is None:
            witness = wrapped[id(cycle)] = CycleWitness(
                axiom, tuple(Edge(*edge) for edge in cycle))
        return witness

    verdicts: Dict[str, Classification] = {}
    for index, model in enumerate(models):
        witnesses = {outcome: wrap(*slots[index])
                     for outcome, slots in slots_of.items()
                     if slots[index] is not True}
        verdicts[model] = Classification(
            program=program, model=model,
            allowed=frozenset(outcome for outcome, slots in slots_of.items()
                              if slots[index] is True),
            forbidden=frozenset(witnesses), witnesses=witnesses)
    return verdicts


def classify(program: Program, model: str) -> Classification:
    """:func:`classify_many` for one model."""
    return classify_many(program, (model,))[model]


# ---------------------------------------------------------------------------
# Non-multi-copy-atomic race analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Race:
    """An outcome x86 admits that the store-atomic 370 model forbids."""

    outcome: Outcome
    witness: CycleWitness          # the 370 cycle
    shape: str                     # "forwarding" | "wrc" | "iriw" | "other"


@dataclass
class RaceReport:
    program: Program
    races: List[Race] = field(default_factory=list)
    program_shapes: FrozenSet[str] = frozenset()

    @property
    def multi_copy_atomic(self) -> bool:
        """True when 370 and x86 admit identical outcome sets — no
        observable store-atomicity violation in this program."""
        return not self.races


def program_shapes(program: Program) -> FrozenSet[str]:
    """Structural communication shapes that can expose non-MCA
    behaviour: ``iriw`` (two writers, two readers disagreeing on the
    write order) and ``wrc`` (write → read-then-write → reader chain)."""
    shapes = set()
    num_threads = len(program.threads)
    accesses: List[List[Tuple[str, str]]] = []   # per thread: (kind, addr)
    for thread in program.threads:
        accesses.append([("st" if isinstance(op, St) else "ld", op.addr)
                         for op in thread if isinstance(op, (Ld, St))])

    def writes(tid: int) -> List[str]:
        return [a for k, a in accesses[tid] if k == "st"]

    def read_sequence(tid: int) -> List[str]:
        return [a for k, a in accesses[tid] if k == "ld"]

    # IRIW: writers w1 (addr a), w2 (addr b), readers r1 seeing a then
    # b, r2 seeing b then a.
    for w1 in range(num_threads):
        for w2 in range(num_threads):
            if w1 == w2:
                continue
            for a in set(writes(w1)):
                for b in set(writes(w2)):
                    if a == b:
                        continue
                    readers = [tid for tid in range(num_threads)
                               if tid not in (w1, w2)]
                    ab = [t for t in readers
                          if _reads_in_order(read_sequence(t), a, b)]
                    ba = [t for t in readers
                          if _reads_in_order(read_sequence(t), b, a)]
                    if any(x != y for x in ab for y in ba):
                        shapes.add("iriw")
    # WRC: w writes a; t reads a then writes b; r reads b then a.
    for w in range(num_threads):
        for a in set(writes(w)):
            for t in range(num_threads):
                if t == w:
                    continue
                seq = accesses[t]
                for i, (k1, a1) in enumerate(seq):
                    if k1 != "ld" or a1 != a:
                        continue
                    for k2, b in seq[i + 1:]:
                        if k2 != "st" or b == a:
                            continue
                        for r in range(num_threads):
                            if r in (w, t):
                                continue
                            if _reads_in_order(read_sequence(r), b, a):
                                shapes.add("wrc")
    return frozenset(shapes)


def _reads_in_order(sequence: List[str], first: str, second: str) -> bool:
    for i, addr in enumerate(sequence):
        if addr == first:
            return second in sequence[i + 1:]
    return False


def find_races(program: Program) -> RaceReport:
    """Outcomes x86 allows but 370 forbids, each with the 370 cycle.

    The cycle of every such outcome threads through at least one
    ``rfi`` edge — the forwarded store observed early — because rfi
    membership in ghb is the only difference between the two models.
    """
    verdicts = classify_many(program, (X86, M370))
    x86, m370 = verdicts[X86], verdicts[M370]
    shapes = program_shapes(program)
    report = RaceReport(program=program, program_shapes=shapes)
    for outcome in sorted(x86.allowed - m370.allowed, key=str):
        witness = m370.witnesses[outcome]
        if witness.has_kind("rfi"):
            shape = "forwarding"
        elif "iriw" in shapes:
            shape = "iriw"
        elif "wrc" in shapes:
            shape = "wrc"
        else:
            shape = "other"
        report.races.append(
            Race(outcome=outcome, witness=witness, shape=shape))
    return report


# ---------------------------------------------------------------------------
# Cross-checks against the enumerator in litmus/axiomatic.py
# ---------------------------------------------------------------------------

@dataclass
class CrossCheckResult:
    programs_checked: int = 0
    programs_skipped: int = 0       # retained for report compatibility
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.programs_checked > 0


def cross_check_program(program: Program,
                        models: Sequence[str] = MODELS) -> List[str]:
    """Compare this module's allowed sets against
    :func:`repro.litmus.axiomatic.enumerate_axiomatic` per model;
    returns human-readable mismatch descriptions (empty = agreement)."""
    mismatches: List[str] = []
    verdicts = classify_many(program, models)
    for model in models:
        mine = verdicts[model].allowed
        oracle = enumerate_axiomatic(program, model)
        if mine == oracle:
            continue
        extra = sorted(mine - oracle, key=str)
        missing = sorted(oracle - mine, key=str)
        detail = []
        if extra:
            detail.append("relation-analysis-only: "
                          + "; ".join(map(str, extra)))
        if missing:
            detail.append("enumerator-only: "
                          + "; ".join(map(str, missing)))
        mismatches.append(
            f"{program.name} under {model}: {' / '.join(detail)}")
    return mismatches


def cross_check_battery(models: Sequence[str] = MODELS) -> CrossCheckResult:
    """Cross-check the full built-in battery — locked-RMW cases
    included, both sides model them now."""
    from repro.litmus.battery import EXTRA_CASES
    from repro.litmus.tests import ALL_CASES
    result = CrossCheckResult()
    for case in list(ALL_CASES) + list(EXTRA_CASES):
        result.mismatches.extend(cross_check_program(case.program, models))
        result.programs_checked += 1
    return result


def cross_check_random(count: int, seed: int,
                       models: Sequence[str] = MODELS,
                       threads: int = 2, max_ops: int = 3,
                       allow_fences: bool = True) -> CrossCheckResult:
    """Cross-check ``count`` seeded random programs from
    :func:`repro.litmus.checker.random_program`."""
    from repro.litmus.checker import random_program
    rng = random.Random(seed)
    result = CrossCheckResult()
    for trial in range(count):
        program = random_program(rng, name=f"random-{seed}-{trial}",
                                 threads=threads, max_ops=max_ops,
                                 allow_fences=allow_fences)
        result.mismatches.extend(cross_check_program(program, models))
        result.programs_checked += 1
    return result
