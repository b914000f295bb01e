"""fig10-sweep: the paper's five-policy comparison as a warm-fork sweep.

One round runs the program's own sweep, ``repro.workloads.runner
.run_policy_sweep_forked``, for each profile: it generates the traces
from the workload seed, builds and warms one ``System``, captures it
with ``repro.snapshot.capture`` and forks it into every policy cell,
which ``System.run`` then simulates.  The benchmark times those calls
from outside by wrapping them.  The three profiles pull the layers
apart: ``barnes`` closes the retire gate often, ``fft`` spends more in
coherence and the NoC, and ``505.mcf`` (one core, sequential suite)
evicts.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import re
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Tuple

from common import (FOLD_LAYERS, SWEEP_PROFILES, Spans, Tally, another_round,
                    peak_rss_mb, self_metric, setup_probes, trace_path)

#: Instructions per core, by suite.
LENGTHS = {"full": {"parallel": 1500, "sequential": 6000},
           "small": {"parallel": 120, "sequential": 480}}
#: Set-up probes before the first round; one more follows every round.
SETUP_PROBES = 3


def setup(seed: int, size: str) -> List[Tuple]:
    """Imports and the sweep plan: ``(name, cores, length)``."""
    import repro.core.policies  # noqa: F401  (policy registry)
    import repro.snapshot  # noqa: F401
    import repro.workloads.runner  # noqa: F401
    from repro.workloads.profiles import get_profile

    return [(name, cores, LENGTHS[size][get_profile(name).suite])
            for name, cores in SWEEP_PROFILES]


def expected_counts(plan, seed: int) -> List[Tuple[int, int, int]]:
    """Per profile, the (instructions, loads, stores) its traces hold,
    counted here from a generation of our own (outside set-up and the
    timed rounds)."""
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import generate_workload
    return [trace_counts(generate_workload(get_profile(name), cores, length,
                                           seed))
            for name, cores, length in plan]


class Cell:
    """One (profile, policy) result of the sweep."""

    __slots__ = ("profile", "policy", "stats", "events")

    def __init__(self, profile, policy, stats, events):
        self.profile = profile
        self.policy = policy
        self.stats = stats
        self.events = events


@contextmanager
def instrumented(spans: Spans, events: List[int], layers: bool):
    """Time the calls ``run_policy_sweep_forked`` makes into each layer.

    ``fork`` and ``System.run`` are always timed: together they are the
    simulation phase ``throughput_per_s`` divides by, and ``events``
    gets each run's dispatched engine events.  With ``layers`` the
    traced run also times trace generation, ``System`` construction
    with warm caches, and ``capture``.
    """
    import repro.snapshot
    import repro.workloads.runner as runner
    from repro.sim.system import System

    run, init = System.run, System.__init__

    def timed_run(system, *args, **kwargs):
        before = system.engine.events_dispatched
        with spans.span("sim.run"):
            stats = run(system, *args, **kwargs)
        events.append(system.engine.events_dispatched - before)
        return stats

    def timed_init(system, *args, **kwargs):
        if not kwargs.get("warm_caches"):
            return init(system, *args, **kwargs)
        with spans.span("coherence.warm"):
            return init(system, *args, **kwargs)

    undo = [spans.wrap(repro.snapshot, "fork", "snapshot.fork")]
    System.run = timed_run
    if layers:
        System.__init__ = timed_init
        undo += [spans.wrap(repro.snapshot, "capture", "snapshot.capture"),
                 spans.wrap(runner, "generate_workload", "workloads.gen"),
                 spans.wrap(runner, "generate_warmup", "workloads.gen")]
    try:
        yield
    finally:
        System.run, System.__init__ = run, init
        for restore in reversed(undo):
            restore()


def sweep_profile(entry: Tuple, seed: int) -> List[Cell]:
    """The program's warm-fork sweep of one profile, one cell per policy.
    Run it under :func:`instrumented` to get each cell's events."""
    from repro.workloads.runner import run_policy_sweep_forked

    name, cores, length = entry
    results = run_policy_sweep_forked(name, cores=cores, length=length,
                                      seed=seed)
    return [Cell(name, policy, result.stats, None)
            for policy, result in results.items()]


def trace_counts(traces) -> Tuple[int, int, int]:
    """Instructions, loads and stores the traces hold, counted here."""
    from repro.cpu.isa import LOAD, STORE
    ops = [op for trace in traces for op in trace.ops]
    return (len(ops), sum(op.kind == LOAD for op in ops),
            sum(op.kind == STORE for op in ops))


def check_cell(policy: str, stats, expected: Tuple[int, int, int]
               ) -> List[str]:
    """Conservation and the policy's defining properties."""
    problems = []
    total = stats.total
    got = (total.retired_instructions, total.retired_loads,
           total.retired_stores)
    if got != tuple(expected):
        problems.append(f"retired (instr, loads, stores) {got} != "
                        f"traces {tuple(expected)}")
    if policy == "370-NoSpec" and total.slf_loads:
        problems.append(f"370-NoSpec forwarded {total.slf_loads} loads")
    if policy in ("x86", "370-SLFSpec") and total.gate_closes:
        problems.append(f"{policy} closed the gate {total.gate_closes}x")
    if policy in ("370-SLFSoS", "370-SLFSoS-key"):
        for cid, core in stats.per_core.items():
            if core.gate_opens != core.gate_closes:
                problems.append(f"core {cid}: gate opens {core.gate_opens}"
                                f" != closes {core.gate_closes}")
    return problems


def sweep_round(plan, expected, seed: int, tally: Tally, spans: Spans,
                layers: bool = False):
    """One full sweep; checks, against ``expected_counts``, run after
    the timed part.  Returns ``(wall_s, instructions, cells)``; the
    simulation phase's seconds accumulate in ``spans``."""
    events: List[int] = []
    results, wall = [], 0.0
    with instrumented(spans, events, layers):
        for entry in plan:
            # Each sweep starts from a collected heap, so peak_rss_mb is
            # the sweep's own working set, not the moment the collector
            # happened to free an earlier sweep's systems (their
            # reference cycles otherwise move the peak by 10% by seed).
            gc.collect()
            start = time.perf_counter()
            results.append(sweep_profile(entry, seed))
            wall += time.perf_counter() - start
    cells, instructions = [], 0
    for counts, profile_cells in zip(expected, results):
        for cell in profile_cells:
            cell.events = events[len(cells)]
            tally.record(f"{cell.profile}/{cell.policy}",
                         check_cell(cell.policy, cell.stats, counts))
            instructions += cell.stats.total.retired_instructions
            cells.append(cell)
    return wall, instructions, cells


def layer_of(path: str) -> str:
    """The fold layer a source file belongs to."""
    match = re.search(r"/repro/(\w+)/(\w+)\.py$", path.replace("\\", "/"))
    if match is None:
        return "other"
    package, module = match.groups()
    for layer in (f"{package}.{module}", package):
        if layer in FOLD_LAYERS:
            return layer
    return "other"


def fold(profiler: cProfile.Profile) -> Dict[str, float]:
    """cProfile self time per layer."""
    totals = {layer: 0.0 for layer in FOLD_LAYERS}
    for (path, _line, _func), row in pstats.Stats(profiler).stats.items():
        totals[layer_of(path)] += row[2]
    return totals


def model_work(cells: List[Cell]) -> Dict[str, int]:
    """Simulated work summed over cells: exact, host-independent."""
    out = {"sim.cycles": 0, "cpu.retired_instructions": 0,
           "cpu.slf_loads": 0, "cpu.squashes": 0,
           "cpu.reexecuted_instructions": 0, "core.gate_closes": 0,
           "core.gate_lock_cycles": 0, "coherence.invalidations": 0,
           "coherence.evictions": 0, "noc.messages": 0, "sim.events": 0}
    for cell in cells:
        stats, total = cell.stats, cell.stats.total
        out["sim.cycles"] += stats.execution_cycles
        out["cpu.retired_instructions"] += total.retired_instructions
        out["cpu.slf_loads"] += total.slf_loads
        out["cpu.squashes"] += total.squashes
        out["cpu.reexecuted_instructions"] += total.reexecuted_instructions
        out["core.gate_closes"] += total.gate_closes
        out["core.gate_lock_cycles"] += total.gate_lock_cycles
        out["coherence.invalidations"] += stats.invalidations_sent
        out["coherence.evictions"] += stats.evictions
        out["noc.messages"] += stats.network_total
        out["sim.events"] += cell.events
    return out


def run(seed: int, seconds: float, size: str, tally: Tally) -> Dict:
    probes = setup_probes("fig10-sweep", seed, size, SETUP_PROBES)
    plan = setup(seed, size)
    expected = expected_counts(plan, seed)
    spans = Spans()
    walls, instructions = [], 0
    start = time.perf_counter()
    while another_round(walls, start, seconds):
        wall, round_instr, _ = sweep_round(plan, expected, seed, tally,
                                         spans)
        walls.append(wall)
        instructions += round_instr
        probes += setup_probes("fig10-sweep", seed, size, 1)
    sim_s = spans.total("snapshot.fork") + spans.total("sim.run")
    return {"setup_s": median(probes), "wall_s": median(walls),
            "throughput_per_s": instructions / sim_s,
            "peak_rss_mb": peak_rss_mb()}


def run_traced(seed: int, size: str, tally: Tally) -> Dict:
    """Untraced round, spanned round, then a cProfile fold per profile."""
    plan = setup(seed, size)
    expected = expected_counts(plan, seed)
    untraced, _, _ = sweep_round(plan, expected, seed, tally, Spans())
    spans = Spans()
    traced, _, cells = sweep_round(plan, expected, seed, tally, spans,
                                   layers=True)
    spans.write(trace_path("fig10-sweep", seed))
    metrics = model_work(cells)
    metrics.update({
        "workloads.gen_s": spans.total("workloads.gen"),
        "coherence.warm_s": spans.total("coherence.warm"),
        "snapshot.capture_s": spans.total("snapshot.capture"),
        "snapshot.fork_s": spans.total("snapshot.fork"),
        "sim.run_s": spans.total("sim.run"),
        "sim.ns_per_event": spans.total("sim.run") * 1e9
        / metrics["sim.events"],
        "sim.events_per_instr": metrics["sim.events"]
        / metrics["cpu.retired_instructions"],
        "trace.overhead_s": traced - untraced,
    })
    overall = {layer: 0.0 for layer in FOLD_LAYERS}
    for entry in plan:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            sweep_profile(entry, seed)
        finally:
            profiler.disable()
        for layer, self_s in fold(profiler).items():
            metrics[f"{entry[0]}.{self_metric(layer)}"] = self_s
            overall[layer] += self_s
    for layer, self_s in overall.items():
        metrics[self_metric(layer)] = self_s
    return metrics
