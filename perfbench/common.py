"""Shared pieces of the repository benchmark: metric tables, span
recording, set-up probes and the result line.

The benchmark measures each layer from outside: it times calls into the
layer's public functions from its own code and never edits the package.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Trace files and the service's scratch stores live here (gitignored).
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Printed on every untraced run, whatever the workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Profiles of the warm-fork sweep (name, cores).
SWEEP_PROFILES = (("barnes", 8), ("fft", 8), ("505.mcf", 1))

#: cProfile fold: module -> layer.  Files not listed fold into "other".
FOLD_LAYERS = ("cpu.pipeline", "cpu.store_buffer", "cpu.load_queue",
               "cpu.branch", "cpu.storeset", "sim.engine", "core",
               "coherence", "noc", "memory", "snapshot", "workloads",
               "other")


def self_metric(layer: str) -> str:
    """``cpu.pipeline`` -> ``cpu.pipeline_self_s``; ``core`` ->
    ``core.self_s``."""
    return f"{layer}_self_s" if "." in layer else f"{layer}.self_s"


def _per_layer_table() -> Dict[str, str]:
    table = {
        # fig10-sweep: spans around the sweep's public calls
        "workloads.gen_s": "s", "coherence.warm_s": "s",
        "snapshot.capture_s": "s", "snapshot.fork_s": "s",
        "sim.run_s": "s", "sim.ns_per_event": "ns", "sim.events": "count",
        "sim.events_per_instr": "ratio",
    }
    for layer in FOLD_LAYERS:
        table[self_metric(layer)] = "s"
    for profile, _cores in SWEEP_PROFILES:
        for layer in FOLD_LAYERS:
            table[f"{profile}.{self_metric(layer)}"] = "s"
    for name in ("sim.cycles", "cpu.retired_instructions", "cpu.slf_loads",
                 "cpu.squashes", "cpu.reexecuted_instructions",
                 "core.gate_closes", "core.gate_lock_cycles",
                 "coherence.invalidations", "coherence.evictions",
                 "noc.messages"):
        table[name] = "count"
    table.update({
        # litmus-verify
        "synth.search_s": "s", "synth.minimize_s": "s",
        "synth.enumerated": "count", "synth.judged": "count",
        "synth.prefilter_pass_ratio": "ratio", "synth.hits": "count",
        "synth.distinct": "count", "synth.programs_per_s": "1/s",
        "oracle.programs_per_s": "1/s", "lint.profile_s": "s",
        "lint.classify_s": "s", "litmus.axiomatic_s": "s",
        "litmus.operational_s": "s", "models.lattice_s": "s",
        "litmus.outcomes": "count",
        # serve-batch
        "serve.latency_p50_ms": "ms", "serve.latency_tail_ms": "ms",
        "serve.hit_latency_p50_ms": "ms",
        "serve.litmus_latency_p50_ms": "ms",
        "serve.queue_wait_p50_ms": "ms", "serve.jobs_executed": "count",
        "serve.jobs_cache_hit": "count", "serve.jobs_deduped": "count",
        "serve.jobs_rejected": "count", "serve.store_hit_ratio": "ratio",
        # every workload
        "trace.overhead_s": "s",
    })
    return table


#: Printed on every traced run.  A layer the workload does not exercise
#: reads 0: no work done, no time spent.
PER_LAYER = _per_layer_table()


def repro_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def tail_percentile(values: List[float]) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    it (p50 when there are fewer than twenty samples)."""
    ordered = sorted(values)
    n = len(ordered)
    best = 0.5
    for p in (0.9, 0.99, 0.999):
        if n * (1 - p) >= 10:
            best = p
    return ordered[min(n - 1, int(best * n))]


def another_round(walls: List[float], started: float,
                  seconds: float) -> bool:
    """Start another round if none ran yet or the last one's length
    still fits in ``seconds`` from ``started``: whole rounds only, and
    the run stays within its time."""
    return not walls or (time.perf_counter() - started + walls[-1]
                         <= seconds)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(workload: str, seed: int, size: str,
                 count: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to the end of the
    workload's set-up (imports, input construction, lazy registries),
    ``count`` times.  A probe that fails raises: set-up is not an
    operation, so a broken one breaks the run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=repro_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        times.append(elapsed)
    return times


class Spans:
    """In-memory spans around calls into the program, written out as
    Chrome trace events (the format ``repro trace`` emits).

    ``span`` nests: each span records the span open on its thread when
    it started, so a layer's self time can be recovered from the file.
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self.totals: Dict[str, float] = {}
        self._stack: Dict[int, List[int]] = {}
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **args):
        tid = threading.get_ident()
        stack = self._stack.setdefault(tid, [])
        with self._lock:
            span_id = len(self.events)
            self.events.append(None)  # reserve the id in start order
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            self.events[span_id] = {
                "name": name, "ph": "X", "pid": 0, "tid": tid,
                "ts": round((start - self._t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id,
                         "parent": stack[-1] if stack else None, **args},
            }

    def wrap(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a spanned call; returns an undo."""
        original = getattr(module, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, spanned)
        return lambda: setattr(module, attr, original)

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = [e for e in self.events if e is not None]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def trace_path(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], table: Dict[str, str]) -> str:
    """The benchmark's last stdout line.  Every metric of ``table`` must
    be present; a per-layer metric the workload did not measure is 0."""
    missing = [name for name in table if name not in metrics]
    extra = [name for name in metrics if name not in table]
    if extra:
        raise KeyError(f"unknown metrics {extra}")
    out = {name: {"value": metrics.get(name, 0), "unit": unit}
           for name, unit in table.items()}
    if table is END_TO_END and missing:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        """One operation; it failed if any of its checks found a
        problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def report(self, stream=sys.stderr) -> None:
        for problem in self.problems:
            print(f"FAILED: {problem}", file=stream)
