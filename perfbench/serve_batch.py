"""serve-batch: a closed loop against ``repro serve``.

The server runs as users run it (``repro serve``, one shard, one worker
process).  Two client threads each submit a job and wait for it before
taking the next.  The traffic is the repository's own service batch,
``benchmarks/bench_serve_throughput.py``: 4 profiles x 5 policies of
``bench`` cells at 2 cores x 800 instructions plus 8 ``litmus`` jobs,
submitted cold and then resubmitted warm.  Here a round submits a fresh
copy of that batch cold (a new job seed for the cells, a model subset
not asked before for each litmus case) while resubmitting the previous
round's batch, which the content-keyed store answers, all in one seeded
shuffle.  Rounds end at a barrier, so a repeat is always a store hit
and never a duplicate of a job in flight.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (OUT_DIR, ROOT, Spans, Tally, another_round, repro_env,
                    tail_percentile, trace_path)

#: The batch of ``benchmarks/bench_serve_throughput.py``.
PROFILES = ("radix", "fft", "barnes", "cholesky")
LITMUS_NAMES = ("mp", "sb", "lb", "iriw", "wrc", "rwc", "2+2w", "coRR")
CORES = 2
#: Instructions per core of a bench cell.
LENGTHS = {"full": 800, "small": 60}
CLIENTS = 2
#: Set-ups before the first round; one more follows every round.
SETUPS = 3
TRACED_ROUNDS = {"full": 8, "small": 2}
BASELINE_ROUNDS = 2


def setup(seed: int, size: str):
    """Client-side imports, the battery cases and, per litmus case, the
    model subsets the stream asks for, in seeded order.  The full model
    set, the service's default, is the warm-up's and never the
    stream's."""
    # repro.litmus before anything that imports repro.models (circular
    # import when repro.models comes first).
    from repro.litmus.battery import EXTRA_CASES
    from repro.litmus.tests import ALL_CASES
    from repro.models import model_names
    import repro.serve.client  # noqa: F401

    cases = {case.program.name: case
             for case in tuple(ALL_CASES) + tuple(EXTRA_CASES)}
    models = model_names()
    subsets = [list(combo) for k in range(1, len(models))
               for combo in itertools.combinations(models, k)]
    rng = random.Random(seed)
    pool = {name: rng.sample(subsets, len(subsets))
            for name in LITMUS_NAMES}
    return cases, pool


class Server:
    """One ``repro serve`` process with a private store directory."""

    def __init__(self, tag: str) -> None:
        self.cache_dir = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--shards", "1", "--shard-workers", "1",
             "--cache-dir", self.cache_dir],
            cwd=ROOT, env=repro_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self._first_line(timeout=60)
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split()[-1]

    def _first_line(self, timeout: float) -> str:
        box: List[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def peak_rss_mb(self) -> float:
        """VmHWM of the server and every process below it."""
        total, todo = 0, [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                with open(f"/proc/{pid}/task/{pid}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
            except FileNotFoundError:
                continue
        return total / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def call(client, request: Dict) -> Tuple[Dict, float]:
    """Submit one job and wait for its terminal document."""
    start = time.perf_counter()
    status, doc = client.submit(request)
    if status >= 300:
        return {"state": "http-error", "error": doc}, 0.0
    while doc.get("state") not in ("done", "failed", "rejected"):
        status, doc = client.job(doc["id"], wait=30)
        if status != 200:
            return {"state": "http-error", "error": doc}, 0.0
    return doc, time.perf_counter() - start


def bench_request(name: str, policy: str, size: str, seed: int) -> Dict:
    return {"kind": "bench", "name": name, "policy": policy,
            "cores": CORES, "length": LENGTHS[size], "seed": seed}


def start(seed: int, size: str, tag: str):
    """Server start, worker spawn and one warm-up job of each kind.
    Returns ``(server, client, warm-up records, seconds)``."""
    from repro.serve.client import ServeClient

    begin = time.perf_counter()
    server = Server(tag)
    try:
        client = ServeClient(server.url, timeout=120)
        records = []
        for request in (bench_request(PROFILES[0], "x86", size, seed * 1000),
                        {"kind": "litmus", "name": LITMUS_NAMES[0]}):
            doc, latency = call(client, request)
            records.append(("warm-up", request, doc, latency))
    except BaseException:
        server.stop()
        raise
    return server, client, records, time.perf_counter() - begin


def probe_setup(seed: int, size: str, tag: str) -> float:
    """Seconds one more server takes to start and serve its warm-up jobs
    (timed, then stopped; its store is its own)."""
    server, _client, _records, seconds = start(seed, size, tag)
    server.stop()
    return seconds


class Stream:
    """The seeded request stream, one round at a time."""

    def __init__(self, seed: int, size: str, litmus_pool: Dict) -> None:
        from repro.core.policies import POLICY_ORDER
        self.policies = POLICY_ORDER
        self.seed, self.size = seed, size
        self.rng = random.Random(seed)
        self.litmus = litmus_pool
        self.previous: List[Dict] = []  # the last round's cold batch
        self.rounds = 0

    def exhausted(self) -> bool:
        """Every litmus case has asked for each of its model subsets."""
        return self.rounds >= min(len(v) for v in self.litmus.values())

    def next_round(self) -> List[Tuple[str, Dict]]:
        """The batch cold, the previous round's batch again, shuffled.
        Round 0 has no previous batch; it only fills the store."""
        job_seed = self.seed * 1000 + 1 + self.rounds
        batch = [bench_request(name, policy, self.size, job_seed)
                 for name in PROFILES for policy in self.policies]
        batch += [{"kind": "litmus", "name": name,
                   "models": self.litmus[name][self.rounds]}
                  for name in LITMUS_NAMES]
        items = ([("cold", request) for request in batch]
                 + [("repeat", request) for request in self.previous])
        self.rng.shuffle(items)
        self.previous = batch
        self.rounds += 1
        return items


def closed_loop(client, items, spans: Optional[Spans] = None):
    """``CLIENTS`` threads drain ``items``; returns records and seconds."""
    span = (spans.span if spans is not None
            else (lambda name, **args: nullcontext()))
    todo = list(reversed(items))
    lock = threading.Lock()
    records: List[Tuple] = []
    errors: List[BaseException] = []

    def worker():
        try:
            while True:
                with lock:
                    if not todo:
                        return
                    tag, request = todo.pop()
                with span(f"serve.{request['kind']}", tag=tag):
                    doc, latency = call(client, request)
                with lock:
                    records.append((tag, request, doc, latency))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    begin = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, time.perf_counter() - begin


def _outcome_matches(outcome: str, witness: Dict[str, int]) -> bool:
    """Does an outcome string (``0:rx=1 | [x]=1``) meet the witness?"""
    values = {}
    for token in outcome.split():
        if token.startswith("["):
            addr, value = token[1:].split("]=")
            values[f"mem_{addr}"] = int(value)
        elif ":" in token:
            tid, assignment = token.split(":", 1)
            reg, value = assignment.split("=")
            values[f"r{tid}_{reg}"] = int(value)
    return all(values.get(key) == value for key, value in witness.items())


class Checker:
    """Checks every record against independent computations."""

    def __init__(self, cases) -> None:
        self.cases = cases
        self.first: Dict[str, str] = {}     # request -> first result
        self.counts: Dict[Tuple, Tuple] = {}

    def _expected_counts(self, request: Dict) -> Tuple[int, int, int]:
        from fig10 import trace_counts
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import generate_workload
        key = (request["name"], request["cores"], request["length"],
               request["seed"])
        if key not in self.counts:
            traces = generate_workload(get_profile(request["name"]),
                                       request["cores"], request["length"],
                                       request["seed"])
            self.counts[key] = trace_counts(traces)
        return self.counts[key]

    def _litmus(self, request: Dict, result: Dict) -> List[str]:
        case = self.cases[request["name"]]
        expected = case.expected_dict()
        witness = case.witness_dict()
        problems = []
        for model, outcomes in result["models"].items():
            seen = any(_outcome_matches(o, witness) for o in outcomes)
            if model in expected and seen != expected[model]:
                problems.append(f"{request['name']} under {model}: witness "
                                f"{'allowed' if seen else 'forbidden'}, "
                                f"battery expects the opposite")
        return problems

    def check(self, tag: str, request: Dict, doc: Dict) -> List[str]:
        from fig10 import check_cell
        from repro.sim.stats import SystemStats

        if doc.get("state") != "done":
            return [f"state {doc.get('state')}: {doc.get('error')}"]
        if tag != "warm-up" and doc["cache_hit"] != (tag == "repeat"):
            return [f"{tag} request came back cache_hit={doc['cache_hit']}"]
        identity = json.dumps(request, sort_keys=True)
        body = json.dumps(doc["result"], sort_keys=True)
        if doc["cache_hit"]:
            first = self.first.get(identity)
            return [] if body == first else ["hit differs from first run"]
        self.first[identity] = body
        if request["kind"] == "litmus":
            return self._litmus(request, doc["result"])
        return check_cell(request["policy"],
                          SystemStats.from_dict(doc["result"]),
                          self._expected_counts(request))


def _record_all(checker: Checker, tally: Tally, records) -> None:
    for tag, request, doc, _ in records:
        tally.record(f"{tag} {json.dumps(request, sort_keys=True)}",
                     checker.check(tag, request, doc))


def _latencies(records, kind: str, hit: bool) -> List[float]:
    return [latency * 1000 for tag, request, doc, latency in records
            if request["kind"] == kind and doc.get("cache_hit") == hit
            and doc.get("state") == "done" and tag != "warm-up"]


def run(seed: int, seconds: float, size: str, tally: Tally) -> Dict:
    cases, pool = setup(seed, size)
    checker = Checker(cases)
    setups = [probe_setup(seed, size, str(index))
              for index in range(SETUPS - 1)]
    server, client, records, setup_s = start(seed, size, "main")
    setups.append(setup_s)
    try:
        _record_all(checker, tally, records)
        stream = Stream(seed, size, pool)
        begin = time.perf_counter()
        round_records, _ = closed_loop(client, stream.next_round())
        _record_all(checker, tally, round_records)
        walls, jobs = [], 0
        while (another_round(walls, begin, seconds)
               and not stream.exhausted()):
            round_records, wall = closed_loop(client, stream.next_round())
            walls.append(wall)
            jobs += len(round_records)
            _record_all(checker, tally, round_records)
            setups.append(probe_setup(seed, size, str(len(setups))))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"setup_s": median(setups), "wall_s": median(walls),
            "throughput_per_s": jobs / sum(walls), "peak_rss_mb": rss}


def run_traced(seed: int, size: str, tally: Tally) -> Dict:
    """Baseline rounds, then rounds with a span around every job; the
    latencies and the service's own counters come from the traced part.
    The first round only fills the store and is in neither."""
    cases, pool = setup(seed, size)
    checker = Checker(cases)
    server, client, records, _ = start(seed, size, "traced")
    try:
        _record_all(checker, tally, records)
        stream = Stream(seed, size, pool)
        walls = {False: [], True: []}
        spans = Spans()
        traced: List[Tuple] = []
        for traced_round in ([None, *[False] * BASELINE_ROUNDS]
                             + [True] * TRACED_ROUNDS[size]):
            round_records, wall = closed_loop(
                client, stream.next_round(), spans if traced_round else None)
            _record_all(checker, tally, round_records)
            if traced_round is not None:
                walls[traced_round].append(wall)
            if traced_round:
                traced.extend(round_records)
        snapshot = client.metrics()
    finally:
        server.stop()
    spans.write(trace_path("serve-batch", seed))
    counters = snapshot["counters"]
    store = snapshot["store"]
    executed = _latencies(traced, "bench", False)
    return {
        "serve.latency_p50_ms": median(executed),
        "serve.latency_tail_ms": tail_percentile(executed),
        "serve.hit_latency_p50_ms": median(
            _latencies(traced, "bench", True)
            + _latencies(traced, "litmus", True)),
        "serve.litmus_latency_p50_ms": median(
            _latencies(traced, "litmus", False)),
        "serve.queue_wait_p50_ms":
            snapshot["histograms"]["queue_wait_ms"]["p50"],
        "serve.jobs_executed": counters.get("jobs_executed", 0),
        "serve.jobs_cache_hit": counters.get("jobs_cache_hit", 0),
        "serve.jobs_deduped": counters.get("jobs_deduped", 0),
        "serve.jobs_rejected": counters.get("jobs_rejected", 0),
        "serve.store_hit_ratio": store["hits"] / max(
            1, store["hits"] + store["misses"]),
        "trace.overhead_s": median(walls[True]) - median(walls[False]),
    }
