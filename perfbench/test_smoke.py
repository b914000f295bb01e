"""The benchmark's own tests: every workload at ``--size small``, with
its checks, in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from common import END_TO_END, HERE, PER_LAYER, ROOT, SRC

sys.path.insert(0, SRC)

import fig10  # noqa: E402
import serve_batch  # noqa: E402

WORKLOADS = ("fig10-sweep", "litmus-verify", "serve-batch")

#: Counts the traced run must repeat exactly.
EXACT = ("sim.events", "sim.cycles", "cpu.retired_instructions",
         "cpu.slf_loads", "cpu.squashes", "cpu.reexecuted_instructions",
         "core.gate_closes", "core.gate_lock_cycles",
         "coherence.invalidations", "coherence.evictions", "noc.messages",
         "synth.enumerated", "synth.judged", "synth.hits", "synth.distinct",
         "litmus.outcomes", "serve.jobs_executed", "serve.jobs_cache_hit")


def result(workload: str, trace: int, seed: int = 3) -> dict:
    """One small run's result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
         str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_pass(workload):
    out = result(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_counts(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert first["failed"] == 0 and second["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == PER_LAYER
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert os.path.isfile(os.path.join(
        ROOT, ".perfbench-out", f"{workload}-seed3.trace.json"))


def test_forked_cell_equals_fresh_simulation():
    from repro.sim.system import simulate
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import generate_warmup, generate_workload

    seed = 5
    for entry in fig10.setup(seed, "small"):
        cells = fig10.sweep_profile(entry, seed)
        name, cores, length = entry
        profile = get_profile(name)
        traces = generate_workload(profile, cores, length, seed)
        warm = generate_warmup(profile, cores, length, seed)
        for cell in cells:
            fresh = simulate(traces, cell.policy, warm_caches=warm)
            assert fresh.to_dict() == cell.stats.to_dict(), cell.policy


def test_cell_checks_catch_violations():
    from repro.sim.stats import CoreStats, SystemStats

    core = CoreStats(retired_instructions=10, retired_loads=4,
                     retired_stores=3, slf_loads=1, gate_closes=2,
                     gate_opens=1)
    stats = SystemStats(per_core={0: core})
    assert fig10.check_cell("x86", stats, (10, 4, 3))
    assert fig10.check_cell("370-NoSpec", stats, (10, 4, 3))
    assert fig10.check_cell("370-SLFSoS", stats, (10, 4, 3))
    assert fig10.check_cell("370-SLFSoS-key", stats, (11, 4, 3))
    core.gate_opens = 2
    assert fig10.check_cell("370-SLFSoS-key", stats, (10, 4, 3)) == []


def test_litmus_check_reads_witness_from_outcome_strings():
    cases, _pool = serve_batch.setup(0, "small")
    checker = serve_batch.Checker(cases)
    sb = {"kind": "litmus", "name": "sb", "models": ["SC", "370"]}
    weak = {"SC": ["0:ry=0 1:rx=1 | [x]=1 [y]=1"],
            "370": ["0:ry=0 1:rx=0 | [x]=1 [y]=1"]}
    assert checker._litmus(sb, {"models": weak}) == []
    assert checker._litmus(sb, {"models": {"SC": weak["370"]}})


def test_serve_stream_resubmits_the_previous_batch():
    _cases, pool = serve_batch.setup(4, "small")
    stream = serve_batch.Stream(4, "small", pool)
    seen, previous = set(), []
    for _ in range(4):
        items = stream.next_round()
        cold = [json.dumps(r, sort_keys=True) for t, r in items
                if t == "cold"]
        repeat = sorted(json.dumps(r, sort_keys=True) for t, r in items
                        if t == "repeat")
        assert len(cold) == 4 * 5 + 8
        assert repeat == sorted(previous)
        assert seen.isdisjoint(cold) and len(set(cold)) == len(cold)
        seen.update(cold)
        previous = cold


def test_without_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
