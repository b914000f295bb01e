"""litmus-verify: the verification toolkit, no simulator.

A round has two phases.  Synthesis searches a fixed bounded space with
``repro.synth.search``, one chunk per operation.  The oracle phase runs
``repro.synth.oracle.triple_check`` over a seeded program population and
``repro.models.lattice.check_lattice`` over the battery and generated
corpus.  The population has two fixed shapes so that its cost hardly
depends on the seed: 3 threads x (3, 3, 2) plain loads and stores, and
2 threads x 4 ops with a fence, a lightweight fence, acquire/release and
two locked RMWs.  Each shape writes each address exactly twice; the
relation engines' candidate count grows with the factorial of writes
per address, so that is the knob that keeps programs comparable.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from statistics import median
from typing import Dict, List, Tuple

from common import (Spans, Tally, another_round, peak_rss_mb, setup_probes,
                    trace_path)

#: (threads, max ops, addresses, chunks) of the synthesis space.
SPACES = {"full": (2, 2, 3, 4), "small": (2, 2, 2, 2)}
#: Programs of each shape in the oracle population.
POPULATION = {"full": (10, 20), "small": (1, 2)}
#: Set-up probes before the first round; one more follows every round.
SETUP_PROBES = 3


def _build(name: str, threads):
    """Events ``(kind, addr, cas succeeds)`` per thread -> Program, with
    globally unique store values so every rf edge is observable."""
    from repro.litmus.program import Cas, Fence, Ld, Rmw, St, make_program
    value, out = 1, []
    for events in threads:
        ops, reg = [], 0
        for kind, addr, expect in events:
            if kind in ("ld", "ld.acq"):
                ops.append(Ld(addr, f"r{reg}", acquire=kind == "ld.acq"))
                reg += 1
            elif kind in ("st", "st.rel"):
                ops.append(St(addr, value, release=kind == "st.rel"))
                value += 1
            elif kind == "xchg":
                ops.append(Rmw(addr, value, f"r{reg}"))
                value, reg = value + 1, reg + 1
            elif kind == "cas":
                # expect 0 meets the initial value; a fresh value never
                # does, so both the success and the failure path occur.
                ops.append(Cas(addr, 0 if expect else value, value,
                               f"r{reg}"))
                value, reg = value + 1, reg + 1
            else:
                ops.append(Fence("lw" if kind == "lwfence" else "mf"))
        out.append(ops)
    return make_program(name, out)


def plain_program(rng: random.Random, name: str):
    """3 threads x (3, 3, 2): two stores to each of x, y; four loads."""
    addrs = ["x", "x", "y", "y"]
    rng.shuffle(addrs)
    events = [("st", a, None) for a in addrs] + [
        ("ld", rng.choice("xy"), None) for _ in range(4)]
    rng.shuffle(events)
    return _build(name, [events[0:3], events[3:6], events[6:8]])


def annotated_program(rng: random.Random, name: str):
    """2 threads x 4: st.rel, st, xchg, cas, ld.acq, ld, fence, lwfence."""
    addrs = ["x", "x", "y", "y"]
    rng.shuffle(addrs)
    events = [("st.rel", addrs[0], None), ("st", addrs[1], None),
              ("xchg", addrs[2], None), ("cas", addrs[3], rng.random() < .5),
              ("ld.acq", rng.choice("xy"), None),
              ("ld", rng.choice("xy"), None),
              ("fence", None, None), ("lwfence", None, None)]
    rng.shuffle(events)
    return _build(name, [events[0:4], events[4:8]])


def population(seed: int, size: str) -> List:
    rng = random.Random(seed)
    plain, annotated = POPULATION[size]
    return ([plain_program(rng, f"plain-{i}") for i in range(plain)]
            + [annotated_program(rng, f"annotated-{i}")
               for i in range(annotated)])


def setup(seed: int, size: str):
    """Imports, lazy registries and the inputs of one round."""
    # ``import repro.models`` as the first import of a fresh interpreter
    # fails on a circular import; importing repro.litmus first avoids it.
    import repro.litmus  # noqa: F401
    from repro.litmus.program import canonical_key
    from repro.litmus.registry import litmus_registry
    from repro.models.lattice import battery_corpus
    from repro.synth import SynthBounds
    import repro.synth.oracle  # noqa: F401

    threads, ops, addresses, chunks = SPACES[size]
    bounds = SynthBounds(threads=threads, max_ops=ops, addresses=addresses)
    sb_key = canonical_key(litmus_registry()["sb"])
    return bounds, chunks, population(seed, size), battery_corpus(), sb_key


def rejudge(dist) -> List[str]:
    """A distinguisher's weak-only outcomes, judged again by the
    operational machines: allowed by the weak model, not the strong."""
    from repro.litmus.operational import enumerate_outcomes
    strong, weak = dist.pair
    weak_set = {str(o) for o in enumerate_outcomes(dist.program, weak)}
    strong_set = {str(o) for o in enumerate_outcomes(dist.program, strong)}
    problems = []
    for outcome in dist.weak_only:
        if outcome not in weak_set or outcome in strong_set:
            problems.append(f"{dist.key} {strong}/{weak}: [{outcome}] not "
                            f"weak-only operationally")
    if not dist.weak_only:
        problems.append(f"{dist.key}: no weak-only outcome")
    return problems


def verify_round(inputs, tally: Tally, spans: Spans = None) -> Dict:
    """One round; checks run after the timed phases."""
    from repro.models.lattice import check_lattice
    from repro.synth.oracle import triple_check
    from repro.synth.search import merge_results, search

    bounds, chunks, programs, corpus, sb_key = inputs
    span = spans.span if spans is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    parts = []
    for chunk in range(chunks):
        with span("synth.search"):
            parts.append(search(bounds, chunk=chunk, chunks=chunks))
    synth_s = time.perf_counter() - start
    reports = [triple_check(program) for program in programs]
    with span("models.lattice"):
        lattice = check_lattice(corpus)
    wall = time.perf_counter() - start

    for part in parts:
        problems = list(part.lattice_errors)
        for dist in part.distinguishers.values():
            problems.extend(rejudge(dist))
        tally.record(f"synth chunk {part.chunk}/{part.chunks}", problems)
    merged = merge_results(parts)
    found = {key for (_pair, key) in merged.distinguishers}
    tally.record("rediscover sb", [] if sb_key in found else
                 [f"sb ({sb_key}) not among {len(found)} distinguishers"])
    for report in reports:
        tally.record(f"triple_check {report.program.name}",
                     report.mismatches[:1])
    tally.record("check_lattice", [
        f"{v.program}: {v.strong} allows {v.outcomes} {v.weak} forbids"
        for v in lattice.violations])
    return {"wall": wall, "synth_s": synth_s, "oracle_s": wall - synth_s,
            "merged": merged, "reports": reports,
            "oracle_programs": len(programs) + lattice.programs_checked}


def run(seed: int, seconds: float, size: str, tally: Tally) -> Dict:
    probes = setup_probes("litmus-verify", seed, size, SETUP_PROBES)
    inputs = setup(seed, size)
    walls, oracle_s, programs = [], 0.0, 0
    start = time.perf_counter()
    while another_round(walls, start, seconds):
        result = verify_round(inputs, tally)
        walls.append(result["wall"])
        oracle_s += result["oracle_s"]
        programs += result["oracle_programs"]
        probes += setup_probes("litmus-verify", seed, size, 1)
    return {"setup_s": median(probes), "wall_s": median(walls),
            "throughput_per_s": programs / oracle_s,
            "peak_rss_mb": peak_rss_mb()}


#: (module, attribute, span) call sites the traced run times.
_WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.synth.search", "minimize_program", "synth.minimize"),
    ("repro.synth.search", "outcome_profile", "lint.profile"),
    ("repro.synth.oracle", "outcome_profile", "lint.profile"),
    ("repro.synth.oracle", "classify", "lint.classify"),
    ("repro.synth.oracle", "enumerate_axiomatic", "litmus.axiomatic"),
    ("repro.synth.oracle", "enumerate_outcomes", "litmus.operational"),
)


def run_traced(seed: int, size: str, tally: Tally) -> Dict:
    """Untraced round, then a round with spans around every public call
    of each layer."""
    import importlib

    inputs = setup(seed, size)
    untraced = verify_round(inputs, tally)
    spans = Spans()
    undo = [spans.wrap(importlib.import_module(module), attr, name)
            for module, attr, name in _WRAPPED]
    try:
        traced = verify_round(inputs, tally, spans)
    finally:
        for restore in reversed(undo):
            restore()
    spans.write(trace_path("litmus-verify", seed))
    merged = traced["merged"]
    return {
        "synth.search_s": spans.total("synth.search"),
        "synth.minimize_s": spans.total("synth.minimize"),
        "synth.enumerated": merged.enumerated,
        "synth.judged": merged.judged,
        "synth.prefilter_pass_ratio": merged.judged / merged.enumerated,
        "synth.hits": merged.hits,
        "synth.distinct": merged.distinct,
        "synth.programs_per_s": merged.enumerated / untraced["synth_s"],
        "oracle.programs_per_s": untraced["oracle_programs"]
        / untraced["oracle_s"],
        "lint.profile_s": spans.total("lint.profile"),
        "lint.classify_s": spans.total("lint.classify"),
        "litmus.axiomatic_s": spans.total("litmus.axiomatic"),
        "litmus.operational_s": spans.total("litmus.operational"),
        "models.lattice_s": spans.total("models.lattice"),
        "litmus.outcomes": sum(sum(r.counts.values())
                               for r in traced["reports"]),
        "trace.overhead_s": traced["wall"] - untraced["wall"],
    }
