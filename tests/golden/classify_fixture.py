"""Golden ``classify()`` verdicts: the programs and the regeneration
script.

The fixture pins the lint relation engine's full output — allowed and
forbidden outcome sets plus every witness cycle (axiom and labelled
``(src, dst, kind)`` edges) — for every program in
:func:`repro.models.lattice.battery_corpus` and a fixed seeded
population, under SC, 370, x86 and WMM.  A refactor of the engine must
leave it byte-identical; ``tests/unit/test_classify_golden.py`` asserts
that.

The population has the two shapes of the repository benchmark's
litmus-verify workload — 3 threads x (3, 3, 2) plain loads and stores,
and 2 threads x 4 ops mixing a fence, a lightweight fence,
acquire/release and two locked RMWs (one exchange, one cas), each
writing each of ``x`` and ``y`` exactly twice with globally unique
store values — plus draws of :func:`repro.litmus.checker.random_program`
over the full vocabulary, where equally short witnesses of one outcome
compete, so the first-found tie-break is pinned too.

Regenerate (only when an engine change is *meant* to move a verdict,
and say why in CHANGES.md) from the repository root with::

    PYTHONPATH=src python tests/golden/classify_fixture.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "classify_witnesses.json")
MODELS = ("SC", "370", "x86", "WMM")
SEED = 7
#: Programs of each population shape.
PLAIN, ANNOTATED, RANDOM = 3, 3, 12


def _build(name: str, threads):
    """Events ``(kind, addr, cas succeeds)`` per thread -> Program."""
    from repro.litmus.program import Cas, Fence, Ld, Rmw, St, make_program
    value, out = 1, []
    for events in threads:
        ops, reg = [], 0
        for kind, addr, succeeds in events:
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
                # does, so the success and the failure path both occur.
                ops.append(Cas(addr, 0 if succeeds else value, value,
                               f"r{reg}"))
                value, reg = value + 1, reg + 1
            else:
                ops.append(Fence("lw" if kind == "lwfence" else "mf"))
        out.append(ops)
    return make_program(name, out)


def _plain(rng: random.Random, name: str):
    addrs = ["x", "x", "y", "y"]
    rng.shuffle(addrs)
    events = [("st", a, None) for a in addrs] + [
        ("ld", rng.choice("xy"), None) for _ in range(4)]
    rng.shuffle(events)
    return _build(name, [events[0:3], events[3:6], events[6:8]])


def _annotated(rng: random.Random, name: str):
    addrs = ["x", "x", "y", "y"]
    rng.shuffle(addrs)
    events = [("st.rel", addrs[0], None), ("st", addrs[1], None),
              ("xchg", addrs[2], None),
              ("cas", addrs[3], rng.random() < .5),
              ("ld.acq", rng.choice("xy"), None),
              ("ld", rng.choice("xy"), None),
              ("fence", None, None), ("lwfence", None, None)]
    rng.shuffle(events)
    return _build(name, [events[0:4], events[4:8]])


def programs() -> List:
    """The battery corpus followed by the seeded population."""
    from repro.litmus.checker import random_program
    from repro.models.lattice import battery_corpus
    rng = random.Random(SEED)
    return (battery_corpus()
            + [_plain(rng, f"plain-{i}") for i in range(PLAIN)]
            + [_annotated(rng, f"annotated-{i}") for i in range(ANNOTATED)]
            + [random_program(rng, name=f"random-{i}", threads=2,
                              max_ops=3, allow_fences=True,
                              allow_rmws=True, allow_acqrel=True)
               for i in range(RANDOM)])


def _event(event) -> str:
    """``(tid, idx[, 1])`` as ``tid.idx[.1]`` (tid -1: an init store)."""
    return ".".join(map(str, event))


def verdict(classification) -> Dict:
    """One Classification as plain JSON data, every list sorted."""
    witnesses = {}
    for outcome in sorted(classification.forbidden, key=str):
        witness = classification.witnesses[outcome]
        witnesses[str(outcome)] = {
            "axiom": witness.axiom,
            "edges": [f"{_event(e.src)} {_event(e.dst)} {e.kind}"
                      for e in witness.edges]}
    return {"allowed": sorted(str(o) for o in classification.allowed),
            "forbidden": sorted(str(o) for o in classification.forbidden),
            "witnesses": witnesses}


def snapshot(classify_one) -> Dict:
    """``{program name: {model: verdict}}`` with ``classify_one(program,
    model)`` as the engine under test."""
    from repro.litmus.program import canonical_key
    out = {}
    for program in programs():
        out[program.name] = {
            "key": canonical_key(program),
            "models": {model: verdict(classify_one(program, model))
                       for model in MODELS}}
    return out


def main() -> None:
    from repro.lint.memory_model import classify
    data = snapshot(classify)
    with open(FIXTURE, "w") as fh:
        # One program per line: a moved verdict diffs to its program.
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(name)}: {json.dumps(data[name], sort_keys=True)}"
            for name in sorted(data)))
        fh.write("\n}\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
