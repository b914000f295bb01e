"""classify() against its golden fixture: allowed and forbidden sets
and every witness cycle must stay byte-identical (regeneration script
and provenance in tests/golden/classify_fixture.py)."""

import json

from repro.lint.memory_model import classify
from tests.golden.classify_fixture import FIXTURE, snapshot


def test_classify_matches_golden_witnesses():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    current = snapshot(classify)
    assert sorted(current) == sorted(golden)
    for name, expected in golden.items():
        assert current[name]["key"] == expected["key"], name
        for model, verdict in expected["models"].items():
            assert current[name]["models"][model] == verdict, \
                f"{name} under {model}"
