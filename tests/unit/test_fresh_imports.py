"""Every ``repro.<subpackage>`` imports cleanly as the first import of
a fresh interpreter — no hidden dependence on import order (such as a
circular import that only works once another package is loaded)."""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = sorted(info.name
                     for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_subpackages_discovered():
    assert {"litmus", "lint", "models", "synth"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first_in_fresh_interpreter(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
