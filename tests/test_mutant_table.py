"""The mutant table in `tests/mutants.py` stays applicable to the code.

Running the table takes a pytest run per row, so tier-1 only checks what
would make a row meaningless: its fragment must occur exactly once in its
file, and every test it names must still be collected.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_fragment_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment and mutant.tests


def test_every_named_test_is_collected():
    named = sorted({t for m in MUTANTS for t in m.tests})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = done.stdout.splitlines()
    missing = [t for t in named if not any(c == t or c.startswith(t + "[") for c in collected)]
    assert not missing
