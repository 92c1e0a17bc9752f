"""The benchmark's tracer patches engine attributes by name; keep those names.

`bench/run.py --trace 1` wraps module functions and class methods of `qgp`
through `bench/tracing.py`. Renaming or removing one of them breaks the traced
run, so this test installs the tracer, checks every patch took, and checks
that uninstalling puts every original back.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not patched"
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
