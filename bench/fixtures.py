"""Benchmark inputs: synthetic snapshots and CSV sources on disk.

The reference workloads use ``tests/synth.py`` as is. ``reposcan-10x`` needs
ten times the files per snapshot, and with them ten times the marker moduli:
scaling only the file counts pushes every marker token out of the df band
that keyword predicates sample from, and ten 1x copies under one root leave
no path-and-content predicate at N=25. Scaling both keeps each band token's
document frequency where the 1x tree has it, over a corpus ten times larger.
"""

from __future__ import annotations

from pathlib import Path

import synth

SNAPSHOT_NAMES = ("alpha_repo", "beta_repo", "gamma_repo")
_SCALED = ("N_SOURCE", "N_TEST", "N_DOC", "N_CONFIG")


def build_snapshots(base: Path, scale: int) -> list[Path]:
    """The three snapshots every reposcan workload generates over.

    ``synth.build_snapshot`` reads its file counts and ``BAND_TOKENS`` when
    it is called, so they are scaled for the length of the build and then
    restored.
    """
    saved = {name: getattr(synth, name) for name in (*_SCALED, "BAND_TOKENS")}
    try:
        for name in _SCALED:
            setattr(synth, name, saved[name] * scale)
        synth.BAND_TOKENS = [(token, modulus * scale) for token, modulus in saved["BAND_TOKENS"]]
        return [
            synth.build_snapshot(base / name, offset=offset)
            for offset, name in enumerate(SNAPSHOT_NAMES)
        ]
    finally:
        for name, value in saved.items():
            setattr(synth, name, value)


def build_csv_sources(base: Path) -> list[Path]:
    return [
        synth.build_cars_csv(base / "cars.csv"),
        synth.build_flights_csv(base / "flights.csv"),
    ]
