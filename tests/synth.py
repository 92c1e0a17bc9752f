"""Deterministic synthetic fixtures: repository snapshots and CSV sources.

Snapshots plant marker tokens at controlled document frequencies so predicate
sampling has feasible keywords at every target count. The token bank avoids
substring collisions; counts assume roughly 340 files per snapshot.
"""

from __future__ import annotations

import csv
from pathlib import Path

# (token, modulus): planted in every modulus-th file, so df ~= files/modulus.
BAND_TOKENS = [
    ("tamarind", 23),
    ("umbrella", 29),
    ("peregrine", 11),
    ("marigold", 5),
    ("quixotic", 3),
]
# Planted in every test file so a path-and-content pair exists even at N=100.
TEST_ANCHOR = "treacle"
DOC_ANCHOR = "saffron"

N_SOURCE = 150
N_TEST = 110
N_DOC = 58
N_CONFIG = 20


def _marker_line(index: int, offset: int) -> str:
    planted = [
        token
        for token, modulus in BAND_TOKENS
        if (index + 7 * offset) % modulus == 0
    ]
    return " ".join(planted)


def build_snapshot(root: Path, offset: int = 0) -> Path:
    """Write one synthetic repository snapshot; layout and content are pure
    functions of (root name, offset)."""
    root.mkdir(parents=True, exist_ok=True)
    index = 0
    for i in range(N_SOURCE):
        body = (
            f'"""Helper module {i}."""\n\n'
            f"def handler_{i}(value):\n"
            f"    # {_marker_line(index, offset)}\n"
            f"    total = value + {i}\n"
            f"    return total\n"
        )
        path = root / "src" / f"mod_{i:03d}.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        index += 1
    for i in range(N_TEST):
        body = (
            f"def test_handler_{i}():\n"
            f"    # {TEST_ANCHOR} {_marker_line(index, offset)}\n"
            f"    assert {i} >= 0\n"
        )
        path = root / "tests" / f"test_mod_{i:03d}.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        index += 1
    for i in range(N_DOC):
        suffix = "md" if i % 2 == 0 else "rst"
        body = (
            f"guide {i}\n========\n\n"
            f"usage notes {DOC_ANCHOR} {_marker_line(index, offset)}\n"
        )
        path = root / "docs" / f"guide_{i:03d}.{suffix}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        index += 1
    for i in range(N_CONFIG):
        suffix = [".toml", ".ini", ".cfg", ".yaml"][i % 4]
        body = f"# options {i} {_marker_line(index, offset)}\nkey_{i} = {i}\n"
        path = root / "config" / f"opts_{i:03d}{suffix}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        index += 1
    (root / "README.md").write_text(f"overview {DOC_ANCHOR}\n", encoding="utf-8")
    (root / "setup.cfg").write_text("[meta]\nversion = 1\n", encoding="utf-8")
    return root


def build_cars_csv(path: Path, rows: int = 40) -> Path:
    origins = ["usa", "europe", "japan"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "mpg", "cylinders", "origin"])
        for i in range(rows):
            writer.writerow(
                [f"car{i:03d}", f"model_{i}", str(12 + (i * 3) % 25), str(4 + (i % 3) * 2),
                 origins[i % 3]]
            )
    return path


def build_flights_csv(path: Path, rows: int = 50) -> Path:
    carriers = ["aero", "blue", "cirrus", "delta_air"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "carrier", "delay_minutes", "dest"])
        for i in range(rows):
            writer.writerow(
                [f"fl{i:03d}", carriers[i % 4], str((i * 7) % 90), f"apt_{i % 9}"]
            )
    return path


def tiny_corpus(valid: int = 3, total: int = 10, token: str = "zeta"):
    """A ten-artifact corpus whose first `valid` artifacts contain the token."""
    from oracle import build_corpus, record

    records = []
    for i in range(total):
        marker = f"{token} feature" if i < valid else "plain code"
        records.append(record(f"src/mod_{i}.py", f"module number {i} {marker}\n"))
    return build_corpus(records)
