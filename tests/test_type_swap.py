"""Seeded type swaps over every kind of file the engine loads.

A case replaces one value of a well-formed file by a value of another JSON
type and runs the commands that read that file through `cli.main`. The files
are a two-task manifest of each family, a two-row records file and a saved
run config. No exception may escape `main`, an exit code of 2 comes with one
`error:` line, and a swap that breaks the declared type of the value it
replaces must exit 2. The declared types are written here, from the file
formats, not read from the product's annotations.

Tier-1 runs a fixed sample of SAMPLE cases per file kind. The whole grid,
every case of `type_swap_grid`, runs outside it:

    PYTHONPATH=src python tests/test_type_swap.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from qgp import dataops, reposcan
from qgp.cli import RunConfig, main

SAMPLE = 75
SEED = 19
# What a swap puts in a value's place.
SWAPS = (None, True, 0, 7, -1, 2.0, 1.5, "x", [], ["x"], {})
# Integers that may be negative; every other integer in these files is a count.
SIGNED = {"seed"}
# A null that stands for a value of the type of this one.
NULLABLE = {"reported_count": 0, "ablation": ""}
# Objects whose contents have no declared type: what they hold is free, or
# checked by something other than a type (policy parameters by their policy).
FREE_CONTENTS = {"metadata", "policy_params"}
# What a record line holds past its typed fields. No command reads an entry
# of the log; the reader refuses a log that is not a list of
# `intervention_count` entries, which a swap may or may not make.
FREE = {"intervention_log", "abort_reason"}


def _fits(original: object, value: object, key: object) -> bool:
    """Whether `value` has the declared type of `original`, found at `key`."""
    if original is None:
        if value is None:
            return True
        original = NULLABLE[key]
    if isinstance(original, bool):
        return isinstance(value, bool)
    if type(original) is int:
        return type(value) is int and (value >= 0 or key in SIGNED)
    if isinstance(original, list) and original:
        # A list's items share the type of its first one.
        return isinstance(value, list) and all(_fits(original[0], v, key) for v in value)
    return type(value) is type(original)


def _paths(doc: object, path: tuple = (), typed: bool = True):
    """(path, value, typed) below `doc`, each list represented by its first item."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc[:1]) if isinstance(doc, list) else ()
    for key, value in items:
        here = typed and key not in FREE
        yield path + (key,), value, here
        yield from _paths(value, path + (key,), here and key not in FREE_CONTENTS)


def _swapped(doc: object, path: tuple, value: object) -> object:
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def _key(path: tuple) -> object:
    """The field name a path ends in, past any list index."""
    return next((k for k in reversed(path) if isinstance(k, str)), None)


def type_swap_grid(docs: dict) -> list[tuple]:
    """Every (kind, path, swap, breaks) case over `docs`, kind to document."""
    cases = []
    for kind, doc in sorted(docs.items()):
        for path, original, typed in _paths(doc):
            for value in SWAPS:
                if type(value) is type(original) and value == original:
                    continue
                breaks = typed and not _fits(original, value, _key(path))
                cases.append((kind, path, value, breaks))
    return cases


@pytest.fixture(scope="module")
def files(snapshot_roots, fixture_sources, tmp_path_factory) -> dict:
    """Each file kind's well-formed document and the commands that read it."""
    base = tmp_path_factory.mktemp("type-swap")
    retrieval = base / "reposcan.json"
    manifest = reposcan.generate_manifest(
        snapshot_roots[:1], targets=(10,), instances_per_target=2, seed=3
    )
    reposcan.write_manifest(manifest, retrieval)
    backlog = base / "dataops.json"
    dataops.write_manifest(
        dataops.generate_dataops_manifest(
            fixture_sources, targets=(3,), instances_per_target=2, seed=5
        ),
        backlog,
    )
    records = base / "records.jsonl"
    assert main(["run", "--manifest", str(retrieval), "--out", str(records)]) == 0
    config = base / "config.json"
    RunConfig(str(retrieval), "state_qgp", "greedy_oracle", str(base / "config-out.jsonl")).save(
        config
    )
    lines = records.read_text(encoding="utf-8").splitlines()
    return {
        "reposcan": (json.loads(retrieval.read_text(encoding="utf-8")), "greedy_oracle"),
        "dataops": (json.loads(backlog.read_text(encoding="utf-8")), "solver"),
        "records": ([json.loads(line) for line in lines], None),
        "config": (json.loads(config.read_text(encoding="utf-8")), None),
    }


def _commands(kind: str, path: Path, policy: str | None) -> list[list[str]]:
    out = str(path.parent / "out")
    if kind == "records":
        return [
            ["aggregate", "--records", str(path), "--out", out],
            ["delta", "--left", str(path), "--right", str(path), "--resamples", "10", "--out", out],
        ]
    if kind == "config":
        return [["run", "--config", str(path)]]
    return [
        ["smoke", "--manifest", str(path)],
        ["run", "--manifest", str(path), "--policy", policy, "--out", out],
    ]


def _write(kind: str, doc: object, path: Path) -> None:
    if kind == "records":
        path.write_text("".join(json.dumps(row) + "\n" for row in doc), encoding="utf-8")
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")


def run_case(files: dict, case: tuple, work: Path, capsys) -> list[str]:
    """The faults of one case, as text; an empty list when it holds."""
    kind, path, value, breaks = case
    doc, policy = files[kind]
    target = work / f"{kind}.json"
    _write(kind, _swapped(doc, path, value), target)
    faults = []
    for argv in _commands(kind, target, policy):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the fault
            faults.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code == 2 and not (err.startswith("error:") and err.count("\n") == 1):
            faults.append(f"{argv[0]}: exit 2 with {err!r}")
        if breaks and code != 2:
            faults.append(f"{argv[0]}: exit {code} for a type break")
    return faults


def _sample(files: dict, whole: bool) -> list[tuple]:
    docs = {kind: doc for kind, (doc, _) in files.items()}
    cases = type_swap_grid(docs)
    if whole:
        return cases
    rng = random.Random(SEED)
    return [
        case
        for kind in sorted(docs)
        for case in rng.sample([c for c in cases if c[0] == kind], SAMPLE)
    ]


def test_sampled_type_swaps(files, tmp_path, monkeypatch, capsys, request):
    # A swapped config may name a relative output; keep it in tmp_path.
    monkeypatch.chdir(tmp_path)
    cases = _sample(files, request.config.getoption("--whole-grid"))
    assert any(breaks for *_, breaks in cases)
    faults = [(case[:3], run_case(files, case, tmp_path, capsys)) for case in cases]
    assert not [(case, fault) for case, fault in faults if fault]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider", "--whole-grid", *sys.argv[1:]]))
