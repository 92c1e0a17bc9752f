"""Record bytes pinned in tier-1.

A fixed set of (controller, policy) pairs runs through `qgp run` on the
conftest manifests, and the sha256 of every record file, in pair order,
must equal one constant. The pairs cover every controller label
and every scripted policy at least once. An engine change that moves any
record byte fails here; a change that means to move them must say so and
update the constant. The bytes `qgp aggregate` writes over those records
are pinned the same way. Two backlog runs reach rules no pair reaches, and
each has a constant of its own: a stalling pair, steered and then stopped by
the backlog controller, and an external adapter whose second inspect is routed
to the check its edit left pending. Together the pinned files log every
intervention kind.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from qgp import dataops
from qgp.cli import main
from qgp.controllers import CONTROLLER_FEATURES, InterventionKind
from qgp.core import read_record_dicts

# (manifest fixture, controller, ablation flag, policy)
PAIRS = (
    ("reposcan", "standard", None, "greedy_oracle"),
    ("reposcan", "verifier_gated", None, "false_completer"),
    ("reposcan", "state_qgp", None, "duplicator"),
    ("reposcan", "standard", None, "early_stopper"),
    ("reposcan", "state_qgp", None, "early_stopper"),
    ("reposcan", "ablation", "dedupe_only", "redundant_searcher"),
    ("reposcan", "ablation", "page_memory_only", "redundant_searcher"),
    ("reposcan", "ablation", "dedupe_plus_page_no_buffer", "duplicator"),
    ("dataops", "standard", None, "false_completer"),
    ("dataops", "unit_qgp", None, "solver"),
    ("dataops", "unit_qgp", None, "no_submit_looper"),
    ("dataops", "verifier_gated", None, "early_stopper"),
)

RECORDS_SHA256 = "15a38d2288309bb3c1e391c85e1449a3a05f68c0ad76d77d56bf37b1a8a0b2f5"
# sha256 of `qgp aggregate --group-by controller,policy,target_count` over
# every record file above, given in pair order.
AGGREGATE_SHA256 = "21e3b406bbccc3e374bd23235f14be78551e73e300f9dc4e6046846e733f620b"

# unit_qgp against a looper that inspects u004, not the first unit of its
# backlog, on every step: at the default k = 6 the controller steers it to
# the first unit six times, then stops routing after 2k = 12 steps without
# progress. At k = 7 it steers seven times and the stop's detail reads 14.
STALL_ARGV = ("--controller", "unit_qgp", "--policy", "no_submit_looper", "--loop-unit", "u004")
STALL_RECORDS_SHA256 = "9bd816899c00d8c729b980b1cdbc544dee340f01180c8066c30e5c94249ef3da"

# An adapter that inspects u000, sends it one wrong edit, proposes to inspect
# it again, and then asks the user on every step. Every scripted backlog
# policy checks the unit it just edited, so only this run reaches unit_qgp's
# `routed_to_check`: the second inspect becomes the pending check. It runs on
# the two target-3 backlogs of the seed-23 sources.
CHECK_ADAPTER = """
import json, sys
replies = [
    {"kind": "inspect", "unit_id": "u000"},
    {"kind": "edit", "unit_id": "u000", "payload": "wrong"},
    {"kind": "inspect", "unit_id": "u000"},
]
for line in sys.stdin:
    step = json.loads(line)["step"]
    reply = replies[step - 1] if step <= len(replies) else {"kind": "ask_user", "message": "?"}
    sys.stdout.write(json.dumps(reply) + "\\n")
    sys.stdout.flush()
"""
CHECK_RECORDS_SHA256 = "3716bea5508c7883ba107fc7f8c5b844d9e4599dc7d9507f7a6ebc48402e262a"


@pytest.fixture(scope="module")
def record_paths(reposcan_manifest_path, dataops_manifest_path, tmp_path_factory) -> list[Path]:
    """The record file `qgp run` writes for each pair, in pair order."""
    manifests = {"reposcan": reposcan_manifest_path, "dataops": dataops_manifest_path}
    base = tmp_path_factory.mktemp("records")
    paths = []
    for index, (family, controller, ablation, policy) in enumerate(PAIRS):
        out = base / f"{index}.jsonl"
        argv = ["run", "--manifest", str(manifests[family]), "--controller", controller]
        argv += ["--policy", policy, "--out", str(out)]
        if ablation:
            argv += ["--ablation", ablation]
        assert main(argv) == 0, (controller, ablation, policy)
        paths.append(out)
    return paths


def test_record_bytes_are_pinned(record_paths):
    digest = hashlib.sha256()
    for path in record_paths:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RECORDS_SHA256


def test_aggregate_bytes_are_pinned(record_paths, tmp_path):
    out = tmp_path / "aggregate.csv"
    argv = ["aggregate", "--group-by", "controller,policy,target_count", "--out", str(out)]
    for path in record_paths:
        argv += ["--records", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AGGREGATE_SHA256


@pytest.fixture(scope="module")
def stall_path(dataops_manifest_path, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("stall") / "stall.jsonl"
    argv = ["run", "--manifest", str(dataops_manifest_path), *STALL_ARGV, "--out", str(out)]
    assert main(argv) == 0
    return out


def test_stalling_backlog_record_bytes_are_pinned(stall_path):
    assert hashlib.sha256(stall_path.read_bytes()).hexdigest() == STALL_RECORDS_SHA256


def test_stalling_backlog_is_steered_then_stopped(stall_path):
    rows = read_record_dicts(stall_path)
    log = [entry for row in rows for entry in row["intervention_log"]]
    kinds = Counter(entry["kind"] for entry in log)
    assert kinds == {"steered_to_unit": 144, "no_progress_stop": 24}
    assert {entry["detail"] for entry in log if entry["kind"] == "no_progress_stop"} == {
        "no progress for 12 steps; routing disabled, budget will exhaust"
    }
    assert {row["outcome"] for row in rows} == {"budget_exhausted"}


@pytest.fixture(scope="module")
def check_path(fixture_sources, tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("routed-check")
    manifest = base / "dataops.json"
    dataops.write_manifest(
        dataops.generate_dataops_manifest(
            fixture_sources, targets=(3,), instances_per_target=2, seed=23
        ),
        manifest,
    )
    adapter = base / "adapter.py"
    adapter.write_text(CHECK_ADAPTER, encoding="utf-8")
    out = base / "records.jsonl"
    argv = ["run", "--manifest", str(manifest), "--controller", "unit_qgp"]
    argv += ["--policy", "external", "--policy-cmd", f"{sys.executable} {adapter}"]
    assert main(argv + ["--out", str(out)]) == 0
    return out


def test_routed_check_record_bytes_are_pinned(check_path):
    assert hashlib.sha256(check_path.read_bytes()).hexdigest() == CHECK_RECORDS_SHA256


def test_routed_check_is_logged_once_per_run(check_path):
    rows = read_record_dicts(check_path)
    routed = [
        (row["task_id"], entry["step"], entry["detail"])
        for row in rows
        for entry in row["intervention_log"]
        if entry["kind"] == "routed_to_check"
    ]
    detail = "post-edit action routed to checker for u000"
    assert routed == [("dataops-n3-b0", 3, detail), ("dataops-n3-b1", 3, detail)]


def test_every_intervention_kind_is_pinned(record_paths, stall_path, check_path):
    logged = {
        entry["kind"]
        for path in [*record_paths, stall_path, check_path]
        for row in read_record_dicts(path)
        for entry in row["intervention_log"]
    }
    assert logged == {kind.value for kind in InterventionKind}


def test_dedupe_rows_forward_no_duplicate(record_paths):
    for (_, controller, ablation, _), path in zip(PAIRS, record_paths):
        features = CONTROLLER_FEATURES.get(f"{controller}:{ablation}" if ablation else controller)
        if features is not None and features.dedupe:
            rows = read_record_dicts(path)
            assert rows and {row["duplicate_occurrences"] for row in rows} == {0}, path


def test_every_pinned_record_file_loads(record_paths, stall_path, check_path):
    # The reader refuses a row that breaks a rule every run keeps, and a
    # repeated task; no reference run does either.
    tasks = {"reposcan": 36, "dataops": 24, "check": 2}
    pinned = [*PAIRS, ("dataops",), ("check",)]
    for (family, *_), path in zip(pinned, [*record_paths, stall_path, check_path]):
        rows = read_record_dicts(path)
        assert len({row["task_id"] for row in rows}) == len(rows) == tasks[family], path

