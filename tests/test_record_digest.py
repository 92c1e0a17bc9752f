"""Record bytes pinned in tier-1.

A fixed set of (controller, policy) pairs runs through `qgp run` on the
conftest manifests, and the sha256 of every record file, in pair order,
must equal one constant. The pairs cover every controller label
and every scripted policy at least once. An engine change that moves any
record byte fails here; a change that means to move them must say so and
update the constant. The bytes `qgp aggregate` writes over those records
are pinned the same way, and so, under a constant of its own, are the
records of a stalling backlog pair, the only one that reaches the backlog
controller's steering and its no-progress stop.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from qgp.cli import main
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


def test_every_pinned_record_file_loads(record_paths, stall_path):
    # The reader refuses a row that breaks a rule every run keeps, and a
    # repeated task; no reference run does either.
    tasks = {"reposcan": 36, "dataops": 24}
    for (family, *_), path in zip([*PAIRS, ("dataops",)], [*record_paths, stall_path]):
        rows = read_record_dicts(path)
        assert len({row["task_id"] for row in rows}) == len(rows) == tasks[family], path

