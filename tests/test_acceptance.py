"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from qgp.actions import Family, Outcome
from qgp.cli import main
from qgp.controllers import (
    StandardController,
    StateQgpController,
    UnitQgpController,
    VerifierGatedController,
)
from qgp.core import TaskSpec, read_record_dicts, reported_count_error, run_episode
from qgp.dataops import DataopsEnvironment
from qgp.metrics import paired_bootstrap
from qgp.policies import (
    DuplicatorPolicy,
    FalseCompleterPolicy,
    NoSubmitLooperPolicy,
    RedundantSearcherPolicy,
)
from qgp.reposcan import ReposcanEnvironment

import oracle
from test_ledger import _random_run, brute_force_valid_count
from test_metrics import _metric


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def _reposcan_runs(manifest, corpora, controller_factory, policy_factory):
    records = []
    for task in manifest.tasks:
        env = ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)
        records.append(run_episode(task.spec, env, controller_factory(), policy_factory()))
    return records


def _dataops_runs(manifest, controller_factory, policy_factory):
    records = []
    for task in manifest.tasks:
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            records.append(run_episode(task.spec, env, controller_factory(), policy_factory()))
        finally:
            env.close()
    return records


def test_criterion_1_count_oracle_equivalence():
    with criterion(1, "ledger count matches brute-force recomputation on 1000 random runs"):
        start = time.monotonic()
        for seed in range(1000):
            record, valid_ids, batches = _random_run(seed)
            assert record.ledger.valid_count == brute_force_valid_count(batches, valid_ids)
            assert (record.outcome == Outcome.SUCCESS) == (
                record.ledger.valid_count >= record.task.target_count
            )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_reported_count_error_table():
    with criterion(2, "normalized reported-count error reproduces hand values exactly"):
        assert reported_count_error(12, 9, 10) == 0.3
        assert reported_count_error(5, 5, 20) == 0.0
        assert reported_count_error(2, 0, 0) == 2.0  # max(1, N) clamp
        assert reported_count_error(10, 6, 10) == 0.4
        assert reported_count_error(0, 4, 8) == 0.5


def test_criterion_3_zero_forwarded_duplicates(reposcan_loaded):
    manifest, corpora = reposcan_loaded
    with criterion(3, "duplicator under state_qgp forwards zero duplicates on all 36 tasks"):
        start = time.monotonic()
        records = _reposcan_runs(manifest, corpora, StateQgpController, DuplicatorPolicy)
        assert len(records) == 36
        for record in records:
            assert record.ledger.duplicate_occurrences == 0, record.task.task_id
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_gating_invariant(reposcan_loaded, dataops_loaded):
    manifest, corpora = reposcan_loaded
    with criterion(4, "gated controllers never false-complete; standard always does"):
        for factory in (VerifierGatedController, StateQgpController):
            for record in _reposcan_runs(manifest, corpora, factory, FalseCompleterPolicy):
                assert record.outcome != Outcome.FALSE_COMPLETION
        for record in _dataops_runs(dataops_loaded, UnitQgpController, FalseCompleterPolicy):
            assert record.outcome != Outcome.FALSE_COMPLETION
        # The same policy under standard reaches its Final on every task.
        for record in _reposcan_runs(manifest, corpora, StandardController, FalseCompleterPolicy):
            assert record.outcome == Outcome.FALSE_COMPLETION
        for record in _dataops_runs(dataops_loaded, StandardController, FalseCompleterPolicy):
            assert record.outcome == Outcome.FALSE_COMPLETION


def test_criterion_5_work_unit_contrast(dataops_loaded):
    with criterion(5, "no-submit looper: unit_qgp > verifier_gated = standard = 0 over 24 backlogs"):
        rates = {}
        for name, factory in (
            ("standard", StandardController),
            ("verifier_gated", VerifierGatedController),
            ("unit_qgp", lambda: UnitQgpController(no_progress_limit=6)),
        ):
            records = _dataops_runs(dataops_loaded, factory, NoSubmitLooperPolicy)
            assert len(records) == 24
            rates[name] = sum(r.outcome == Outcome.SUCCESS for r in records) / len(records)
        assert rates["standard"] == 0.0
        assert rates["verifier_gated"] == 0.0
        assert rates["unit_qgp"] >= 0.5
        assert rates["unit_qgp"] > rates["verifier_gated"] == rates["standard"]


def _ablation_corpus():
    records = []
    for i in range(60):
        marker = "quartz shiny" if i < 40 else "plain dull"
        records.append(oracle.record(f"src/item_{i:03d}.py", f"content {marker} item {i}\n"))
    corpus = oracle.build_corpus(records)
    return corpus, list(corpus.ids[:40])


def test_criterion_6_ablation_ordering():
    with criterion(6, "component ablation success ordering holds with a strict inequality"):
        corpus, valid = _ablation_corpus()
        variants = {
            "standard": StandardController,
            "page_memory_only": lambda: StateQgpController("ablation:page_memory_only"),
            "no_buffer": lambda: StateQgpController("ablation:dedupe_plus_page_no_buffer"),
            "full": StateQgpController,
        }
        rates = {}
        for name, factory in variants.items():
            wins = 0
            for target in (3, 10, 20, 40):
                task = TaskSpec(
                    task_id=f"abl-{name}-{target}",
                    family=Family.REPOSCAN,
                    objective_text="quartz : submit matching artifacts",
                    target_count=target,
                    budget=40,
                    seed=1,
                )
                env = ReposcanEnvironment(task, corpus, valid)
                record = run_episode(task, env, factory(), RedundantSearcherPolicy())
                wins += record.outcome == Outcome.SUCCESS
            rates[name] = wins / 4
        assert rates["full"] >= rates["no_buffer"] >= rates["page_memory_only"] >= rates["standard"]
        assert rates["full"] > rates["standard"]  # at least one strict inequality


def test_criterion_7_paired_bootstrap_reproduction():
    with criterion(7, "paired bootstrap reproduces the 24-task half-solve pattern"):
        left = {f"t{i}": _metric(task_id=f"t{i}", success=int(i < 12)) for i in range(24)}
        right = {f"t{i}": _metric(task_id=f"t{i}", success=0) for i in range(24)}
        delta = paired_bootstrap(left, right, resamples=10000, confidence=0.95, seed=99)
        assert delta.success_delta == 0.5
        assert abs(delta.ci_low - 0.292) <= 0.021
        assert abs(delta.ci_high - 0.708) <= 0.021
        same = paired_bootstrap(left, dict(left), resamples=10000, confidence=0.95, seed=99)
        assert same.success_delta == 0.0
        assert same.ci_low == 0.0 and same.ci_high == 0.0


def test_criterion_8_budget_and_target_tables(reposcan_loaded, dataops_loaded):
    with criterion(8, "manifests carry the exact budget maps and instance counts"):
        manifest, _ = reposcan_loaded
        assert len(manifest.tasks) == 36
        reposcan_budgets = {10: 30, 25: 60, 50: 100, 100: 180}
        counts: dict[int, int] = {}
        for task in manifest.tasks:
            assert task.spec.budget == reposcan_budgets[task.spec.target_count]
            counts[task.spec.target_count] = counts.get(task.spec.target_count, 0) + 1
        assert counts == {10: 9, 25: 9, 50: 9, 100: 9}

        assert len(dataops_loaded.tasks) == 24
        dataops_budgets = {3: 30, 5: 50, 10: 90, 20: 160}
        counts = {}
        for task in dataops_loaded.tasks:
            assert task.spec.budget == dataops_budgets[task.spec.target_count]
            counts[task.spec.target_count] = counts.get(task.spec.target_count, 0) + 1
        assert counts == {3: 6, 5: 6, 10: 6, 20: 6}


def test_criterion_9_smoke_checks(reposcan_manifest_path, dataops_manifest_path):
    with criterion(9, "verifier smoke checks pass on both reference manifests"):
        assert main(["smoke", "--manifest", str(reposcan_manifest_path)]) == 0
        assert main(["smoke", "--manifest", str(dataops_manifest_path)]) == 0


def test_criterion_10_pipeline_determinism(snapshot_roots, csv_sources, tmp_path):
    with criterion(10, "seeded gen/run/aggregate/delta pipeline is byte-identical"):
        snapshot_args = []
        for root in snapshot_roots:
            snapshot_args += ["--snapshot", str(root)]

        def pipeline(tag: str, jobs: str) -> dict[str, bytes]:
            base = tmp_path / tag
            base.mkdir()
            manifest = base / "manifest.json"
            assert main(
                ["gen-reposcan", *snapshot_args, "--seed", "31", "--out", str(manifest)]
            ) == 0
            left = base / "sqgp.jsonl"
            right = base / "std.jsonl"
            for controller, out in (("state_qgp", left), ("standard", right)):
                assert main(
                    [
                        "run",
                        "--manifest",
                        str(manifest),
                        "--controller",
                        controller,
                        "--policy",
                        "duplicator",
                        "--jobs",
                        jobs,
                        "--out",
                        str(out),
                    ]
                ) == 0
            agg = base / "agg.csv"
            assert main(
                [
                    "aggregate",
                    "--records",
                    str(left),
                    "--records",
                    str(right),
                    "--group-by",
                    "controller,policy,target_count",
                    "--out",
                    str(agg),
                ]
            ) == 0
            delta = base / "delta.csv"
            assert main(
                [
                    "delta",
                    "--left",
                    str(left),
                    "--right",
                    str(right),
                    "--seed",
                    "31",
                    "--out",
                    str(delta),
                ]
            ) == 0
            dmanifest = base / "dataops.json"
            assert main(
                [
                    "gen-dataops",
                    "--csv",
                    str(csv_sources[0]),
                    "--csv",
                    str(csv_sources[1]),
                    "--snapshot",
                    str(snapshot_roots[0]),
                    "--seed",
                    "31",
                    "--out",
                    str(dmanifest),
                ]
            ) == 0
            solved = base / "solver.jsonl"
            assert main(
                [
                    "run",
                    "--manifest",
                    str(dmanifest),
                    "--policy",
                    "solver",
                    "--jobs",
                    jobs,
                    "--out",
                    str(solved),
                ]
            ) == 0
            names = ["manifest.json", "sqgp.jsonl", "std.jsonl", "agg.csv", "delta.csv",
                     "dataops.json", "solver.jsonl"]
            return {name: (base / name).read_bytes() for name in names}

        first = pipeline("first", jobs="1")
        second = pipeline("second", jobs="1")
        wide = pipeline("wide", jobs="8")
        assert first == second
        assert first == wide
        # The dataops solver pipeline really solved everything.
        rows = read_record_dicts(tmp_path / "first" / "solver.jsonl")
        assert rows and all(r["outcome"] == "success" for r in rows)
