"""Work-unit checkers, workspace edits, submission gating, backlog generation."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import random
from dataclasses import asdict

import pytest

from qgp import reposcan
from qgp.actions import Edit, Inspect, RunCheck, SubmitUnit, UnitStatus, Verdict
from qgp.core import RunLedger, run_episode
from qgp.controllers import StandardController
from qgp.dataops import (
    AnswerEquals,
    BacklogUnit,
    DataopsEnvironment,
    FieldEquals,
    FileDigest,
    FixtureSources,
    KeyPresent,
    RowCount,
    Workspace,
    _load_sources,
    apply_edit,
    evaluate_checker,
    generate_dataops_manifest,
    inspect_unit,
    load_manifest,
    normalize_answer,
    run_check,
    submit_unit,
    write_manifest,
)
from qgp.errors import GenerationError
from qgp.policies import SolverPolicy


def small_backlog():
    digest = hashlib.sha256(b"hello world\n").hexdigest()
    files = {
        "data/t.csv": "id,name,score\nr1,alpha,5\nr2,beta,7\n",
        "meta/m.txt": "name: demo\nlicense_tag: apache\n",
        "artifacts/a.txt": "hello world\n",
    }
    units = [
        BacklogUnit(
            unit_id="u1",
            kind="csv_field_check",
            prompt=(
                'Ensure column "score" of the row keyed "r1" in data/t.csv matches '
                "the verified source value; run the check and repair the cell if it fails."
            ),
            artifact_path="data/t.csv",
            checker=FieldEquals(file="data/t.csv", row_key="r1", column="score", expected="6"),
        ),
        BacklogUnit(
            unit_id="u2",
            kind="csv_count_check",
            prompt="Run the row-count check for data/t.csv and submit the unit once it passes.",
            artifact_path="data/t.csv",
            checker=RowCount(file="data/t.csv", expected=2),
        ),
        BacklogUnit(
            unit_id="u3",
            kind="metadata_repair",
            prompt=(
                'Ensure metadata key "license_tag" in meta/m.txt carries the verified '
                "value; repair it if the check fails."
            ),
            artifact_path="meta/m.txt",
            checker=KeyPresent(file="meta/m.txt", key="license_tag", expected_value="mit"),
        ),
        BacklogUnit(
            unit_id="u4",
            kind="consistency_answer",
            prompt=(
                "Record the consistency answer for this backlog: reply with the "
                'reference token "tag-12ab" exactly.'
            ),
            artifact_path="answers/u4.txt",
            checker=AnswerEquals(file="answers/u4.txt", expected_normalized="tag-12ab"),
        ),
        BacklogUnit(
            unit_id="u5",
            kind="artifact_validation",
            prompt="Run the integrity check for artifacts/a.txt.",
            artifact_path="artifacts/a.txt",
            checker=FileDigest(file="artifacts/a.txt", expected_digest=digest),
        ),
    ]
    workspace = Workspace()
    workspace.seed(files)
    return {u.unit_id: u for u in units}, workspace


class TestInspect:
    def test_pending_unit(self):
        backlog, ws = small_backlog()
        fb = inspect_unit(backlog, ws, "u1")
        assert fb.status_after == UnitStatus.PENDING
        assert "data/t.csv" in fb.detail
        assert "---" in fb.detail and len(fb.detail.split("---")[1].strip()) > 0

    def test_passed_unit(self):
        backlog, ws = small_backlog()
        run_check(backlog, ws, "u2")
        fb = inspect_unit(backlog, ws, "u2")
        assert fb.status_after == UnitStatus.PASSED

    def test_unknown_unit(self):
        backlog, ws = small_backlog()
        fb = inspect_unit(backlog, ws, "u999")
        assert fb.verdict == Verdict.FAIL
        assert "unknown unit" in fb.detail


class TestEditAndCheck:
    def test_metadata_repair_flow(self):
        # Expected value is fixed by construction ("mit"); the failing check
        # diagnoses it, the edit applies it, the recheck passes.
        backlog, ws = small_backlog()
        fail = run_check(backlog, ws, "u3")
        assert fail.verdict == Verdict.FAIL
        assert '"mit"' in fail.detail
        fb = apply_edit(backlog, ws, "u3", json.dumps({"key": "license_tag", "value": "mit"}))
        assert fb.status_after == UnitStatus.ATTEMPTED
        result = run_check(backlog, ws, "u3")
        assert result.verdict == Verdict.PASS
        assert result.status_after == UnitStatus.PASSED

    def test_edit_on_passed_unit_is_noop(self):
        backlog, ws = small_backlog()
        run_check(backlog, ws, "u2")
        before = ws.read("data/t.csv")
        fb = apply_edit(backlog, ws, "u2", json.dumps({"row_key": "r1", "column": "score", "value": "9"}))
        assert fb.status_after == UnitStatus.PASSED
        assert ws.read("data/t.csv") == before

    def test_malformed_payload_marks_attempted(self):
        backlog, ws = small_backlog()
        fb = apply_edit(backlog, ws, "u1", "not json at all")
        assert fb.verdict == Verdict.FAIL
        assert fb.status_after == UnitStatus.ATTEMPTED

    def test_csv_cell_replacement(self):
        backlog, ws = small_backlog()
        assert run_check(backlog, ws, "u1").verdict == Verdict.FAIL
        apply_edit(backlog, ws, "u1", json.dumps({"row_key": "r1", "column": "score", "value": "6"}))
        assert run_check(backlog, ws, "u1").verdict == Verdict.PASS

    def test_field_equals_satisfied(self):
        backlog, ws = small_backlog()
        fb = run_check(backlog, ws, "u5")
        assert fb.verdict == Verdict.PASS

    def test_row_count_mismatch(self):
        backlog, ws = small_backlog()
        rows = "\n".join(f"r{i},n{i},1" for i in range(31))
        ws.write("data/wide.csv", "id,name,score\n" + rows + "\n")
        backlog["u6"] = BacklogUnit(
            unit_id="u6",
            kind="csv_count_check",
            prompt="count",
            artifact_path="data/wide.csv",
            checker=RowCount(file="data/wide.csv", expected=32),
        )
        fb = run_check(backlog, ws, "u6")
        assert fb.verdict == Verdict.FAIL
        assert "expected 32, found 31" in fb.detail

    CSV = "id,name,score\nr1,alpha,6\nr2,beta,7\n"
    DIGEST = hashlib.sha256(b"r1,alpha,6").hexdigest()
    # (checker, its file's text, the verdict and diagnostic it must give): the
    # boundaries of each rule, and the diagnostics no scripted run reaches.
    CHECKER_CASES = {
        "column-missing": (
            FieldEquals(file="t.csv", row_key="r1", column="grade", expected="6"),
            CSV,
            (False, 'field check failed: column "grade" missing'),
        ),
        "no-row-keyed": (
            FieldEquals(file="t.csv", row_key="r9", column="score", expected="6"),
            CSV,
            (False, 'field check failed: no row keyed "r9"'),
        ),
        # A cell is compared with its padding stripped.
        "padded-cell": (
            FieldEquals(file="t.csv", row_key="r1", column="score", expected="6"),
            "id,name,score\nr1,alpha, 6 \n",
            (True, "check passed"),
        ),
        "one-row-too-many": (
            RowCount(file="t.csv", expected=1),
            CSV,
            (False, "row count check failed: expected 1, found 2"),
        ),
        "metadata-value-case-changed": (
            KeyPresent(file="m.txt", key="license_tag", expected_value="mit"),
            "license_tag: MIT\n",
            (False, 'metadata check failed: key "license_tag" expected "mit", actual "MIT"'),
        ),
        "metadata-key-case-changed": (
            KeyPresent(file="m.txt", key="license_tag", expected_value="mit"),
            "LICENSE_TAG: mit\n",
            (False, 'metadata check failed: key "license_tag" expected "mit", actual "<missing>"'),
        ),
        "answer-case-changed": (
            AnswerEquals(file="a.txt", expected_normalized="tag-12ab"),
            "TAG-12AB\n",
            (False, "stored answer does not match the required value"),
        ),
        # A digest covers every byte: a trailing newline changes it.
        "digest-trailing-newline": (
            FileDigest(file="f.txt", expected_digest=DIGEST),
            "r1,alpha,6\n",
            (False, "digest check failed: expected 0213f0ff80f7, actual 5624f3510249"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CHECKER_CASES))
    def test_checker_verdict(self, case):
        checker, text, expected = self.CHECKER_CASES[case]
        ws = Workspace()
        ws.seed({checker.file: text})
        assert evaluate_checker(checker, ws) == expected

    def test_answer_whitespace_normalization(self):
        backlog, ws = small_backlog()
        apply_edit(backlog, ws, "u4", "  tag-12ab \n")
        fb = run_check(backlog, ws, "u4")
        assert fb.verdict == Verdict.PASS

    def test_answer_diagnostic_never_echoes_expected(self):
        backlog, ws = small_backlog()
        apply_edit(backlog, ws, "u4", "wrong")
        fb = run_check(backlog, ws, "u4")
        assert fb.verdict == Verdict.FAIL
        assert "tag-12ab" not in fb.detail

    def test_missing_artifact_fails_with_diagnostic(self):
        backlog, ws = small_backlog()
        backlog["u7"] = BacklogUnit(
            unit_id="u7",
            kind="artifact_validation",
            prompt="x",
            artifact_path="artifacts/gone.txt",
            checker=FileDigest(file="artifacts/gone.txt", expected_digest="0" * 64),
        )
        fb = run_check(backlog, ws, "u7")
        assert fb.verdict == Verdict.FAIL
        assert "missing" in fb.detail

    def test_normalize_answer(self):
        assert normalize_answer("  a   b\tc \n") == "a b c"
        assert normalize_answer("A") != normalize_answer("a")

    def test_workspace_rejects_path_escape(self):
        from qgp.errors import ConfigurationError

        ws = Workspace()
        with pytest.raises(ConfigurationError):
            ws.write("../outside.txt", "nope")
        with pytest.raises(ConfigurationError):
            ws.read("../../etc/hosts")


class TestSubmitUnit:
    def test_accept_then_duplicate(self):
        backlog, ws = small_backlog()
        ledger = RunLedger(target_count=3, budget=30)
        run_check(backlog, ws, "u2")
        first = submit_unit(backlog, ledger, "u2")
        assert first.accepted == ("u2",)
        assert first.valid_count == 1
        again = submit_unit(backlog, ledger, "u2")
        assert again.duplicates == ("u2",)
        assert again.valid_count == 1
        assert ledger.duplicate_occurrences == 1
        assert ledger.submission_occurrences == 2

    def test_pending_rejected(self):
        backlog, ws = small_backlog()
        ledger = RunLedger(target_count=3, budget=30)
        fb = submit_unit(backlog, ledger, "u1")
        assert fb.rejected == ("u1",)
        assert fb.valid_count == 0
        # A unit that has not passed is rejected every time, never a duplicate.
        again = submit_unit(backlog, ledger, "u1")
        assert again.rejected == ("u1",)
        assert ledger.duplicate_occurrences == 0

    def test_padded_id_rejected_without_count_change(self):
        backlog, ws = small_backlog()
        ledger = RunLedger(target_count=3, budget=30)
        run_check(backlog, ws, "u2")
        run_check(backlog, ws, "u5")
        submit_unit(backlog, ledger, "u2")
        for padded in (" u2", "u5 "):
            fb = submit_unit(backlog, ledger, padded)
            # Feedback echoes the trimmed id, as retrieval feedback does.
            assert fb.rejected == (padded.strip(),)
            assert fb.accepted == fb.duplicates == ()
            assert ledger.valid_ids == {"u2"}
            assert ledger.duplicate_occurrences == 0

    def test_count_gate_under_random_actions(self):
        # Oracle: a unit counts iff some submission of it happened while its
        # status was passed and it had not been counted before.
        rng = random.Random(17)
        backlog, ws = small_backlog()
        ledger = RunLedger(target_count=5, budget=300)
        counted: set[str] = set()
        ids = list(backlog) + ["u999"]
        for _ in range(300):
            unit_id = rng.choice(ids)
            op = rng.randrange(4)
            if op == 0:
                inspect_unit(backlog, ws, unit_id)
            elif op == 1:
                unit = backlog.get(unit_id)
                if unit and unit.kind == "consistency_answer":
                    payload = "tag-12ab" if rng.random() < 0.5 else "junk"
                elif unit and unit.kind == "metadata_repair":
                    payload = json.dumps({"key": "license_tag", "value": rng.choice(["mit", "x"])})
                else:
                    payload = json.dumps(
                        {"row_key": "r1", "column": "score", "value": rng.choice(["6", "8"])}
                    )
                apply_edit(backlog, ws, unit_id, payload)
            elif op == 2:
                run_check(backlog, ws, unit_id)
            else:
                unit = backlog.get(unit_id)
                was_passed = unit is not None and unit.status == UnitStatus.PASSED
                fb = submit_unit(backlog, ledger, unit_id)
                if was_passed and unit.unit_id not in counted:
                    assert fb.accepted == (unit_id,)
                    counted.add(unit_id)
                elif unit is not None and unit.unit_id in counted:
                    assert fb.duplicates == (unit_id,)
                else:
                    assert fb.rejected == (unit_id,)
            assert ledger.valid_ids == counted

    def test_passed_is_absorbing(self):
        backlog, ws = small_backlog()
        run_check(backlog, ws, "u5")
        # Corrupt the artifact after the pass; status must not regress.
        ws.write("artifacts/a.txt", "tampered\n")
        fb = run_check(backlog, ws, "u5")
        assert fb.status_after == UnitStatus.PASSED


class TestGeneration:
    def test_reference_shape(self, dataops_loaded):
        manifest = dataops_loaded
        assert len(manifest.tasks) == 24
        budgets = {3: 30, 5: 50, 10: 90, 20: 160}
        per_target: dict[int, int] = {}
        for task in manifest.tasks:
            per_target[task.spec.target_count] = per_target.get(task.spec.target_count, 0) + 1
            assert task.spec.budget == budgets[task.spec.target_count]
            assert len(task.units) >= task.spec.target_count
            assert len({u.kind for u in task.units}) >= 3
        assert per_target == {3: 6, 5: 6, 10: 6, 20: 6}

    def test_generation_deterministic(self, fixture_sources, tmp_path):
        m1 = generate_dataops_manifest(fixture_sources, targets=(3,), instances_per_target=2, seed=7)
        m2 = generate_dataops_manifest(fixture_sources, targets=(3,), instances_per_target=2, seed=7)
        assert write_manifest(m1, tmp_path / "a.json") == write_manifest(m2, tmp_path / "b.json")

    def test_insufficient_rows_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,v\nr1,1\n")
        with pytest.raises(GenerationError):
            _load_sources(FixtureSources(csv_paths=(str(bad),)))

    def test_each_source_read_once_per_manifest(self, fixture_sources, monkeypatch):
        # The reference manifest builds 24 backlogs from these sources.
        walks = []
        real_read_snapshot = reposcan.read_snapshot

        def read_snapshot(root, *args, **kwargs):
            walks.append(str(root))
            return real_read_snapshot(root, *args, **kwargs)

        opens = []
        real_open = io.open

        def spy(file, *args, **kwargs):
            if str(file) in fixture_sources.csv_paths:
                opens.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(reposcan, "read_snapshot", read_snapshot)
        monkeypatch.setattr(io, "open", spy)
        monkeypatch.setattr(builtins, "open", spy)
        manifest = generate_dataops_manifest(fixture_sources, seed=23)
        assert len(manifest.tasks) == 24
        assert walks == list(fixture_sources.snapshot_roots)
        assert opens == list(fixture_sources.csv_paths)

    def test_solver_completes_every_backlog(self, dataops_loaded):
        manifest = dataops_loaded
        for task in manifest.tasks[:6]:
            env = DataopsEnvironment(task.spec, task.units, task.workspace)
            try:
                record = run_episode(task.spec, env, StandardController(), SolverPolicy())
            finally:
                env.close()
            assert record.outcome.value == "success"
            assert record.ledger.step <= task.spec.budget

    def test_public_views_hide_checkers(self, dataops_loaded):
        manifest = dataops_loaded
        environment, changed = manifest.open()
        assert changed == []
        views = [asdict(environment(task).public_view()) for task in manifest.tasks]
        text = json.dumps(views)
        assert '"hidden"' not in text and '"checkers"' not in text
        assert "expected" not in text
        for task in manifest.tasks:
            for unit in task.units:
                if isinstance(unit.checker, FileDigest):
                    assert unit.checker.expected_digest not in text
        assert {u["unit_id"] for u in views[0]["units"]} == {
            u.unit_id for u in manifest.tasks[0].units
        }

    def test_roundtrip(self, dataops_manifest_path, dataops_loaded):
        manifest = dataops_loaded
        reloaded = load_manifest(dataops_manifest_path)
        assert [t.spec for t in reloaded.tasks] == [t.spec for t in manifest.tasks]
        assert [u.checker for t in reloaded.tasks for u in t.units] == [
            u.checker for t in manifest.tasks for u in t.units
        ]


class TestReplayDeterminism:
    def test_identical_action_sequence_identical_transcript(self, dataops_loaded):
        manifest = dataops_loaded
        task = manifest.tasks[0]
        script = []
        for unit in task.units[:3]:
            script += [
                Inspect(unit_id=unit.unit_id),
                RunCheck(unit_id=unit.unit_id),
                SubmitUnit(unit_id=unit.unit_id),
            ]
        transcripts = []
        for _ in range(2):
            env = DataopsEnvironment(task.spec, task.units, task.workspace)
            try:
                ledger = RunLedger(target_count=task.spec.target_count, budget=task.spec.budget)
                transcripts.append([env.execute(a, ledger) for a in script])
            finally:
                env.close()
        assert transcripts[0] == transcripts[1]
