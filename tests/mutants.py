"""Mutation table: one row per bent rule, and the tests that must catch it.

Each row names a file under the repository root, a fragment that occurs in it
exactly once, what the fragment becomes, and the test ids that must fail once
it is applied. The runner copies `src/`, `tests/` and, since some tests read
them, `bench/` and the README to a temporary directory, checks that the named
tests pass there unbent, then applies each row alone and runs its tests. A
row whose tests still pass survives, and the runner exits 1; so does a row
whose tests cannot run at all once it is applied.

    python tests/mutants.py                      # every row
    python tests/mutants.py stop-one-late        # the named rows only
    python tests/mutants.py --all stop-one-late  # the whole suite per row

`--all` finds killers for a new row: it runs the whole suite against each
named row alone, except `tests/test_mutant_table.py` (whose check of that
row's fragment fails once it is applied), and prints the id of every test
that fails.

It runs outside the tier-1 suite; `tests/test_mutant_table.py` keeps the
table in step with the code (each fragment occurs once, each test id is
collected) without running it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


CONTROLLERS = "src/qgp/controllers.py"
DATAOPS = "src/qgp/dataops.py"
METRICS = "src/qgp/metrics.py"
REPOSCAN = "src/qgp/reposcan.py"
UNIT = "tests/test_controllers.py::TestUnitQgp::"
STATE = "tests/test_controllers.py::TestStateQgp::"
CHECKER = "tests/test_dataops.py::TestEditAndCheck::test_checker_verdict"
REPAIR = "tests/test_dataops.py::TestRepair::"
BULK = "tests/test_metrics.py::TestBulkDraws::test_equals_reference_loop"
MEANS = "tests/test_metrics.py::TestBulkDraws::test_means_equal_reference_in_draw_order"
STALL = "tests/test_record_digest.py::test_stalling_backlog_record_bytes_are_pinned"
RULES = "tests/test_cli.py::TestMalformedInputs::test_record_breaking_a_run_rule_is_one_error_line"
FLAGS = "tests/test_cli.py::TestPolicyParams::test_flag_the_codec_refuses_ends_before_any_task"
BEFORE_WORK = (
    "tests/test_cli.py::TestGeneration::test_target_with_no_budget_is_refused_before_any_work"
)
UNIT_PATH = (
    "tests/test_cli.py::TestMalformedInputs::test_unit_path_its_workspace_cannot_hold_is_refused"
)
SAVED = (
    "tests/test_cli.py::TestPolicyParams::test_saved_policy_run_would_refuse_ends_before_any_task"
)

MUTANTS = (
    # Termination gating and retrieval (StateQgpController).
    Mutant(
        "gate-one-short",
        CONTROLLERS,
        "valid_count >= target_count:",
        "valid_count >= target_count - 1:",
        (
            "tests/test_controllers.py::TestGateTermination::"
            "test_one_short_of_target_is_blocked_and_at_target_forwarded",
        ),
    ),
    Mutant(
        "batch-repeat-forwarded",
        "src/qgp/verifier.py",
        "seen.add(key)",
        "pass",
        (
            "tests/test_verifier.py::TestJudgeIds::test_within_batch_repeat",
            STATE + "test_fresh_id_repeated_in_one_batch_is_forwarded_once",
        ),
    ),
    Mutant(
        "buffer-over-page",
        CONTROLLERS,
        "[:PAGE_SIZE]",
        "[:PAGE_SIZE + 1]",
        (STATE + "test_buffer_substitution_caps_at_page_size",),
    ),
    Mutant(
        "empty-submission-logged",
        CONTROLLERS,
        "if dropped else []",
        "if True else []",
        (
            "tests/test_controllers.py::TestAblations::"
            "test_dedupe_only_forwards_an_empty_submission_without_intervention",
        ),
    ),
    Mutant(
        "repair-ignores-last-query",
        CONTROLLERS,
        "query = state.last_query or objective_queries",
        "query = objective_queries",
        (STATE + "test_repair_search_reuses_the_last_query",),
    ),
    Mutant(
        "repair-keeps-old-last-query",
        CONTROLLERS,
        "            state.last_query = query\n",
        "",
        (STATE + "test_repair_search_records_its_query_as_the_last",),
    ),
    # Backlog routing (UnitQgpController).
    Mutant(
        "submit-due-at-once",
        CONTROLLERS,
        "ctx.step - awaiting[unit_id] >= 2",
        "ctx.step - awaiting[unit_id] >= 1",
        (UNIT + "test_pass_routed_to_submit_after_two_steps",),
    ),
    Mutant(
        "steer-one-late",
        CONTROLLERS,
        "state.steps_without_progress >= self.k",
        "state.steps_without_progress > self.k",
        (UNIT + "test_inspect_loop_steered_at_k",),
    ),
    Mutant(
        "stop-one-late",
        CONTROLLERS,
        "state.steps_without_progress >= 2 * self.k",
        "state.steps_without_progress > 2 * self.k",
        (UNIT + "test_stop_fires_at_exactly_twice_the_limit",),
    ),
    Mutant(
        "stop-unlogged",
        CONTROLLERS,
        "return StepDecision(action, interventions=_intervention(ctx, stop, detail))",
        "return StepDecision(action)",
        (
            UNIT + "test_hard_stop_disables_routing_keeps_gating",
            UNIT + "test_pure_stall_ends_with_no_progress_stop",
        ),
    ),
    Mutant(
        "no-progress-default-seven",
        CONTROLLERS,
        "no_progress_limit: int = 6",
        "no_progress_limit: int = 7",
        (STALL,),
    ),
    Mutant(
        "stop-detail-three-k",
        CONTROLLERS,
        "no progress for {2 * self.k} steps",
        "no progress for {3 * self.k} steps",
        (STALL,),
    ),
    Mutant(
        "limit-of-one-refused",
        CONTROLLERS,
        "if self.no_progress_limit < 1:",
        "if self.no_progress_limit <= 1:",
        ("tests/test_controllers.py::TestConfig::test_unit_qgp_limit_of_one_is_accepted",),
    ),
    Mutant(
        "stale-only-inspect",
        CONTROLLERS,
        "isinstance(action, Inspect) or action == previous",
        "isinstance(action, Inspect)",
        (UNIT + "test_a_repeated_non_inspect_proposal_is_stale",),
    ),
    Mutant(
        "pending-check-ends-routing",
        CONTROLLERS,
        "InterventionKind.ROUTED_TO_CHECK, detail\n",
        "InterventionKind.ROUTED_TO_CHECK, detail\n            return\n",
        (UNIT + "test_proposal_equal_to_the_pending_check_still_gets_the_due_submit",),
    ),
    Mutant(
        "due-submit-ends-routing",
        CONTROLLERS,
        "InterventionKind.ROUTED_TO_SUBMIT, detail\n                break",
        "InterventionKind.ROUTED_TO_SUBMIT, detail\n                return",
        (UNIT + "test_proposal_equal_to_the_due_submit_still_gets_the_stall_steer",),
    ),
    Mutant(
        "duplicate-left-awaiting",
        CONTROLLERS,
        "observation.accepted + observation.duplicates",
        "observation.accepted",
        (UNIT + "test_a_duplicate_in_the_feedback_clears_the_pending_submit",),
    ),
    # Dataops checkers.
    Mutant(
        "row-count-at-least",
        DATAOPS,
        "if len(rows) == self.expected:",
        "if len(rows) >= self.expected:",
        (CHECKER + "[one-row-too-many]",),
    ),
    Mutant(
        "field-cell-unstripped",
        DATAOPS,
        "actual = row[col].strip() if col < len(row)",
        "actual = row[col] if col < len(row)",
        (CHECKER + "[padded-cell]",),
    ),
    Mutant(
        "metadata-value-casefolded",
        DATAOPS,
        "if actual == self.expected_value:",
        "if actual.casefold() == self.expected_value.casefold():",
        (CHECKER + "[metadata-value-case-changed]",),
    ),
    Mutant(
        "answer-casefolded",
        DATAOPS,
        "if stored == self.expected_normalized:",
        "if stored.casefold() == self.expected_normalized.casefold():",
        (CHECKER + "[answer-case-changed]",),
    ),
    Mutant(
        "digest-of-stripped-text",
        DATAOPS,
        'workspace.read(self.file).encode("utf-8")',
        'workspace.read(self.file).strip().encode("utf-8")',
        (CHECKER + "[digest-trailing-newline]",),
    ),
    # Each unit kind's one declaration: its sources, its edit record, its
    # repair and its feedback.
    Mutant(
        "field-edit-read-as-text",
        DATAOPS,
        '"field_equals"\n    draws: ClassVar[str | None] = "tables"\n'
        "    edit: ClassVar[type | None] = CsvEdit",
        '"field_equals"\n    draws: ClassVar[str | None] = "tables"\n'
        "    edit: ClassVar[type | None] = None",
        (
            "tests/test_dataops.py::TestEditAndCheck::test_csv_cell_replacement",
            REPAIR + "test_field_payload_from_prompt_and_diagnostic",
        ),
    ),
    Mutant(
        "row-count-draws-fixtures",
        DATAOPS,
        'tag: ClassVar[str] = "row_count"\n    draws: ClassVar[str | None] = "tables"',
        'tag: ClassVar[str] = "row_count"\n    draws: ClassVar[str | None] = "fixtures"',
        (
            "tests/test_dataops.py::TestGeneration::"
            "test_each_kind_draws_from_the_sources_it_declares",
        ),
    ),
    Mutant(
        "csv-repair-row-key-wrong-quote",
        DATAOPS,
        "_quote(prompt, 1), _quote(prompt, 0)",
        "_quote(prompt, 0), _quote(prompt, 0)",
        (REPAIR + "test_field_payload_from_prompt_and_diagnostic",),
    ),
    Mutant(
        "metadata-repair-value-quote-0",
        DATAOPS,
        "value=_quote(detail, 1)",
        "value=_quote(detail, 0)",
        (REPAIR + "test_metadata_payload",),
    ),
    Mutant(
        "answer-missing-read-as-file",
        DATAOPS,
        'missing: ClassVar[str] = "no answer recorded yet"',
        "missing: ClassVar[str] = _FILE_MISSING",
        (
            "tests/test_dataops.py::TestEditAndCheck::"
            "test_each_kind_answers_for_its_missing_file",
        ),
    ),
    Mutant(
        "feedback-always-pending",
        DATAOPS,
        "verdict, detail, self.status)",
        "verdict, detail, UnitStatus.PENDING)",
        (
            "tests/test_dataops.py::TestInspect::test_passed_unit",
            "tests/test_dataops.py::TestEditAndCheck::test_metadata_repair_flow",
            "tests/test_dataops.py::TestEditAndCheck::test_edit_on_passed_unit_is_noop",
        ),
    ),
    # Reposcan predicates, each rule on its predicate class, and search ranking.
    Mutant(
        "keyword-case-sensitive",
        REPOSCAN,
        "containing(k.lower())",
        "containing(k)",
        ("tests/test_snapshot_search.py::TestMatchMemo::test_random_predicates_match_the_scan",),
    ),
    Mutant(
        "path-predicate-ignores-content",
        REPOSCAN,
        " and content in texts[i].lower()",
        "",
        ("tests/test_reposcan.py::TestManifest::test_hidden_set_consistency",),
    ),
    Mutant(
        "rank-ties-by-corpus-order",
        REPOSCAN,
        "(-scores[i], ids[i], i)",
        "(-scores[i], i)",
        (
            "tests/test_snapshot_search.py::TestMemoisedSearch::"
            "test_tie_break_by_id_not_corpus_order",
        ),
    ),
    Mutant(
        "preview-one-short",
        REPOSCAN,
        "preview=texts[i][:200]",
        "preview=texts[i][:199]",
        (
            "tests/test_snapshot_search.py::TestMemoisedSearch::"
            "test_preview_is_the_first_200_characters_of_the_text",
        ),
    ),
    # The workspace boundary.
    Mutant(
        "workspace-parent-path-allowed",
        DATAOPS,
        'key.startswith(("/", "../"))',
        'key.startswith("/")',
        (
            "tests/test_workspace.py::TestEquivalence::test_refused_paths[../x]",
            "tests/test_cli.py::TestMalformedInputs::test_error_exit_not_traceback"
            "[run-dataops-task-with-file-outside-workspace]",
        ),
    ),
    # Outcome rules and the ledger.
    Mutant(
        "claimless-final-false-completion",
        "src/qgp/core.py",
        "isinstance(terminating, Final) and terminating.completion_claim:",
        "isinstance(terminating, Final):",
        (
            "tests/test_ledger.py::TestClassifyTermination::"
            "test_final_without_claim_short_of_target_is_premature",
            "tests/test_policies.py::TestExternalAdapter::"
            "test_final_without_claim_short_of_target_is_premature_stop",
        ),
    ),
    Mutant(
        "remaining-unclamped",
        "src/qgp/core.py",
        "return max(0, self.target_count - self.valid_count)",
        "return self.target_count - self.valid_count",
        ("tests/test_verifier.py::TestSnapshot::test_clamped_at_zero",),
    ),
    Mutant(
        "objective-drops-two-letter-words",
        "src/qgp/core.py",
        "if len(t) >= 2]",
        "if len(t) > 2]",
        ("tests/test_policies.py::TestGreedyOracle::test_objective_queries_keep_two_letter_words",),
    ),
    # Whole record files: the one reader refuses what no run writes.
    Mutant(
        "record-repeat-read",
        "src/qgp/core.py",
        "record.broken_rule() if first == lineno else",
        "record.broken_rule() if True else",
        (RULES + "[aggregate-task-repeated]", RULES + "[delta-task-repeated]"),
    ),
    Mutant(
        "record-log-short-read",
        "src/qgp/core.py",
        "elif not broken and len(log) != count:",
        "elif not broken and len(log) > count:",
        (RULES + "[aggregate-intervention-count-over-the-log]",),
    ),
    Mutant(
        "record-failure-at-target-read",
        "src/qgp/core.py",
        "succeeded != (valid >= target)",
        "succeeded != (valid > target)",
        (RULES + "[aggregate-failure-at-target]",),
    ),
    # The adapter request.
    Mutant(
        "budget-remaining-whole-budget",
        "src/qgp/policies.py",
        "budget_remaining=view.budget - len(history),",
        "budget_remaining=view.budget,",
        ("tests/test_policies.py::TestExternalAdapter::test_request_bytes_are_pinned",),
    ),
    # The adapter stop: SIGTERM goes out while its stdin is still open.
    Mutant(
        "stdin-closed-before-sigterm",
        "src/qgp/policies.py",
        "process.terminate()\n            process.stdin.close()",
        "process.stdin.close()\n            process.terminate()",
        ("tests/test_policies.py::TestExternalAdapter::test_sigterm_is_sent_while_stdin_is_open",),
    ),
    # A blank adapter command is refused after it is split, as a missing one is.
    Mutant(
        "blank-command-admitted",
        "src/qgp/policies.py",
        "if not self.command:",
        "if self.command is None:",
        (
            FLAGS + "[blank-command]",
            SAVED + "[blank-string]",
            SAVED + "[empty-list]",
            "tests/test_policies.py::TestFactory::test_external_requires_command",
        ),
    ),
    # The bulk bootstrap: ids are [n-resamples-seed], and None is a count
    # whose draws span more than one draw block.
    Mutant(
        "bootstrap-keeps-draw-n",
        METRICS,
        "b >> shift >= n)",
        "b >> shift > n)",
        (BULK + "[36-None-0]", BULK + "[127-None-99]", MEANS + "[36-None]"),
    ),
    Mutant(
        "bootstrap-window-one-late",
        METRICS,
        "sums[n - 1 : whole : n]",
        "sums[n : whole : n]",
        (BULK + "[36-7-0]", BULK + "[127-None-99]", MEANS + "[36-None]"),
    ),
    Mutant(
        "bootstrap-product-at-128",
        METRICS,
        "_PRODUCT_MAX_TASKS = 127",
        "_PRODUCT_MAX_TASKS = 128",
        (BULK + "[128-1-0]", BULK + "[128-None-99]"),
    ),
    # The output tables: each column is declared once, on its row type's field.
    Mutant(
        "aggregate-mean-of-wrong-field",
        METRICS,
        'premature_stop_rate: float = _mean_of("premature_stop")',
        'premature_stop_rate: float = _mean_of("budget_exhausted")',
        ("tests/test_record_digest.py::test_aggregate_bytes_are_pinned",),
    ),
    Mutant(
        "delta-confidence-six-decimals",
        METRICS,
        '_column("confidence", ".4f")',
        '_column("confidence", ".6f")',
        ("tests/test_metrics.py::TestBulkDraws::test_golden_delta_bytes",),
    ),
    # One integer rule for every value `run` reads, in files and on the command line.
    Mutant(
        "codec-admits-negative-integer",
        "src/qgp/actions.py",
        "type(v) is int and v >= 0",
        "type(v) is int",
        (FLAGS + "[claim-count]", FLAGS + "[submits-per-search]", FLAGS + "[jobs]"),
    ),
    # A proposal of another family's action is answered, not executed:
    # `Action.__args__[0]` is reposcan's Search, now legal in dataops too.
    Mutant(
        "legal-set-admits-search",
        "src/qgp/core.py",
        "legal = (*environment.actions, Final, AskUser)",
        "legal = (*environment.actions, Final, AskUser, Action.__args__[0])",
        ("tests/test_step_calls.py::test_each_layer_is_called_once_per_step_that_needs_it",),
    ),
    # A malformed step is answered with its own reason.
    Mutant(
        "notice-reason-always-parse-error",
        "src/qgp/core.py",
        "_notice(proposal.reason",
        '_notice("parse_error"',
        (
            "tests/test_policies.py::TestExternalAdapter::"
            "test_a_malformed_step_is_answered_with_its_own_reason",
        ),
    ),
    # A CSV edit keeps each cell within what `csv.reader` reads back.
    Mutant(
        "csv-edit-limit-one-short",
        DATAOPS,
        "len(self.value) > limit",
        "len(self.value) >= limit",
        (
            "tests/test_dataops.py::TestEditAndCheck::"
            "test_a_cell_over_the_csv_limit_is_refused_and_the_unit_stays_repairable",
        ),
    ),
    # A family's budget table is the only list of targets it accepts, and the
    # grid check reads it before any source is.
    Mutant(
        "grid-admits-unbudgeted-target",
        "src/qgp/core.py",
        "if target not in budgets:",
        "if False:",
        (
            "tests/test_cli.py::TestGeneration::test_unknown_dataops_target_is_one_error_line",
            "tests/test_reposcan.py::TestManifest::test_unknown_target_budget_rejected",
            BEFORE_WORK + "[gen-reposcan-10,7]",
            BEFORE_WORK + "[gen-dataops-3,7]",
        ),
    ),
    # A unit path its seeded workspace cannot write is refused at load.
    Mutant(
        "unit-path-conflict-admitted",
        DATAOPS,
        "backlog.workspace.place(relpath)",
        "Workspace._key(relpath)",
        (
            UNIT_PATH + "[run-under-a-file]",
            UNIT_PATH + "[smoke-checker-file-a-directory]",
        ),
    ),
    Mutant(
        "record-duplicates-wrong-count",
        "src/qgp/core.py",
        "duplicate_occurrences=ledger.duplicate_occurrences,",
        "duplicate_occurrences=ledger.submission_occurrences,",
        ("tests/test_record_digest.py::test_record_bytes_are_pinned",),
    ),
)


def _pytest(work: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)


@contextlib.contextmanager
def _copy(root: Path):
    with tempfile.TemporaryDirectory(prefix="qgp-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
        for tree in ("src", "tests", "bench"):
            shutil.copytree(root / tree, work / tree, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(root / name, work)
        yield work


@contextlib.contextmanager
def _applied(work: Path, mutant: Mutant):
    target = work / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.fragment) != 1:
        raise SystemExit(f"{mutant.name}: fragment does not occur exactly once")
    target.write_text(original.replace(mutant.fragment, mutant.replacement), "utf-8")
    try:
        yield
    finally:
        target.write_text(original, encoding="utf-8")


def check(mutants, root: Path = ROOT) -> list[str]:
    """Apply each mutant alone in a copy of `root`; return the names of those
    that no named test fails on."""
    survivors = []
    with _copy(root) as work:
        named = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if _pytest(work, *named).returncode != 0:
            raise SystemExit("the named tests fail on the unbent code")
        for mutant in mutants:
            started = time.perf_counter()
            with _applied(work, mutant):
                code = _pytest(work, "-x", *mutant.tests).returncode
            # Exit 1 is a failed test; any other code (a collection error,
            # say) means the mutant broke the program instead of bending it.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (pytest exit {code})")
            print(f"{mutant.name:32} {verdict:9} {time.perf_counter() - started:5.1f} s")
            if code != 1:
                survivors.append(mutant.name)
    return survivors


def killers(mutants, root: Path = ROOT) -> None:
    """Run the whole suite against each mutant alone in a copy of `root` and
    print the ids of the tests that fail."""
    with _copy(root) as work:
        for mutant in mutants:
            started = time.perf_counter()
            with _applied(work, mutant):
                done = _pytest(work, "-rfE", "--ignore=tests/test_mutant_table.py")
            # Summary lines read "FAILED <id> - <message>" or "ERROR <id> ...".
            failed = [
                line.split(" ", 1)[1].split(" - ", 1)[0]
                for line in done.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))
            ]
            print(f"{mutant.name}: {len(failed)} failing in {time.perf_counter() - started:.1f} s")
            for test in failed:
                print(f"    {test}")


def main(argv: list[str]) -> int:
    whole_suite = "--all" in argv
    names = [a for a in argv if a != "--all"]
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        raise SystemExit(f"no such rows: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if whole_suite:
        killers(chosen)
        return 0
    started = time.perf_counter()
    survivors = check(chosen)
    wall = time.perf_counter() - started
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {wall:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
