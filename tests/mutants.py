"""Mutation table: one row per bent rule, and the tests that must catch it.

Each row names a file under the repository root, a fragment that occurs in it
exactly once, what the fragment becomes, and the test ids that must fail once
it is applied. The runner copies `src/`, `tests/` and `bench/` (which some
tests read) to a temporary directory, checks that the named tests pass there
unbent, then applies each row alone and runs its tests. A row whose tests
still pass survives, and the runner exits 1; so does a row whose tests cannot
run at all once it is applied.

    python tests/mutants.py                # every row
    python tests/mutants.py stop-one-late  # the named rows only

It runs outside the tier-1 suite; `tests/test_mutant_table.py` keeps the
table in step with the code (each fragment occurs once, each test id is
collected) without running it.
"""

from __future__ import annotations

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
UNIT = "tests/test_controllers.py::TestUnitQgp::"
STATE = "tests/test_controllers.py::TestStateQgp::"

MUTANTS = (
    # Termination gating and retrieval (StateQgpController).
    Mutant(
        "gate-one-short",
        CONTROLLERS,
        "valid_count < target_count:",
        "valid_count < target_count - 1:",
        (
            "tests/test_controllers.py::TestGateTermination::"
            "test_one_short_of_target_is_blocked_and_at_target_forwarded",
        ),
    ),
    Mutant(
        "batch-repeat-forwarded",
        CONTROLLERS,
        "batch_keys.add(key)",
        "pass",
        (STATE + "test_fresh_id_repeated_in_one_batch_is_forwarded_once",),
    ),
    Mutant(
        "buffer-over-page",
        CONTROLLERS,
        "[: ctx.page_size]",
        "[: ctx.page_size + 1]",
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
)


def _pytest(work: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=work, env=env, capture_output=True).returncode


def check(mutants, root: Path = ROOT) -> list[str]:
    """Apply each mutant alone in a copy of `root`; return the names of those
    that no named test fails on."""
    survivors = []
    with tempfile.TemporaryDirectory(prefix="qgp-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
        for tree in ("src", "tests", "bench"):
            shutil.copytree(root / tree, work / tree, ignore=ignore)
        shutil.copy(root / "pyproject.toml", work)
        named = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if _pytest(work, named) != 0:
            raise SystemExit("the named tests fail on the unbent code")
        for mutant in mutants:
            target = work / mutant.path
            original = target.read_text(encoding="utf-8")
            if original.count(mutant.fragment) != 1:
                raise SystemExit(f"{mutant.name}: fragment does not occur exactly once")
            target.write_text(original.replace(mutant.fragment, mutant.replacement), "utf-8")
            started = time.perf_counter()
            code = _pytest(work, mutant.tests)
            target.write_text(original, encoding="utf-8")
            # Exit 1 is a failed test; any other code (a collection error,
            # say) means the mutant broke the program instead of bending it.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (pytest exit {code})")
            print(f"{mutant.name:32} {verdict:9} {time.perf_counter() - started:5.1f} s")
            if code != 1:
                survivors.append(mutant.name)
    return survivors


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    started = time.perf_counter()
    survivors = check(chosen)
    wall = time.perf_counter() - started
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {wall:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
