"""Scripted policy behavior, determinism, and the external adapter protocol."""

from __future__ import annotations

import json
import sys
import textwrap

import pytest

from qgp.actions import (
    AskUser,
    ControllerNotice,
    Family,
    Final,
    Malformed,
    Outcome,
    Search,
    Submit,
    action_to_dict,
)
from qgp.controllers import StandardController, StateQgpController, VerifierGatedController
from qgp.core import TaskSpec, run_episode
from qgp.errors import ConfigurationError
from qgp.policies import (
    DuplicatorPolicy,
    ExternalAdapterPolicy,
    FalseCompleterPolicy,
    GreedyOraclePolicy,
    NoSubmitLooperPolicy,
    PolicyKind,
    RedundantSearcherPolicy,
    SolverPolicy,
    build_policy,
    derive_edit_payload,
)
from qgp.reposcan import ReposcanEnvironment

from synth import tiny_corpus


def _task(target=3, budget=30, objective="zeta : collect artifacts", task_id="p1"):
    return TaskSpec(
        task_id=task_id,
        family=Family.REPOSCAN,
        objective_text=objective,
        target_count=target,
        budget=budget,
        seed=5,
    )


def _run(policy, controller=None, target=3, budget=30, valid=3, total=10, objective=None):
    corpus = tiny_corpus(valid=valid, total=total)
    task = _task(target=target, budget=budget, objective=objective or "zeta : collect artifacts")
    env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:valid]])
    return run_episode(task, env, controller or StandardController(), policy)


class TestScriptedDeterminism:
    @pytest.mark.parametrize(
        "make_policy",
        [DuplicatorPolicy, GreedyOraclePolicy, RedundantSearcherPolicy, FalseCompleterPolicy],
    )
    def test_identical_runs_byte_for_byte(self, make_policy):
        transcripts = []
        for _ in range(2):
            record = _run(make_policy(), target=8, budget=20, valid=6, total=14)
            actions = [
                action_to_dict(a) for a, _ in record.ledger.history if not isinstance(a, tuple)
                and type(a).__name__ != "Malformed"
            ]
            transcripts.append(json.dumps(actions, sort_keys=True))
        assert transcripts[0] == transcripts[1]


class TestDuplicator:
    def test_fixates_on_first_accepted(self):
        record = _run(DuplicatorPolicy(), target=10, budget=8, valid=3)
        actions = [a for a, _ in record.ledger.history]
        assert isinstance(actions[0], Search)
        assert isinstance(actions[1], Submit) and len(actions[1].ids) == 3
        first_accepted = None
        for _, obs in record.ledger.history:
            if hasattr(obs, "accepted") and obs.accepted:
                first_accepted = obs.accepted[0]
                break
        for action in actions[2:]:
            assert action == Submit(ids=(first_accepted,))

    def test_duplicate_rate_contrast(self):
        standard = _run(DuplicatorPolicy(), target=10, budget=12, valid=3)
        assert standard.ledger.duplicate_occurrences > 0
        gated = _run(DuplicatorPolicy(), StateQgpController(), target=10, budget=12, valid=3)
        assert gated.ledger.duplicate_occurrences == 0


class TestFalseCompleter:
    def test_claims_at_step_three(self):
        record = _run(FalseCompleterPolicy(), target=10, budget=20, valid=3)
        assert record.outcome == Outcome.FALSE_COMPLETION
        assert record.ledger.step == 3
        assert record.ledger.reported_count == 10

    def test_claim_count_override(self):
        record = _run(FalseCompleterPolicy(claim_count=7), target=10, budget=20)
        assert record.ledger.reported_count == 7


class TestGreedyOracle:
    def test_token_schedule_and_ascending_pages(self):
        # Tokens are tried in objective order; each token's pages ascend until
        # an empty page, then the next token starts at page zero. Three
        # artifacts carry "zeta", the other seven only "plain"; all ten are
        # valid, so both tokens are needed.
        corpus = tiny_corpus(valid=3, total=10)
        task = _task(target=10, budget=30, objective="zeta plain : collect everything")
        env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus])
        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert record.outcome == Outcome.SUCCESS
        searches = [a for a, _ in record.ledger.history if isinstance(a, Search)]
        assert [(s.query, s.page) for s in searches] == [
            ("zeta", 0),
            ("zeta", 1),
            ("plain", 0),
        ]

    def test_finals_only_when_remaining_zero(self):
        record = _run(GreedyOraclePolicy(), target=3, budget=30, valid=3)
        assert record.outcome == Outcome.SUCCESS
        # Auto-completion fires on the submission step; no Final was needed.
        assert not any(isinstance(a, Final) for a, _ in record.ledger.history)


class TestRedundantSearcher:
    def test_cycle_shape(self):
        record = _run(RedundantSearcherPolicy(), target=30, budget=9, valid=8, total=12)
        kinds = [type(a).__name__ for a, _ in record.ledger.history]
        assert kinds == ["Search", "Submit", "Submit", "Submit"] * 2 + ["Search"]

    def test_submit_width(self):
        record = _run(RedundantSearcherPolicy(submit_width=2), target=30, budget=3, valid=8, total=12)
        submits = [a for a, _ in record.ledger.history if isinstance(a, Submit)]
        assert all(len(s.ids) == 2 for s in submits)


class TestPayloadDerivation:
    def test_csv_payload_from_prompt_and_diagnostic(self):
        from qgp.core import UnitPublicView

        unit = UnitPublicView(
            unit_id="u1",
            kind="csv_field_check",
            prompt='Ensure column "mpg" of the row keyed "car003" in data/x.csv matches.',
            artifact_path="data/x.csv",
        )
        payload = derive_edit_payload(unit, 'field check failed: expected "21", actual "19"')
        assert json.loads(payload) == {"row_key": "car003", "column": "mpg", "value": "21"}

    def test_metadata_payload(self):
        from qgp.core import UnitPublicView

        unit = UnitPublicView(
            unit_id="u2",
            kind="metadata_repair",
            prompt='Ensure metadata key "license_tag" in meta/m.txt carries the value.',
            artifact_path="meta/m.txt",
        )
        detail = 'metadata check failed: key "license_tag" expected "mit", actual "apache"'
        assert json.loads(derive_edit_payload(unit, detail)) == {
            "key": "license_tag",
            "value": "mit",
        }

    def test_consistency_payload_is_last_quoted_token(self):
        from qgp.core import UnitPublicView

        unit = UnitPublicView(
            unit_id="u3",
            kind="consistency_answer",
            prompt='Reply with the reference token "tag-00ff" exactly.',
            artifact_path="answers/u3.txt",
        )
        assert derive_edit_payload(unit, "") == "tag-00ff"


class TestLooperAndSolver:
    def test_looper_never_submits(self, dataops_loaded):
        from qgp.dataops import DataopsEnvironment

        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(task.spec, env, StandardController(), NoSubmitLooperPolicy())
        finally:
            env.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        assert record.ledger.valid_count == 0
        assert not any(type(a).__name__ == "SubmitUnit" for a, _ in record.ledger.history)
        # The work itself happened: at least one unit reached passed status.
        assert any(
            getattr(obs, "status_after", None) is not None
            and obs.status_after.value == "passed"
            for _, obs in record.ledger.history
        )

    def test_solver_reports_its_count(self, dataops_loaded):
        from qgp.dataops import DataopsEnvironment

        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(task.spec, env, StandardController(), SolverPolicy())
        finally:
            env.close()
        assert record.outcome == Outcome.SUCCESS


class TestFactory:
    def test_build_all_kinds(self):
        assert isinstance(build_policy(PolicyKind.DUPLICATOR), DuplicatorPolicy)
        assert build_policy("early_stopper", stop_step=4).stop_step == 4
        assert build_policy("false_completer", claim_count=9).claim_count == 9
        assert build_policy("redundant_searcher", submit_width=5).submit_width == 5

    def test_external_requires_command(self):
        with pytest.raises(ConfigurationError):
            build_policy("external")


# ---------------------------------------------------------------------------
# External adapter
# ---------------------------------------------------------------------------


def _write_adapter(tmp_path, body: str) -> list[str]:
    script = tmp_path / "adapter.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


ECHO_ADAPTER = """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        last = req.get("last_observation") or {}
        if last.get("kind") == "controller_notice":
            resp = {"kind": "ask_user", "message": "saw notice"}
        elif last.get("kind") == "search_results":
            ids = [c["artifact_id"] for c in last["candidates"]]
            resp = {"kind": "submit", "ids": ids}
        elif req["step"] == 1:
            resp = {"kind": "search", "query": "zeta", "page": 0}
        else:
            resp = {"kind": "final", "completion_claim": True,
                    "reported_count": req["target_count"]}
        sys.stdout.write(json.dumps(resp) + "\\n")
        sys.stdout.flush()
"""


class TestExternalAdapter:
    def test_roundtrip_success(self, tmp_path):
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, ECHO_ADAPTER))
        try:
            corpus = tiny_corpus(valid=3)
            task = _task(target=3, budget=10)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.SUCCESS
        assert record.ledger.step == 2

    def test_blocked_final_notice_reaches_adapter(self, tmp_path):
        # Target is unreachable; the adapter tries to final, gets blocked, and
        # proves it received the notice by switching to ask-user afterwards.
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, ECHO_ADAPTER))
        try:
            corpus = tiny_corpus(valid=3)
            task = _task(target=9, budget=6)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, VerifierGatedController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        proposals = [a for a, _ in record.ledger.history]
        assert any(isinstance(a, Final) for a in proposals)
        assert any(isinstance(a, AskUser) for a in proposals)

    def test_malformed_lines_consume_budget(self, tmp_path):
        command = _write_adapter(
            tmp_path,
            """
            import sys
            for line in sys.stdin:
                sys.stdout.write("this is not an action\\n")
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=4)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        assert record.ledger.step == 4
        notices = [o for _, o in record.ledger.history if isinstance(o, ControllerNotice)]
        assert len(notices) == 4
        assert all(n.reason == "parse_error" for n in notices)

    def test_dead_adapter_aborts_run(self, tmp_path):
        command = _write_adapter(tmp_path, "import sys; sys.exit(3)\n")
        policy = ExternalAdapterPolicy(command=command)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=4)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.ABORTED
        assert record.abort_reason.startswith("adapter")
        assert record.ledger.step == 0 and record.ledger.history == []
        assert record.ledger.submission_occurrences == 0 and not record.interventions

    @pytest.mark.parametrize(
        "reply,reason",
        [
            (
                r'sys.stdout.buffer.write(b"\xff\n"); sys.stdout.flush()',
                "adapter wrote a line that is not UTF-8",
            ),
            ("os.close(1)", "adapter closed its output stream"),
        ],
    )
    def test_abort_reason_names_the_fault(self, tmp_path, reply, reason):
        # The first reply is a search; the second is the fault, after which
        # the adapter keeps reading requests, so only the reply can end the run.
        body = f"""
            import json, os, sys
            for step, line in enumerate(sys.stdin):
                if step == 0:
                    print(json.dumps({{"kind": "search", "query": "zeta", "page": 0}}), flush=True)
                else:
                    {reply}
            """
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, body), timeout=10)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=4)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.ABORTED
        assert record.abort_reason == reason
        assert record.ledger.step == 1

    def test_timeout_is_malformed_step(self, tmp_path):
        command = _write_adapter(
            tmp_path,
            """
            import sys, time
            for line in sys.stdin:
                time.sleep(5)
            """,
        )
        policy = ExternalAdapterPolicy(command=command, timeout=0.3)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=1)
            env = ReposcanEnvironment(task, corpus, [a.artifact_id for a in corpus[:3]])
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        notices = [o for _, o in record.ledger.history if isinstance(o, ControllerNotice)]
        assert len(notices) == 1

    def test_late_reply_never_reaches_a_later_step(self, tmp_path):
        # The reply to step 1 arrives after its timeout; step 2 must get its
        # own reply, not the stale one.
        command = _write_adapter(
            tmp_path,
            """
            import json, sys, time
            for line in sys.stdin:
                step = json.loads(line)["step"]
                if step == 1:
                    time.sleep(0.6)
                reply = {"kind": "ask_user", "message": f"reply-to-step-{step}"}
                sys.stdout.write(json.dumps(reply) + "\\n")
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command, timeout=0.3)
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        try:
            first = policy.decide(view, [], 0)
            assert isinstance(first, Malformed) and first.reason == "adapter_timeout"
            notice = ControllerNotice(reason="parse_error", valid_count=0, remaining=3)
            policy.timeout = 5.0
            second = policy.decide(view, [(first, notice)], 0)
        finally:
            policy.close()
        assert second == AskUser(message="reply-to-step-2")
