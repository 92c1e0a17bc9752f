"""Controller transforms: passthrough, gating, retrieval state, backlog routing."""

from __future__ import annotations

import pytest

from qgp.actions import (
    AskUser,
    ControllerNotice,
    Edit,
    Family,
    Final,
    Inspect,
    Outcome,
    RunCheck,
    Search,
    Submit,
    SubmitFeedback,
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
    Verdict,
)
from qgp.controllers import (
    CONTROLLER_FEATURES,
    AblationFlag,
    ControllerConfig,
    ControllerKind,
    InterventionKind,
    StandardController,
    StateQgpController,
    UnitQgpController,
    VerifierGatedController,
    build_controller,
)
from qgp.core import RunContext, TaskSpec, run_episode
from qgp.errors import ConfigurationError
from qgp.policies import (
    DuplicatorPolicy,
    FalseCompleterPolicy,
    NoSubmitLooperPolicy,
    RedundantSearcherPolicy,
)
from qgp.reposcan import ReposcanEnvironment

from synth import tiny_corpus


def make_ctx(step=1, valid=0, target=10, objective="session : find artifacts", units=()):
    return RunContext(
        step=step,
        valid_count=valid,
        target_count=target,
        objective_text=objective,
        unit_order=tuple(units),
    )


class TestStandard:
    def test_repeated_submit_passthrough(self):
        action = Submit(ids=("a", "a"))
        decision = StandardController().transform(action, make_ctx())
        assert decision.action == action and not decision.interventions

    def test_final_forwarded_ends_in_false_completion(self):
        corpus = tiny_corpus()
        task = TaskSpec(
            task_id="std-fc",
            family=Family.REPOSCAN,
            objective_text="zeta : x",
            target_count=10,
            budget=10,
            seed=0,
        )
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
        record = run_episode(task, env, StandardController(), FalseCompleterPolicy())
        assert record.outcome == Outcome.FALSE_COMPLETION

    def test_repeated_search_passthrough(self):
        action = Search(query="q", page=0)
        controller = StandardController()
        for step in (1, 2, 3):
            assert controller.transform(action, make_ctx(step=step)).action == action


class TestGateTermination:
    def test_blocks_with_remaining(self):
        action = Final(completion_claim=True, reported_count=10)
        result = VerifierGatedController().transform(action, make_ctx(valid=6, target=10))
        assert result.action is None and isinstance(result.notice, ControllerNotice)
        assert result.notice.remaining == 4 and result.notice.valid_count == 6

    def test_boundary_forwards(self):
        action = Final(completion_claim=True, reported_count=10)
        result = VerifierGatedController().transform(action, make_ctx(valid=10, target=10))
        assert result.action == action and result.notice is None

    def test_ask_user_blocked(self):
        result = VerifierGatedController().transform(AskUser(message="?"), make_ctx(target=3))
        assert isinstance(result.notice, ControllerNotice) and result.notice.remaining == 3

    @pytest.mark.parametrize(
        "action", [Final(completion_claim=True, reported_count=10), AskUser(message="?")]
    )
    @pytest.mark.parametrize("kind", ["verifier_gated", "state_qgp", "unit_qgp"])
    def test_one_short_of_target_is_blocked_and_at_target_forwarded(self, kind, action):
        config = ControllerConfig(kind=ControllerKind(kind))
        short = build_controller(config).transform(action, make_ctx(valid=9, units=("u1",)))
        assert short.action is None and short.notice.remaining == 1
        assert [iv.kind for iv in short.interventions] == [InterventionKind.BLOCKED_TERMINATION]
        met = build_controller(config).transform(action, make_ctx(valid=10, units=("u1",)))
        assert met.action == action and met.notice is None and not met.interventions


class TestStateQgp:
    def test_dedupe_filters_submitted_and_batch_repeats(self):
        controller = StateQgpController()
        controller.state.submitted_ids.add("a")
        decision = controller.transform(Submit(ids=("a", "a", "b")), make_ctx())
        assert decision.action == Submit(ids=("b",))
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.DEDUP_FILTERED]

    @pytest.mark.parametrize("label", [k for k, row in CONTROLLER_FEATURES.items() if row.dedupe])
    def test_fresh_id_repeated_in_one_batch_is_forwarded_once(self, label):
        decision = StateQgpController(label).transform(Submit(ids=("a", "b", "a")), make_ctx())
        assert decision.action == Submit(ids=("a", "b"))
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.DEDUP_FILTERED]

    def test_fully_filtered_empty_buffer_repairs_to_search(self):
        controller = StateQgpController()
        controller.state.submitted_ids.update({"a", "b"})
        controller.state.last_query = "session"
        controller.state.seen_pages.update({("session", 0), ("session", 1)})
        decision = controller.transform(Submit(ids=("a", "b")), make_ctx())
        assert decision.action == Search(query="session", page=2)
        assert [iv.kind for iv in decision.interventions] == [
            InterventionKind.REPAIRED_TO_SEARCH
        ]

    def test_seen_page_advances(self):
        controller = StateQgpController()
        controller.state.seen_pages.add(("q", 0))
        decision = controller.transform(Search(query="q", page=0), make_ctx())
        assert decision.action == Search(query="q", page=1)
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.PAGE_ADVANCED]

    def test_buffer_substitution_caps_at_page_size(self):
        controller = StateQgpController()
        controller.state.submitted_ids.add("x")
        for i in range(15):
            controller.state.candidate_buffer[f"c{i}"] = None
        decision = controller.transform(Submit(ids=("x",)), make_ctx())
        batch = tuple(f"c{i}" for i in range(10))
        assert decision.action == Submit(ids=batch)
        # The state learns of the batch from its feedback, not from transform.
        feedback = SubmitFeedback(
            accepted=(), rejected=batch, duplicates=(), valid_count=0, remaining=10
        )
        controller.observe(decision.action, feedback, make_ctx())
        assert controller.state.submitted_ids == {"x", *batch}
        assert list(controller.state.candidate_buffer) == [f"c{i}" for i in range(10, 15)]

    def test_blocks_termination_below_target(self):
        controller = StateQgpController()
        decision = controller.transform(Final(completion_claim=True), make_ctx(valid=3))
        assert decision.notice is not None
        assert decision.interventions[0].kind == InterventionKind.BLOCKED_TERMINATION

    def test_fresh_query_from_objective_when_no_last_query(self):
        controller = StateQgpController()
        decision = controller.transform(Submit(ids=()), make_ctx(objective="widget : find"))
        assert decision.action == Search(query="widget", page=0)

    def test_repair_search_reuses_the_last_query(self):
        controller = StateQgpController()
        controller.state.submitted_ids.add("a")
        controller.state.last_query = "q"
        controller.state.seen_pages.add(("q", 0))
        decision = controller.transform(Submit(ids=("a",)), make_ctx(objective="widget : find"))
        assert decision.action == Search(query="q", page=1)
        assert controller.state.last_query == "q"

    def test_repair_search_records_its_query_as_the_last(self):
        controller = StateQgpController()
        controller.transform(Submit(ids=()), make_ctx(objective="widget : find"))
        assert controller.state.last_query == "widget"

    def test_observe_fills_buffer_and_pages(self):
        from qgp.actions import Candidate, SearchResults

        controller = StateQgpController()
        controller.state.submitted_ids.add("seen")
        results = SearchResults(
            query="q",
            page=0,
            candidates=(Candidate("seen", "p"), Candidate("new", "p")),
        )
        controller.observe(Search(query="q", page=0), results, make_ctx())
        assert ("q", 0) in controller.state.seen_pages
        assert list(controller.state.candidate_buffer) == ["new"]

    def test_observe_learns_the_keys_the_verifier_judged(self):
        controller = StateQgpController()
        controller.state.candidate_buffer.update(dict.fromkeys(["a", "c"]))
        feedback = SubmitFeedback(
            accepted=("a",), rejected=("b",), duplicates=("a",), valid_count=1, remaining=9
        )
        controller.observe(Submit(ids=(" a ", "b", "a")), feedback, make_ctx())
        assert controller.state.submitted_ids == {"a", "b"}
        assert list(controller.state.candidate_buffer) == ["c"]

    def test_memory_holds_what_the_ledger_holds(self, reposcan_loaded):
        # After every reference run the controller remembers exactly the ids
        # the ledger holds, since it learns them from the verifier's feedback.
        manifest, corpora = reposcan_loaded
        assert len(manifest.tasks) == 36
        for task in manifest.tasks:
            env = ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)
            controller = StateQgpController()
            ledger = run_episode(task.spec, env, controller, DuplicatorPolicy()).ledger
            assert ledger.submissions, task.spec.task_id
            assert controller.state.submitted_ids == set(ledger.submissions), task.spec.task_id


class TestAblations:
    def test_dedupe_only_forwards_empty_submit(self):
        controller = StateQgpController("ablation:dedupe_only")
        controller.state.submitted_ids.update({"a", "b"})
        decision = controller.transform(Submit(ids=("a", "b")), make_ctx())
        assert decision.action == Submit(ids=())
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.DEDUP_FILTERED]

    def test_dedupe_only_forwards_an_empty_submission_without_intervention(self):
        controller = StateQgpController("ablation:dedupe_only")
        controller.state.submitted_ids.add("a")
        decision = controller.transform(Submit(ids=()), make_ctx())
        assert decision.action == Submit(ids=()) and not decision.interventions

    def test_page_memory_only_leaves_duplicates_alone(self):
        controller = StateQgpController("ablation:page_memory_only")
        controller.state.submitted_ids.update({"a"})
        action = Submit(ids=("a", "a"))
        decision = controller.transform(action, make_ctx())
        assert decision.action == action and not decision.interventions

    def test_no_buffer_variant_repairs_to_search_not_buffer(self):
        controller = StateQgpController("ablation:dedupe_plus_page_no_buffer")
        controller.state.submitted_ids.add("a")
        controller.state.candidate_buffer["fresh"] = None
        controller.state.last_query = "q"
        decision = controller.transform(Submit(ids=("a",)), make_ctx())
        assert isinstance(decision.action, Search)
        assert [iv.kind for iv in decision.interventions] == [
            InterventionKind.REPAIRED_TO_SEARCH
        ]

    def test_ablations_do_not_gate(self):
        for flag in AblationFlag:
            controller = StateQgpController(f"ablation:{flag.value}")
            action = Final(completion_claim=True)
            decision = controller.transform(action, make_ctx(valid=0))
            assert decision.action == action


class TestUnitQgp:
    def _feedback(self, unit_id, status, verdict=Verdict.PASS):
        return UnitFeedback(unit_id=unit_id, verdict=verdict, detail="", status_after=status)

    def _check_passes(self, controller, unit_id, ctx):
        feedback = self._feedback(unit_id, UnitStatus.PASSED)
        controller.observe(RunCheck(unit_id=unit_id), feedback, ctx)

    def test_inspect_loop_steered_at_k(self):
        controller = UnitQgpController(no_progress_limit=4)
        units = ("u1", "u2", "u3")
        step = 0
        for _ in range(4):
            step += 1
            ctx = make_ctx(step=step, units=units)
            decision = controller.transform(Inspect(unit_id="u1"), ctx)
            assert decision.action == Inspect(unit_id="u1")
            controller.observe(
                decision.action, self._feedback("u1", UnitStatus.PENDING), ctx
            )
        step += 1
        ctx = make_ctx(step=step, units=units)
        # u1 is itself the first open unit, so the rewrite would be identity;
        # mark it passed in the controller's view to expose the steering.
        controller.state.unit_status_view["u1"] = UnitStatus.PASSED
        controller.state.awaiting_submit.clear()
        decision = controller.transform(Inspect(unit_id="u1"), ctx)
        assert decision.action == Inspect(unit_id="u2")
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.STEERED_TO_UNIT]

    def test_post_edit_routed_to_check(self):
        controller = UnitQgpController()
        units = ("u2", "u3")
        ctx = make_ctx(step=1, units=units)
        edit = Edit(unit_id="u2", payload="{}")
        decision = controller.transform(edit, ctx)
        assert decision.action == edit
        controller.observe(edit, self._feedback("u2", UnitStatus.ATTEMPTED), ctx)
        ctx = make_ctx(step=2, units=units)
        decision = controller.transform(Inspect(unit_id="u3"), ctx)
        assert decision.action == RunCheck(unit_id="u2")
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.ROUTED_TO_CHECK]

    def test_post_edit_natural_check_not_rewritten(self):
        controller = UnitQgpController()
        units = ("u2",)
        ctx = make_ctx(step=1, units=units)
        edit = Edit(unit_id="u2", payload="{}")
        controller.transform(edit, ctx)
        controller.observe(edit, self._feedback("u2", UnitStatus.ATTEMPTED), ctx)
        ctx = make_ctx(step=2, units=units)
        decision = controller.transform(RunCheck(unit_id="u2"), ctx)
        assert decision.action == RunCheck(unit_id="u2")
        assert not decision.interventions

    def test_pass_routed_to_submit_after_two_steps(self):
        controller = UnitQgpController()
        units = ("u1", "u2")
        ctx = make_ctx(step=3, units=units)
        controller.observe(RunCheck(unit_id="u1"), self._feedback("u1", UnitStatus.PASSED), ctx)
        ctx = make_ctx(step=4, units=units)
        decision = controller.transform(Inspect(unit_id="u2"), ctx)
        assert decision.action == Inspect(unit_id="u2")  # one step of grace
        controller.observe(decision.action, self._feedback("u2", UnitStatus.PENDING), ctx)
        ctx = make_ctx(step=5, units=units)
        decision = controller.transform(RunCheck(unit_id="u2"), ctx)
        assert decision.action == SubmitUnit(unit_id="u1")
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.ROUTED_TO_SUBMIT]

    def test_hard_stop_disables_routing_keeps_gating(self):
        controller = UnitQgpController(no_progress_limit=2)
        units = ("u1",)
        step = 0
        kinds = []
        for _ in range(6):
            step += 1
            ctx = make_ctx(step=step, units=units)
            decision = controller.transform(Inspect(unit_id="u1"), ctx)
            kinds += [iv.kind for iv in decision.interventions]
            controller.observe(
                decision.action or Inspect(unit_id="u1"),
                self._feedback("u1", UnitStatus.PENDING),
                ctx,
            )
        assert InterventionKind.NO_PROGRESS_STOP in kinds
        assert controller.state.stopped
        # Routing is off, the proposal passes through untouched...
        ctx = make_ctx(step=step + 1, units=units)
        assert controller.transform(Inspect(unit_id="u1"), ctx).action == Inspect(unit_id="u1")
        # ...but termination gating still applies.
        decision = controller.transform(Final(completion_claim=True), make_ctx(step=step + 2, valid=0, units=units))
        assert decision.notice is not None

    def test_pure_stall_ends_with_no_progress_stop(self, dataops_loaded):
        # A policy that only re-inspects one unit defeats steering; after 2k
        # fruitless steps the controller stops routing and the budget runs out.
        from qgp.dataops import DataopsEnvironment

        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(
                task.spec,
                env,
                UnitQgpController(no_progress_limit=4),
                NoSubmitLooperPolicy(loop_unit=task.units[0].unit_id),
            )
        finally:
            env.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        assert record.interventions
        assert record.interventions[-1].kind == InterventionKind.NO_PROGRESS_STOP

    def test_proposal_equal_to_the_pending_check_still_gets_the_due_submit(self):
        controller = UnitQgpController()
        units = ("u1", "u2")
        self._check_passes(controller, "u1", make_ctx(1, units=units))
        edit = Edit(unit_id="u2", payload="{}")
        assert controller.transform(edit, make_ctx(2, units=units)).action == edit
        ctx = make_ctx(2, units=units)
        controller.observe(edit, self._feedback("u2", UnitStatus.ATTEMPTED), ctx)
        decision = controller.transform(RunCheck(unit_id="u2"), make_ctx(3, units=units))
        assert decision.action == SubmitUnit(unit_id="u1")
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.ROUTED_TO_SUBMIT]

    def test_proposal_equal_to_the_due_submit_still_gets_the_stall_steer(self):
        controller = UnitQgpController(no_progress_limit=2)
        units = ("u1", "u2")
        self._check_passes(controller, "u1", make_ctx(1, units=units))
        submit = SubmitUnit(unit_id="u1")
        rejected = SubmitFeedback((), ("u1",), (), valid_count=0, remaining=2)
        for step in (2, 3):
            # Due from step 3 on, and the proposal is that submit: forwarded.
            decision = controller.transform(submit, make_ctx(step, units=units))
            assert decision.action == submit and not decision.interventions
            controller.observe(submit, rejected, make_ctx(step, units=units))
        # The same submit again after k steps without progress is stale.
        decision = controller.transform(submit, make_ctx(4, units=units))
        assert decision.action == Inspect(unit_id="u2")
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.STEERED_TO_UNIT]

    @pytest.mark.parametrize(
        "proposal, steered", [(RunCheck(unit_id="u1"), True), (RunCheck(unit_id="u2"), False)]
    )
    def test_a_repeated_non_inspect_proposal_is_stale(self, proposal, steered):
        controller = UnitQgpController(no_progress_limit=2)
        units = ("u1", "u2")
        check = RunCheck(unit_id="u1")
        failed = self._feedback("u1", UnitStatus.ATTEMPTED, Verdict.FAIL)
        for step in (1, 2):
            assert controller.transform(check, make_ctx(step, units=units)).action == check
            controller.observe(check, failed, make_ctx(step, units=units))
        decision = controller.transform(proposal, make_ctx(3, units=units))
        if steered:
            assert decision.action == Inspect(unit_id="u1")
            assert [iv.kind for iv in decision.interventions] == [InterventionKind.STEERED_TO_UNIT]
        else:
            assert decision.action == proposal and not decision.interventions

    def test_stop_fires_at_exactly_twice_the_limit(self):
        controller = UnitQgpController(no_progress_limit=2)
        units = ("u1",)
        inspect = Inspect(unit_id="u1")
        for step in (1, 2, 3):
            controller.observe(inspect, self._feedback("u1", UnitStatus.PENDING), make_ctx(step))
        decision = controller.transform(inspect, make_ctx(4, units=units))
        assert decision.action == inspect and not decision.interventions
        controller.observe(inspect, self._feedback("u1", UnitStatus.PENDING), make_ctx(4))
        decision = controller.transform(inspect, make_ctx(5, units=units))
        assert decision.action == inspect
        assert [iv.kind for iv in decision.interventions] == [InterventionKind.NO_PROGRESS_STOP]

    def test_a_duplicate_in_the_feedback_clears_the_pending_submit(self):
        controller = UnitQgpController()
        units = ("u1", "u2")
        self._check_passes(controller, "u1", make_ctx(1, units=units))
        duplicate = SubmitFeedback((), (), ("u1",), valid_count=1, remaining=1)
        controller.observe(SubmitUnit(unit_id="u1"), duplicate, make_ctx(2, units=units))
        decision = controller.transform(Inspect(unit_id="u2"), make_ctx(3, units=units))
        assert decision.action == Inspect(unit_id="u2") and not decision.interventions

    def test_progress_resets_counter(self):
        controller = UnitQgpController(no_progress_limit=3)
        ctx = make_ctx(step=1, units=("u1",))
        controller.observe(Inspect(unit_id="u1"), self._feedback("u1", UnitStatus.PENDING), ctx)
        controller.observe(Inspect(unit_id="u1"), self._feedback("u1", UnitStatus.PENDING), ctx)
        assert controller.state.steps_without_progress == 2
        controller.observe(
            SubmitUnit(unit_id="u1"),
            SubmitFeedback(("u1",), (), (), valid_count=1, remaining=0),
            ctx,
        )
        assert controller.state.steps_without_progress == 0


class RecordingController:
    """Wraps a controller to capture (proposal, decision) pairs per step."""

    def __init__(self, inner):
        self.inner = inner
        self.kind_label = inner.kind_label
        self.log = []

    def transform(self, action, ctx):
        decision = self.inner.transform(action, ctx)
        self.log.append((action, decision))
        return decision

    def observe(self, action, observation, ctx):
        self.inner.observe(action, observation, ctx)


class TestInterventionCompleteness:
    @pytest.mark.parametrize(
        "make_controller,policy",
        [
            (lambda: StateQgpController(), DuplicatorPolicy()),
            (lambda: StateQgpController(), RedundantSearcherPolicy()),
            (
                lambda: StateQgpController("ablation:dedupe_plus_page_no_buffer"),
                RedundantSearcherPolicy(),
            ),
            (lambda: VerifierGatedController(), FalseCompleterPolicy()),
        ],
    )
    def test_forwarded_differs_iff_intervention_logged(self, make_controller, policy):
        corpus = tiny_corpus(valid=6, total=14)
        valid = list(corpus.ids[:6])
        task = TaskSpec(
            task_id="iv-complete",
            family=Family.REPOSCAN,
            objective_text="zeta : check interventions",
            target_count=12,
            budget=25,
            seed=3,
        )
        env = ReposcanEnvironment(task, corpus, valid)
        controller = RecordingController(make_controller())
        run_episode(task, env, controller, policy)
        assert controller.log
        for proposal, decision in controller.log:
            if decision.notice is not None:
                assert decision.interventions
            elif decision.action == proposal:
                assert not decision.interventions
            else:
                assert decision.interventions


class TestGatedNeverFalseCompletes:
    def test_reposcan_controllers(self):
        corpus = tiny_corpus(valid=3)
        valid = list(corpus.ids[:3])
        task = TaskSpec(
            task_id="gate-fc",
            family=Family.REPOSCAN,
            objective_text="zeta : gated",
            target_count=10,
            budget=15,
            seed=0,
        )
        for make in (VerifierGatedController, StateQgpController):
            env = ReposcanEnvironment(task, corpus, valid)
            record = run_episode(task, env, make(), FalseCompleterPolicy())
            assert record.outcome == Outcome.BUDGET_EXHAUSTED

    def test_unit_qgp(self, dataops_loaded):
        task = dataops_loaded.tasks[0]
        from qgp.dataops import DataopsEnvironment

        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(
                task.spec, env, UnitQgpController(), FalseCompleterPolicy()
            )
        finally:
            env.close()
        assert record.outcome != Outcome.FALSE_COMPLETION


class TestConfig:
    def test_ablation_requires_flags(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(kind=ControllerKind.ABLATION)

    @pytest.mark.parametrize("kind", [k for k in ControllerKind if k != ControllerKind.ABLATION])
    def test_flags_require_ablation(self, kind):
        with pytest.raises(ConfigurationError, match="needs the ablation controller"):
            ControllerConfig(kind=kind, ablation_flags=AblationFlag.DEDUPE_ONLY)

    def test_factory_labels(self):
        assert build_controller(ControllerConfig(kind=ControllerKind.STANDARD)).kind_label == "standard"
        assert (
            build_controller(
                ControllerConfig(
                    kind=ControllerKind.ABLATION, ablation_flags=AblationFlag.DEDUPE_ONLY
                )
            ).kind_label
            == "ablation:dedupe_only"
        )

    def test_unit_qgp_limit_validated(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(kind=ControllerKind.UNIT_QGP, no_progress_limit=0)

    def test_unit_qgp_limit_of_one_is_accepted(self):
        config = ControllerConfig(kind=ControllerKind.UNIT_QGP, no_progress_limit=1)
        assert build_controller(config).k == 1
