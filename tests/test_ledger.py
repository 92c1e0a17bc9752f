"""Ledger arithmetic, outcome classification, and the execution loop."""

from __future__ import annotations

import dataclasses
import itertools
import random

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
    SearchResults,
    SubmitFeedback,
    SubmitUnit,
)
from qgp.core import (
    RunLedger,
    TaskSpec,
    classify_termination,
    record_submission,
    reported_count_error,
    run_episode,
)
from qgp.controllers import StandardController, UnitQgpController, VerifierGatedController
from qgp.dataops import DataopsEnvironment
from qgp.errors import ConfigurationError, TerminatedRunError
from qgp.policies import EarlyStopperPolicy, GreedyOraclePolicy
from qgp.reposcan import ReposcanEnvironment
from qgp.verifier import IdVerdict, judge_ids

from synth import tiny_corpus


def _ledger(target=10, budget=30) -> RunLedger:
    return RunLedger(target_count=target, budget=budget)


def brute_force_valid_count(batches, valid_set) -> int:
    """Independent recomputation of the verified count: distinct support of the
    full submission multiset intersected with the valid set."""
    support = {x.strip() for batch in batches for x in batch}
    return len(support & {v.strip() for v in valid_set})


def _submit(ledger: RunLedger, batch, valid) -> SubmitFeedback:
    """Judge a batch with the retrieval rule and fold it, as ReposcanEnvironment does."""
    return record_submission(ledger, judge_ids(frozenset(valid), ledger.submissions, batch))


class TestRecordSubmission:
    def test_within_batch_repeat_partition(self):
        ledger = _ledger()
        fb = _submit(ledger, ["a", "b", "a"], {"a"})
        assert fb.accepted == ("a",)
        assert fb.duplicates == ("a",)
        assert fb.rejected == ("b",)
        assert ledger.valid_count == 1
        assert ledger.submission_occurrences == 3

    def test_empty_batch_identity(self):
        ledger = _ledger()
        _submit(ledger, ["x"], {"x"})
        fb = _submit(ledger, [], {"x"})
        assert fb.accepted == fb.rejected == fb.duplicates == ()
        assert ledger.valid_count == 1

    def test_two_batch_order_independence(self):
        # Oracle first: the expected final count comes from the brute-force
        # multiset recomputation, not from the implementation under test.
        valid = {"x", "y", "z"}
        batches = [["x", "y"], ["y", "z"]]
        expected = brute_force_valid_count(batches, valid)
        assert expected == 3

        ledger = _ledger()
        feedbacks = [_submit(ledger, batch, valid) for batch in batches]
        assert ledger.valid_count == expected
        assert feedbacks[1].duplicates == ("y",)

        # Any batch order reaches the same final count.
        for order in itertools.permutations(batches):
            ledger2 = _ledger()
            for batch in order:
                _submit(ledger2, list(batch), valid)
            assert ledger2.valid_count == expected

    def test_previously_rejected_id_is_duplicate_on_resubmission(self):
        ledger = _ledger()
        _submit(ledger, ["bad"], set())
        fb = _submit(ledger, ["bad"], set())
        assert fb.duplicates == ("bad",)
        assert fb.rejected == ()

    def test_terminated_run_rejected(self):
        ledger = _ledger()
        ledger.outcome = Outcome.BUDGET_EXHAUSTED
        with pytest.raises(TerminatedRunError):
            record_submission(ledger, [("a", IdVerdict.ACCEPT_NEW)])
        assert ledger.submission_occurrences == 0

    def test_distinct_is_support_and_valid_bounded(self):
        rng = random.Random(5)
        universe = [f"id{i}" for i in range(12)]
        valid = set(rng.sample(universe, 5))
        ledger = _ledger()
        batches = []
        for _ in range(20):
            batch = [rng.choice(universe) for _ in range(rng.randrange(0, 6))]
            batches.append(batch)
            before = ledger.valid_count
            _submit(ledger, batch, valid)
            assert ledger.valid_count >= before  # monotone
            assert ledger.valid_ids <= set(ledger.submissions)
            assert ledger.valid_count <= len(ledger.submissions)
        assert ledger.valid_count == brute_force_valid_count(batches, valid)


class TestScalarOps:
    @pytest.mark.parametrize(
        "reported,valid,target,expected",
        [(12, 9, 10, 0.3), (5, 5, 20, 0.0), (2, 0, 0, 2.0)],
    )
    def test_reported_count_error(self, reported, valid, target, expected):
        assert reported_count_error(reported, valid, target) == pytest.approx(expected)


class TestClassifyTermination:
    def _with_valid(self, n):
        ledger = _ledger(target=10, budget=200)
        ledger.valid_ids = {f"v{i}" for i in range(n)}
        return ledger

    def test_false_completion(self):
        outcome = classify_termination(
            self._with_valid(6), Final(completion_claim=True, reported_count=10)
        )
        assert outcome == Outcome.FALSE_COMPLETION

    def test_final_without_claim_short_of_target_is_premature(self):
        outcome = classify_termination(self._with_valid(6), Final(completion_claim=False))
        assert outcome == Outcome.PREMATURE_STOP

    def test_ask_user_premature(self):
        assert (
            classify_termination(self._with_valid(3), AskUser(message="?"))
            == Outcome.PREMATURE_STOP
        )

    def test_budget_marker(self):
        ledger = RunLedger(target_count=100, budget=200)
        ledger.valid_ids = {f"v{i}" for i in range(41)}
        assert classify_termination(ledger, None) == Outcome.BUDGET_EXHAUSTED
        assert classify_termination(ledger) == Outcome.BUDGET_EXHAUSTED

    @pytest.mark.parametrize(
        "valid,target,expected",
        [(10, 10, True), (9, 10, False), (38, 25, True)],
    )
    def test_success_iff_nothing_remains(self, valid, target, expected):
        ledger = _ledger(target=target)
        ledger.valid_ids = {f"v{i}" for i in range(valid)}
        assert (ledger.remaining == 0) is expected
        for terminating in (None, Final(completion_claim=True), AskUser(message="?")):
            outcome = classify_termination(ledger, terminating)
            assert (outcome == Outcome.SUCCESS) is expected

    def test_claim_text_never_decides_success(self):
        ledger = self._with_valid(10)
        assert (
            classify_termination(ledger, Final(completion_claim=False))
            == Outcome.SUCCESS
        )
        assert classify_termination(ledger, AskUser(message="?")) == Outcome.SUCCESS

    def test_non_terminating_marker_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_termination(self._with_valid(0), object())


class TestRunEpisode:
    def _task(self, target=3, budget=30, objective="zeta : submit matching artifacts"):
        return TaskSpec(
            task_id="t-run",
            family=Family.REPOSCAN,
            objective_text=objective,
            target_count=target,
            budget=budget,
            seed=9,
        )

    def test_greedy_oracle_success_hand_trace(self):
        # Hand trace on the ten-artifact corpus: one search finds the three
        # valid candidates, one submission accepts them, the run completes.
        corpus = tiny_corpus(valid=3, total=10, token="zeta")
        valid = list(corpus.ids[:3])
        task = self._task()
        env = ReposcanEnvironment(task, corpus, valid)
        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert record.outcome == Outcome.SUCCESS
        assert record.ledger.step == 2
        actions = [a for a, _ in record.ledger.history]
        assert type(actions[0]).__name__ == "Search"
        assert type(actions[1]).__name__ == "Submit"

    def test_early_stopper_premature(self):
        corpus = tiny_corpus()
        task = self._task(target=10)
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
        record = run_episode(task, env, StandardController(), EarlyStopperPolicy())
        assert record.outcome == Outcome.PREMATURE_STOP
        assert record.ledger.step == 1

    def test_early_stopper_gated_exhausts_budget(self):
        corpus = tiny_corpus()
        task = self._task(target=10, budget=12)
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
        record = run_episode(task, env, VerifierGatedController(), EarlyStopperPolicy())
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        notices = [o for _, o in record.ledger.history if isinstance(o, ControllerNotice)]
        assert len(notices) >= 1
        assert record.ledger.step == 12

    def test_budget_discipline(self):
        corpus = tiny_corpus()
        task = self._task(target=10, budget=7)
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert len(record.ledger.history) <= task.budget
        assert record.ledger.step <= task.budget

    def test_family_mismatch_rejected(self):
        corpus = tiny_corpus()
        task = TaskSpec(
            task_id="t-bad",
            family=Family.DATAOPS,
            objective_text="x",
            target_count=1,
            budget=1,
            seed=0,
        )
        env = ReposcanEnvironment(self._task(), corpus, [])
        with pytest.raises(ConfigurationError):
            run_episode(task, env, StandardController(), GreedyOraclePolicy())

    def test_success_wins_on_final_budget_step(self):
        # Two steps of budget: search then submit; feedback lands on the last
        # step and still classifies as success.
        corpus = tiny_corpus(valid=3)
        valid = list(corpus.ids[:3])
        task = self._task(target=3, budget=2)
        env = ReposcanEnvironment(task, corpus, valid)
        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert record.outcome == Outcome.SUCCESS
        assert record.ledger.step == 2


def _random_run(seed: int):
    """One randomized small run under a random-action policy; returns the
    record, the hidden valid set, and every forwarded submission batch."""
    rng = random.Random(seed)
    total = rng.randrange(5, 31)
    n_valid = rng.randrange(1, total + 1)
    corpus = tiny_corpus(valid=n_valid, total=total, token="zeta")
    valid_ids = list(corpus.ids[:n_valid])
    all_ids = list(corpus.ids)
    task = TaskSpec(
        task_id=f"rand-{seed}",
        family=Family.REPOSCAN,
        objective_text="zeta : random walk",
        target_count=rng.randrange(1, total + 2),
        budget=rng.randrange(1, 16),
        seed=seed,
    )

    class RandomPolicy:
        label = "random"

        def decide(self, view, history):
            roll = rng.random()
            if roll < 0.55:
                batch = [rng.choice(all_ids) for _ in range(rng.randrange(0, 5))]
                from qgp.actions import Submit

                return Submit(ids=tuple(batch))
            if roll < 0.85:
                from qgp.actions import Search

                return Search(query=rng.choice(["zeta", "module", "plain"]), page=rng.randrange(3))
            if roll < 0.95:
                return Final(completion_claim=rng.random() < 0.5, reported_count=rng.randrange(5))
            return AskUser(message="?")

    env = ReposcanEnvironment(task, corpus, valid_ids)
    record = run_episode(task, env, StandardController(), RandomPolicy())
    batches = [list(a.ids) for a, _ in record.ledger.history if type(a).__name__ == "Submit"]
    return record, set(valid_ids), batches


def _random_dataops_run(seed: int, task):
    """One randomized run over a generated backlog: random unit operations,
    unknown and padded unit ids, and terminations, under a random controller."""
    rng = random.Random(seed)
    unit_ids = [u.unit_id for u in task.units]
    choices = unit_ids + ["u999", " " + unit_ids[0], unit_ids[-1] + " "]
    spec = dataclasses.replace(
        task.spec,
        target_count=rng.randrange(1, len(unit_ids) + 1),
        budget=rng.randrange(1, 60),
    )

    class RandomUnitPolicy:
        label = "random"

        def decide(self, view, history):
            roll = rng.random()
            unit_id = rng.choice(choices)
            if roll < 0.35:
                return SubmitUnit(unit_id=unit_id)
            if roll < 0.65:
                return RunCheck(unit_id=unit_id)
            if roll < 0.75:
                return Inspect(unit_id=unit_id)
            if roll < 0.85:
                return Edit(unit_id=unit_id, payload=rng.choice(["junk", '{"key": "a"}']))
            if roll < 0.95:
                return Final(completion_claim=rng.random() < 0.5, reported_count=rng.randrange(5))
            return AskUser(message="?")

    controller = rng.choice([StandardController, VerifierGatedController, UnitQgpController])()
    env = DataopsEnvironment(spec, task.units, task.workspace)
    try:
        return run_episode(spec, env, controller, RandomUnitPolicy())
    finally:
        env.close()


def _assert_ledger_matches_history(record) -> None:
    """The feedback in the step history is an independent oracle for the counts."""
    ledger = record.ledger
    feedback = [obs for _, obs in ledger.history if isinstance(obs, SubmitFeedback)]
    judged = sum(len(f.accepted) + len(f.rejected) + len(f.duplicates) for f in feedback)
    assert judged == ledger.submission_occurrences
    assert sum(len(f.duplicates) for f in feedback) == ledger.duplicate_occurrences
    accepted = [key for f in feedback for key in f.accepted]
    assert len(accepted) == len(set(accepted))  # each id counts once
    assert ledger.valid_count == len(set(accepted))
    assert (record.outcome == Outcome.SUCCESS) == (
        ledger.valid_count >= record.task.target_count
    )


class TestRandomizedInvariants:
    def test_ledger_matches_brute_force_recomputation(self):
        for seed in range(200):
            record, valid_ids, batches = _random_run(seed)
            expected = brute_force_valid_count(batches, valid_ids)
            assert record.ledger.valid_count == expected, f"seed {seed}"
            assert (record.outcome == Outcome.SUCCESS) == (
                record.ledger.valid_count >= record.task.target_count
            )

    def test_ledger_matches_feedback_history(self, dataops_loaded):
        for seed in range(200):
            record, _, _ = _random_run(seed)
            _assert_ledger_matches_history(record)
        tasks = dataops_loaded.tasks
        for seed in range(60):
            record = _random_dataops_run(seed, tasks[seed % len(tasks)])
            _assert_ledger_matches_history(record)

    def test_confidentiality_of_observations(self):
        # Hidden ids may only appear in feedback if the policy surfaced them
        # first (submitted them) or a search returned them as candidates.
        from qgp.actions import observation_to_dict
        import json

        for seed in range(40):
            record, valid_ids, _ = _random_run(seed)
            surfaced: set[str] = set()
            for action, obs in record.ledger.history:
                if type(action).__name__ == "Submit":
                    surfaced.update(i.strip() for i in action.ids)
                if isinstance(obs, SearchResults):
                    surfaced.update(c.artifact_id for c in obs.candidates)
                    continue  # results themselves surface candidates
                text = json.dumps(observation_to_dict(obs))
                for hidden in valid_ids - surfaced:
                    assert hidden not in text
