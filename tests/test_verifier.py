"""Retrieval verdicts, remaining counts, and coupling with the run ledger."""

from __future__ import annotations

import json
import random

from qgp.actions import Family, Submit
from qgp.core import RunLedger, TaskSpec, record_submission, run_episode
from qgp.controllers import StandardController
from qgp.reposcan import ReposcanEnvironment
from qgp.verifier import IdVerdict, judge_ids

from synth import tiny_corpus


def _judge(ledger: RunLedger, members, ids):
    """Judge against the ledger's submissions and fold, as ReposcanEnvironment does."""
    return record_submission(ledger, judge_ids(frozenset(members), ledger.submissions, ids))


class TestJudgeIds:
    def test_accept_and_reject(self):
        verdicts = judge_ids({"x"}, set(), ["x", "y"])
        assert verdicts == [("x", IdVerdict.ACCEPT_NEW), ("y", IdVerdict.REJECT)]

    def test_idempotent_acceptance(self):
        ledger = RunLedger(target_count=5, budget=5)
        _judge(ledger, {"x"}, ["x"])
        verdicts = judge_ids({"x"}, ledger.submissions, ["x"])
        assert verdicts == [("x", IdVerdict.DUPLICATE)]
        _judge(ledger, {"x"}, ["x"])
        assert ledger.valid_ids == {"x"}

    def test_within_batch_repeat(self):
        verdicts = judge_ids({"x"}, set(), ["x", "x"])
        assert verdicts == [("x", IdVerdict.ACCEPT_NEW), ("x", IdVerdict.DUPLICATE)]

    def test_whitespace_trimmed_exact_match(self):
        verdicts = judge_ids({"Item#source"}, set(), ["  Item#source  ", "item#source"])
        assert verdicts[0] == ("Item#source", IdVerdict.ACCEPT_NEW)  # trimmed
        assert verdicts[1][1] == IdVerdict.REJECT  # no case folding

    def test_pure_function_of_its_inputs(self):
        members = frozenset({"x"})
        submitted = {"y"}
        first = judge_ids(members, submitted, ["x", "y", "z"])
        assert judge_ids(members, submitted, ["x", "y", "z"]) == first
        assert members == {"x"} and submitted == {"y"}

    def test_permutation_invariance(self):
        rng = random.Random(3)
        universe = [f"a{i}" for i in range(10)]
        members = set(rng.sample(universe, 4))
        multiset = [rng.choice(universe) for _ in range(25)]
        baseline = None
        for _ in range(10):
            order = list(multiset)
            rng.shuffle(order)
            ledger = RunLedger(target_count=10, budget=10)
            _judge(ledger, members, order)
            if baseline is None:
                baseline = set(ledger.valid_ids)
            assert ledger.valid_ids == baseline

    def test_leak_freedom(self):
        members = frozenset(f"secret{i}" for i in range(30))
        verdicts = judge_ids(members, set(), ["secret1", "nope"])
        text = json.dumps([(i, v.value) for i, v in verdicts])
        for member in members - {"secret1"}:
            assert member not in text


class TestSnapshot:
    """Remaining-count arithmetic, as the ledger and its feedback report it."""

    def test_remaining(self):
        ledger = RunLedger(target_count=50, budget=5)
        fb = _judge(ledger, {f"v{i}" for i in range(60)}, [f"v{i}" for i in range(38)])
        assert fb.valid_count == ledger.valid_count == 38
        assert fb.remaining == ledger.remaining == 12

    def test_zero_progress(self):
        ledger = RunLedger(target_count=10, budget=5)
        assert ledger.remaining == 10
        fb = _judge(ledger, {"a"}, [])
        assert fb.remaining == 10

    def test_clamped_at_zero(self):
        ledger = RunLedger(target_count=10, budget=5)
        fb = _judge(ledger, {f"v{i}" for i in range(12)}, [f"v{i}" for i in range(12)])
        assert fb.valid_count == 12
        assert fb.remaining == ledger.remaining == 0


class TestLedgerCoupling:
    def test_accepted_size_tracks_ledger_valid_count(self):
        rng = random.Random(11)
        corpus = tiny_corpus(valid=4, total=12)
        valid_ids = list(corpus.ids[:4])
        all_ids = list(corpus.ids)
        task = TaskSpec(
            task_id="couple",
            family=Family.REPOSCAN,
            objective_text="zeta : couple",
            target_count=20,
            budget=15,
            seed=0,
        )

        class Submitter:
            label = "submitter"

            def decide(self, view, history):
                return Submit(ids=tuple(rng.choice(all_ids) for _ in range(3)))

        env = ReposcanEnvironment(task, corpus, valid_ids)
        ledger = RunLedger(target_count=task.target_count, budget=task.budget)
        policy = Submitter()
        view = env.public_view()
        submitted: set[str] = set()
        for _ in range(task.budget):
            action = policy.decide(view, ledger.history)
            obs = env.execute(action, ledger)
            ledger.history.append((action, obs))
            submitted.update(action.ids)
            # Oracle: distinct support of everything submitted, within the valid set.
            assert ledger.valid_ids == submitted & set(valid_ids)

    def test_full_episode_coupling(self):
        corpus = tiny_corpus(valid=3)
        valid_ids = list(corpus.ids[:3])
        task = TaskSpec(
            task_id="couple2",
            family=Family.REPOSCAN,
            objective_text="zeta : couple",
            target_count=3,
            budget=30,
            seed=0,
        )
        env = ReposcanEnvironment(task, corpus, valid_ids)
        from qgp.policies import GreedyOraclePolicy

        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert record.ledger.valid_ids == set(valid_ids)
        assert record.ledger.valid_count == 3
