"""Incremental history folds against the from-scratch derivations they replaced.

`_derive_unit_traces` and the greedy oracle's `decide`, which rebuilt their
state from the whole history on every step, are kept here verbatim as
references. At every prefix of recorded solver, looper and greedy histories,
grown in place as `run_episode` grows them, the incremental fold must equal
the fold from scratch and the policy must decide as the reference does.
"""

from __future__ import annotations

import dataclasses

import pytest

from qgp.actions import (
    AskUser,
    Candidate,
    Edit,
    Final,
    Inspect,
    RunCheck,
    Search,
    SearchResults,
    Submit,
    SubmitFeedback,
    UnitFeedback,
    UnitStatus,
    Verdict,
)
from qgp.controllers import ControllerConfig, ControllerKind, build_controller
from qgp.core import run_episode
from qgp.dataops import DataopsEnvironment
from qgp.policies import (
    GreedyOraclePolicy,
    HistoryFold,
    NoSubmitLooperPolicy,
    SolverPolicy,
    _fold_unit_trace,
    _objective_tokens,
    _start_unit_traces,
    _UnitTrace,
)
from qgp.reposcan import ReposcanEnvironment

# ---------------------------------------------------------------------------
# References: the from-scratch derivations
# ---------------------------------------------------------------------------


def reference_derive_unit_traces(view, history):
    assert view.units is not None
    traces = {u.unit_id: _UnitTrace() for u in view.units}
    for action, obs in history:
        if isinstance(obs, UnitFeedback) and obs.unit_id in traces:
            trace = traces[obs.unit_id]
            trace.status = obs.status_after
            if isinstance(action, Inspect):
                trace.inspected = True
            elif isinstance(action, Edit):
                trace.edits += 1
                trace.checks_since_change = 0
            elif isinstance(action, RunCheck):
                trace.checks_since_change += 1
                if obs.verdict == Verdict.FAIL:
                    trace.last_fail_detail = obs.detail
        elif isinstance(obs, SubmitFeedback):
            for unit_id in list(obs.accepted) + list(obs.duplicates):
                if unit_id in traces:
                    traces[unit_id].accepted = True
    return traces


def reference_greedy_decide(submit_batch, view, history):
    last_feedback = None
    for _, obs in reversed(history):
        if isinstance(obs, SubmitFeedback):
            last_feedback = obs
            break
    if last_feedback is not None and last_feedback.remaining == 0:
        return Final(completion_claim=True, reported_count=last_feedback.valid_count)

    seen: dict[str, None] = {}
    pages: dict[str, set[int]] = {}
    exhausted: set[str] = set()
    submitted: set[str] = set()
    for action, obs in history:
        if isinstance(obs, SearchResults):
            pages.setdefault(obs.query, set()).add(obs.page)
            if not obs.candidates:
                exhausted.add(obs.query)
            for candidate in obs.candidates:
                seen.setdefault(candidate.artifact_id, None)
        if isinstance(action, Submit):
            submitted.update(action.ids)
    pending = [cid for cid in seen if cid not in submitted]
    if pending:
        return Submit(ids=tuple(pending[:submit_batch]))
    for token in _objective_tokens(view):
        if token in exhausted:
            continue
        searched = pages.get(token)
        next_page = max(searched) + 1 if searched else 0
        return Search(query=token, page=next_page)
    return AskUser(message="all objective queries are exhausted")


# ---------------------------------------------------------------------------
# Recorded histories
# ---------------------------------------------------------------------------

_DATAOPS_CONTROLLERS = (
    ControllerKind.STANDARD,
    ControllerKind.VERIFIER_GATED,
    ControllerKind.UNIT_QGP,
)
_REPOSCAN_CONTROLLERS = (ControllerKind.STANDARD, ControllerKind.STATE_QGP)


def _record(task, env, kind, policy):
    return run_episode(task.spec, env, build_controller(ControllerConfig(kind=kind)), policy)


@pytest.fixture(scope="module")
def backlog_histories(dataops_loaded):
    """(view, history) of solver and looper runs, one task per budget."""
    by_budget = {}
    for task in dataops_loaded.tasks:
        by_budget.setdefault(task.spec.budget, task)
    runs = []
    for task in by_budget.values():
        for kind in _DATAOPS_CONTROLLERS:
            for policy in (SolverPolicy(), NoSubmitLooperPolicy()):
                env = DataopsEnvironment(task.spec, task.units, task.files)
                record = _record(task, env, kind, policy)
                runs.append((env.public_view(), record.ledger.history))
    return runs


@pytest.fixture(scope="module")
def greedy_histories(reposcan_loaded):
    manifest, corpora = reposcan_loaded
    runs = []
    for task in manifest.tasks:
        for kind in _REPOSCAN_CONTROLLERS:
            env = ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)
            record = _record(task, env, kind, GreedyOraclePolicy())
            runs.append((env.public_view(), record.ledger.history))
    return runs


def _grow(history):
    """Yield one list, grown in place, at every prefix of `history`."""
    grown: list = []
    yield grown
    for entry in history:
        grown.append(entry)
        yield grown


# ---------------------------------------------------------------------------
# Equivalence at every prefix
# ---------------------------------------------------------------------------


class TestFoldEquivalence:
    def test_backlog_traces_at_every_prefix(self, backlog_histories):
        longest = 0
        for view, history in backlog_histories:
            solver, looper = SolverPolicy(), NoSubmitLooperPolicy()
            for grown in _grow(history):
                expected = reference_derive_unit_traces(view, grown)
                assert solver._fold(view, grown) == expected
                assert looper._fold(view, grown) == expected
                # The policies decide on the folded state as they would on a
                # fresh policy, which folds from scratch.
                for policy, fresh in ((solver, SolverPolicy()), (looper, NoSubmitLooperPolicy())):
                    assert policy.decide(view, grown, 0) == fresh.decide(view, grown, 0)
            longest = max(longest, len(history))
        assert longest == 160

    def test_greedy_decisions_at_every_prefix(self, greedy_histories):
        steps = 0
        for view, history in greedy_histories:
            policy = GreedyOraclePolicy()
            for grown in _grow(history):
                assert policy.decide(view, grown, 0) == reference_greedy_decide(10, view, grown)
                state, fresh = policy._fold(view, grown), GreedyOraclePolicy()._fold(view, grown)
                assert state == fresh and list(state.pending) == list(fresh.pending)
            steps += len(history)
        assert steps > 300

    def test_greedy_pages_out_of_order(self, greedy_histories):
        # Pages arrive out of order and below zero, with a candidate already
        # submitted; the next page is still one past the highest searched.
        view, _ = greedy_histories[0]
        token = _objective_tokens(view)[0]
        policy = GreedyOraclePolicy()
        feedback = SubmitFeedback(
            accepted=(), rejected=("z",), duplicates=(), valid_count=0, remaining=3
        )
        grown: list = [(Submit(ids=("z",)), feedback)]
        for page in (-5, 3, 1, 3, -1):
            obs = SearchResults(query=token, page=page, candidates=(Candidate("z", ""),))
            grown.append((Search(query=token, page=page), obs))
            decision = policy.decide(view, grown, 0)
            assert decision == reference_greedy_decide(10, view, grown)
        assert decision == Search(query=token, page=4)

    def test_each_entry_folded_once(self, dataops_loaded):
        task = max(dataops_loaded.tasks, key=lambda t: t.spec.budget)
        folded = []

        def counting_step(traces, action, obs):
            folded.append(len(folded))
            _fold_unit_trace(traces, action, obs)

        policy = NoSubmitLooperPolicy()
        policy._fold = HistoryFold(_start_unit_traces, counting_step)
        env = DataopsEnvironment(task.spec, task.units, task.files)
        record = _record(task, env, ControllerKind.STANDARD, policy)
        assert record.ledger.step == task.spec.budget == 160
        # The last decision saw 159 entries; each was folded exactly once.
        assert len(folded) == len(record.ledger.history) - 1 == 159


# ---------------------------------------------------------------------------
# Starting over
# ---------------------------------------------------------------------------


def _failed_edit(unit_id):
    feedback = UnitFeedback(
        unit_id=unit_id, verdict=Verdict.FAIL, detail="x", status_after=UnitStatus.ATTEMPTED
    )
    return (Edit(unit_id=unit_id, payload="{}"), feedback)


class TestFoldResets:
    def _fold(self):
        return HistoryFold(_start_unit_traces, _fold_unit_trace)

    def test_new_history_object(self, backlog_histories):
        (view, first), (_, second) = backlog_histories[0], backlog_histories[1]
        fold = self._fold()
        fold(view, list(first))
        assert fold(view, list(second)) == reference_derive_unit_traces(view, second)
        # Equal contents in a new list also start over, from the same result.
        assert fold(view, list(second)) == reference_derive_unit_traces(view, second)
        # A new list that keeps the last folded entry but not the first.
        third = [_failed_edit(view.units[1].unit_id)] + list(second[1:])
        fold(view, second)
        assert fold(view, third) == reference_derive_unit_traces(view, third)

    def test_shortened_history(self, backlog_histories):
        view, history = backlog_histories[0]
        fold = self._fold()
        grown = list(history)
        fold(view, grown)
        del grown[len(grown) // 2 :]
        assert fold(view, grown) == reference_derive_unit_traces(view, grown)
        del grown[:]
        assert fold(view, grown) == reference_derive_unit_traces(view, [])

    @pytest.mark.parametrize("extend", [False, True])
    def test_replaced_last_entry(self, backlog_histories, extend):
        view, history = backlog_histories[0]
        fold = self._fold()
        grown = list(history[:6])
        fold(view, grown)
        grown[-1] = _failed_edit(view.units[0].unit_id)
        if extend:
            grown.append(history[6])
        assert fold(view, grown) == reference_derive_unit_traces(view, grown)

    def test_new_view(self, backlog_histories):
        view, history = backlog_histories[0]
        fold = self._fold()
        fold(view, history)
        narrower = dataclasses.replace(view, units=view.units[:1])
        assert fold(narrower, history) == reference_derive_unit_traces(narrower, history)
