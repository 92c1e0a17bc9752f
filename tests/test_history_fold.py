"""Incremental history folds against the from-scratch derivations they replaced.

`_derive_unit_traces` and the greedy oracle's and the duplicator's `decide`,
which rebuilt their state from the whole history on every step, are kept
here verbatim as references, and so are the solver's and the looper's
`decide`, which scanned the backlog from its first unit. At every prefix of
recorded solver, looper, greedy and duplicator histories, grown in place as
`run_episode` grows them, the incremental fold must equal the fold from
scratch and the policy must decide as the reference does.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from qgp import policies
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
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
    Verdict,
)
from qgp.controllers import ControllerConfig, ControllerKind, build_controller
from qgp.core import objective_queries, run_episode
from qgp.dataops import DataopsEnvironment
from qgp.policies import (
    DuplicatorPolicy,
    GreedyOraclePolicy,
    HistoryFold,
    NoSubmitLooperPolicy,
    SolverPolicy,
    _fold_unit_trace,
    _next_work_action,
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


def reference_backlog_decide(submits, view, history):
    """The solver's decision when `submits`, else the looper's: the first
    unit's need, scanning the backlog from its first unit."""
    traces = reference_derive_unit_traces(view, history)
    for unit in view.units:
        trace = traces[unit.unit_id]
        if submits and trace.status == UnitStatus.PASSED and not trace.accepted:
            return SubmitUnit(unit_id=unit.unit_id)
        action = _next_work_action(unit, trace)
        if action is not None:
            return action
    if submits:
        done = sum(1 for t in traces.values() if t.accepted)
        return Final(completion_claim=True, reported_count=done)
    return Inspect(unit_id=view.units[0].unit_id)


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
    for token in objective_queries(view.objective_text):
        if token in exhausted:
            continue
        searched = pages.get(token)
        next_page = max(searched) + 1 if searched else 0
        return Search(query=token, page=next_page)
    return AskUser(message="all objective queries are exhausted")


def reference_duplicator_decide(view, history):
    searches = [obs for _, obs in history if isinstance(obs, SearchResults)]
    if not searches:
        return Search(query=objective_queries(view.objective_text)[0], page=0)
    if not any(isinstance(a, Submit) for a, _ in history):
        latest = searches[-1]
        if not latest.candidates:
            return Search(query=latest.query, page=latest.page + 1)
        return Submit(ids=tuple(c.artifact_id for c in latest.candidates))
    for _, obs in history:
        if isinstance(obs, SubmitFeedback) and obs.accepted:
            return Submit(ids=(obs.accepted[0],))
    for results in searches:
        if results.candidates:
            return Submit(ids=(results.candidates[0].artifact_id,))
    return Search(query=searches[-1].query, page=searches[-1].page + 1)


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
                env = DataopsEnvironment(task.spec, task.units, task.workspace)
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


@pytest.fixture(scope="module")
def duplicator_histories(reposcan_loaded):
    manifest, corpora = reposcan_loaded
    runs = []
    for task in manifest.tasks:
        for kind in (*_REPOSCAN_CONTROLLERS, ControllerKind.VERIFIER_GATED):
            env = ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)
            record = _record(task, env, kind, DuplicatorPolicy())
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
                accepted = sum(1 for t in expected.values() if t.accepted)
                for policy in (solver, looper):
                    # The accepted count is what the solver's Final reports.
                    assert policy._fold(view, grown) == expected
                    assert policy._fold(view, grown).accepted == accepted
                # The policies decide on the folded state, from their cursors,
                # as a scan from the first unit on a fresh fold does.
                for policy, submits in ((solver, True), (looper, False)):
                    decision = policy.decide(view, grown, 0)
                    assert decision == reference_backlog_decide(submits, view, grown)
            longest = max(longest, len(history))
        assert longest == 160

    def test_cursor_moves_back_to_a_unit_that_passes(self, backlog_histories):
        # On two units: unit 0 is abandoned after its one repair, so the
        # solver moves on to unit 1; then a check that unit_qgp routed to
        # unit 0 passes it. The solver submits it, abandons unit 1 and
        # reports the one accepted unit.
        view, _ = backlog_histories[0]
        view = dataclasses.replace(view, units=view.units[:2])
        first, second = (u.unit_id for u in view.units)

        def feedback(unit_id, verdict=Verdict.FAIL, status=UnitStatus.ATTEMPTED):
            return UnitFeedback(unit_id=unit_id, verdict=verdict, detail="d", status_after=status)

        accepted = SubmitFeedback(
            accepted=(first,), rejected=(), duplicates=(), valid_count=1, remaining=1
        )
        entries = [
            (Inspect(unit_id=first), feedback(first, Verdict.PASS, UnitStatus.PENDING)),
            (RunCheck(unit_id=first), feedback(first)),
            (Edit(unit_id=first, payload="{}"), feedback(first)),
            (RunCheck(unit_id=first), feedback(first)),
            (Inspect(unit_id=second), feedback(second, Verdict.PASS, UnitStatus.PENDING)),
            (RunCheck(unit_id=first), feedback(first, Verdict.PASS, UnitStatus.PASSED)),
            (SubmitUnit(unit_id=first), accepted),
            (RunCheck(unit_id=second), feedback(second)),
            (Edit(unit_id=second, payload="{}"), feedback(second)),
            (RunCheck(unit_id=second), feedback(second)),
        ]
        policy = SolverPolicy()
        decisions, cursors = [], []
        for grown in _grow(entries):
            decisions.append(policy.decide(view, grown, 0))
            assert decisions[-1] == reference_backlog_decide(True, view, grown)
            cursors.append(policy._fold(view, grown).cursor)
        assert decisions[4:] == [
            Inspect(unit_id=second),
            RunCheck(unit_id=second),
            SubmitUnit(unit_id=first),
            RunCheck(unit_id=second),
            Edit(unit_id=second, payload=decisions[8].payload),
            RunCheck(unit_id=second),
            Final(completion_claim=True, reported_count=1),
        ]
        assert cursors == [0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2]

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
        token = objective_queries(view.objective_text)[0]
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

    def test_duplicator_decisions_at_every_prefix(self, duplicator_histories):
        steps = 0
        for view, history in duplicator_histories:
            policy = DuplicatorPolicy()
            for grown in _grow(history):
                assert policy.decide(view, grown, 0) == reference_duplicator_decide(view, grown)
                assert policy._fold(view, grown) == DuplicatorPolicy()._fold(view, grown)
            steps += len(history)
        assert steps > 300

    def test_duplicator_without_acceptances(self, duplicator_histories):
        # Empty pages first, then pages whose submissions are all rejected:
        # every branch of the reference, prefix by prefix.
        view, _ = duplicator_histories[0]
        rejected = SubmitFeedback(
            accepted=(), rejected=("y", "z"), duplicates=(), valid_count=0, remaining=3
        )
        entries = [
            (Search(query="q", page=0), SearchResults(query="q", page=0, candidates=())),
            (Search(query="q", page=1), SearchResults(query="q", page=1, candidates=())),
            (Submit(ids=("x",)), rejected),
            (Search(query="q", page=2), SearchResults(query="q", page=2, candidates=())),
            (
                Search(query="r", page=0),
                SearchResults(query="r", page=0, candidates=(Candidate("y", ""), Candidate("z", ""))),
            ),
            (Submit(ids=("y",)), rejected),
            (
                Search(query="r", page=1),
                SearchResults(query="r", page=1, candidates=(Candidate("w", ""),)),
            ),
        ]
        policy = DuplicatorPolicy()
        decisions = []
        for grown in _grow(entries):
            decisions.append(policy.decide(view, grown, 0))
            assert decisions[-1] == reference_duplicator_decide(view, grown)
        assert decisions[:4] == [Search(query=objective_queries(view.objective_text)[0], page=0)] + [
            Search(query="q", page=p) for p in (1, 2, 2)
        ]
        assert decisions[4:] == [Search(query="q", page=3)] + [Submit(ids=("y",))] * 3

    def test_each_entry_folded_once(self, dataops_loaded):
        task = max(dataops_loaded.tasks, key=lambda t: t.spec.budget)
        folded = []

        def counting_step(traces, action, obs):
            folded.append(len(folded))
            _fold_unit_trace(traces, action, obs)

        policy = NoSubmitLooperPolicy()
        policy._fold = HistoryFold(partial(_start_unit_traces, policy.label), counting_step)
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        record = _record(task, env, ControllerKind.STANDARD, policy)
        assert record.ledger.step == task.spec.budget == 160
        # The last decision saw 159 entries; each was folded exactly once.
        assert len(folded) == len(record.ledger.history) - 1 == 159

    def test_a_finished_backlog_is_not_scanned_again(self, dataops_loaded, monkeypatch):
        # The looper finishes its backlog early, then inspects the first
        # unit until the budget runs out. That inspection changes no trace,
        # so no unit's need is asked again: each ask either gives the step's
        # action or moves the cursor past a unit, at most once per unit here.
        task = max(dataops_loaded.tasks, key=lambda t: t.spec.budget)
        asked = []

        def counting_need(unit, trace):
            asked.append(unit.unit_id)
            return _next_work_action(unit, trace)

        monkeypatch.setattr(policies, "_next_work_action", counting_need)
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        record = _record(task, env, ControllerKind.STANDARD, NoSubmitLooperPolicy())
        units = len(task.units)
        assert record.ledger.step == task.spec.budget == 160
        idle = Inspect(unit_id=task.units[0].unit_id)
        idle_steps = sum(1 for action, _ in record.ledger.history if action == idle)
        # A scan from the first unit on every idle step would ask
        # idle_steps × units times.
        assert idle_steps * units > 5 * (record.ledger.step + units)
        assert len(asked) <= record.ledger.step + units


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
        return HistoryFold(partial(_start_unit_traces, "solver"), _fold_unit_trace)

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
