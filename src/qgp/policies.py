"""Scripted deterministic policies plus the external subprocess adapter.

Scripted policies are pure functions of the public task view and the step
history, so identical (task, seed) inputs replay identical action sequences.
Each one reproduces a specific behavior: duplicate resubmission, premature
stopping, unsupported completion claims, no-submit work loops, redundant
searching, or a straightforward greedy/solver baseline.

The greedy, solver and looper policies memoise what they derive from the
history in a `HistoryFold`, which folds each new entry once and starts over
whenever the history is not the one it has folded, so a decision still
equals one made from the whole history and a run costs O(budget), not
O(budget²).
"""

from __future__ import annotations

import inspect
import json
import os
import re
import select
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice
from typing import Callable, Generic, Sequence, TypeVar

from .actions import (
    Action,
    AskUser,
    Edit,
    Family,
    Final,
    Inspect,
    Malformed,
    RunCheck,
    Search,
    SearchResults,
    Submit,
    SubmitFeedback,
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
    Verdict,
    action_from_dict,
    observation_to_dict,
)
from .core import PublicTaskView, UnitPublicView
from .errors import AdapterError, ConfigurationError

History = Sequence[tuple[object, object]]


class PolicyKind(str, Enum):
    DUPLICATOR = "duplicator"
    EARLY_STOPPER = "early_stopper"
    FALSE_COMPLETER = "false_completer"
    NO_SUBMIT_LOOPER = "no_submit_looper"
    GREEDY_ORACLE = "greedy_oracle"
    SOLVER = "solver"
    REDUNDANT_SEARCHER = "redundant_searcher"
    EXTERNAL = "external"


# ---------------------------------------------------------------------------
# History derivation helpers
# ---------------------------------------------------------------------------


def _objective_tokens(view: PublicTaskView) -> list[str]:
    return [t for t in view.objective_text.lower().split() if len(t) >= 2]


def _first_token(view: PublicTaskView) -> str:
    tokens = _objective_tokens(view)
    return tokens[0] if tokens else "artifact"


def _latest_search(history: History) -> SearchResults | None:
    for _, obs in reversed(history):
        if isinstance(obs, SearchResults):
            return obs
    return None


S = TypeVar("S")


class HistoryFold(Generic[S]):
    """A left fold over a run's history, advanced by the entries added since
    the last call.

    `start(view)` builds the empty state and `step(state, action, obs)` folds
    one entry into it in place. The fold starts over when the view or the
    history is another object, when the history is shorter than what was
    folded, or when the last folded entry is no longer the same object, so
    the state always equals a fold of the whole history from scratch.
    Callers read the state and do not change it.
    """

    def __init__(
        self,
        start: Callable[[PublicTaskView], S],
        step: Callable[[S, object, object], None],
    ) -> None:
        self._start = start
        self._step = step
        self._view: PublicTaskView | None = None
        self._history: History | None = None
        self._folded = 0
        self._last: object = None
        self._state: S | None = None

    def __call__(self, view: PublicTaskView, history: History) -> S:
        folded = self._folded
        if (
            view is not self._view
            or history is not self._history
            or len(history) < folded
            or (folded and history[folded - 1] is not self._last)
        ):
            self._view, self._history = view, history
            self._state = self._start(view)
            folded = 0
        state = self._state
        for action, obs in islice(history, folded, None):
            self._step(state, action, obs)
        self._folded = len(history)
        self._last = history[-1] if history else None
        return state


def _fold_field(start, step):
    """A per-policy `HistoryFold`, left out of the policy's repr and equality."""
    return field(
        default_factory=lambda: HistoryFold(start, step), init=False, repr=False, compare=False
    )


def _filler_action(view: PublicTaskView) -> Action:
    if Family(view.family) == Family.REPOSCAN:
        return Search(query=_first_token(view), page=0)
    assert view.units
    return Inspect(unit_id=view.units[0].unit_id)


# ---------------------------------------------------------------------------
# Retrieval policies
# ---------------------------------------------------------------------------


@dataclass
class DuplicatorPolicy:
    """Submits one full result page, then fixates on resubmitting one id."""

    label: str = PolicyKind.DUPLICATOR.value

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        searches = [obs for _, obs in history if isinstance(obs, SearchResults)]
        if not searches:
            return Search(query=_first_token(view), page=0)
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


@dataclass
class EarlyStopperPolicy:
    """Asks the user long before the target could be met."""

    stop_step: int = 1
    label: str = PolicyKind.EARLY_STOPPER.value

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        if len(history) + 1 >= self.stop_step:
            return AskUser(message="I have made some progress; should I continue?")
        return _filler_action(view)


@dataclass
class FalseCompleterPolicy:
    """Claims completion at a fixed step regardless of verified progress."""

    final_step: int = 3
    claim_count: int | None = None
    label: str = PolicyKind.FALSE_COMPLETER.value

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        if len(history) + 1 >= self.final_step:
            reported = self.claim_count if self.claim_count is not None else view.target_count
            return Final(completion_claim=True, reported_count=reported)
        return _filler_action(view)


@dataclass
class _SearchState:
    # Candidate ids seen and not yet submitted, in first-seen order.
    pending: dict[str, None] = field(default_factory=dict)
    submitted: set[str] = field(default_factory=set)
    # Highest page searched per query, and the queries whose last page was empty.
    last_page: dict[str, int] = field(default_factory=dict)
    exhausted: set[str] = field(default_factory=set)
    last_feedback: SubmitFeedback | None = None


def _fold_search(state: _SearchState, action: object, obs: object) -> None:
    if isinstance(obs, SearchResults):
        top = state.last_page.get(obs.query)
        if top is None or obs.page > top:
            state.last_page[obs.query] = obs.page
        if not obs.candidates:
            state.exhausted.add(obs.query)
        for candidate in obs.candidates:
            # A pending id keeps its place; a submitted one never returns.
            if candidate.artifact_id not in state.submitted:
                state.pending[candidate.artifact_id] = None
    elif isinstance(obs, SubmitFeedback):
        state.last_feedback = obs
    if isinstance(action, Submit):
        state.submitted.update(action.ids)
        for cid in action.ids:
            state.pending.pop(cid, None)


@dataclass
class GreedyOraclePolicy:
    """Searches objective tokens in order with ascending pages and submits
    every unseen candidate; finals only once the verifier reports zero
    remaining."""

    submit_batch: int = 10
    label: str = PolicyKind.GREEDY_ORACLE.value
    _fold: HistoryFold[_SearchState] = _fold_field(lambda view: _SearchState(), _fold_search)

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        state = self._fold(view, history)
        last_feedback = state.last_feedback
        if last_feedback is not None and last_feedback.remaining == 0:
            return Final(completion_claim=True, reported_count=last_feedback.valid_count)
        if state.pending:
            return Submit(ids=tuple(islice(state.pending, self.submit_batch)))
        for token in _objective_tokens(view):
            if token in state.exhausted:
                continue
            top = state.last_page.get(token)
            return Search(query=token, page=0 if top is None else top + 1)
        return AskUser(message="all objective queries are exhausted")


@dataclass
class RedundantSearcherPolicy:
    """Re-searches page zero and resubmits a small candidate prefix, modelling
    a policy that neither remembers pages nor what it already submitted."""

    submit_width: int = 3
    submits_per_search: int = 3
    label: str = PolicyKind.REDUNDANT_SEARCHER.value

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        token = _first_token(view)
        cycle = 1 + self.submits_per_search
        if len(history) % cycle == 0:
            return Search(query=token, page=0)
        latest = _latest_search(history)
        if latest is None:
            return Search(query=token, page=0)
        return Submit(ids=tuple(c.artifact_id for c in latest.candidates[: self.submit_width]))


# ---------------------------------------------------------------------------
# Backlog policies
# ---------------------------------------------------------------------------


@dataclass
class _UnitTrace:
    status: UnitStatus = UnitStatus.PENDING
    inspected: bool = False
    edits: int = 0
    checks_since_change: int = 0
    last_fail_detail: str = ""
    accepted: bool = False


def _start_unit_traces(label: str, view: PublicTaskView) -> dict[str, _UnitTrace]:
    if view.units is None:
        raise ConfigurationError(
            f"policy {label} works through backlog units; {view.family.value} tasks have none"
        )
    return {u.unit_id: _UnitTrace() for u in view.units}


def _fold_unit_trace(traces: dict[str, _UnitTrace], action: object, obs: object) -> None:
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


_QUOTED = re.compile(r'"([^"]*)"')


def derive_edit_payload(unit: UnitPublicView, fail_detail: str) -> str:
    """Build a repair payload from the public prompt plus the last diagnostic."""
    prompt_quotes = _QUOTED.findall(unit.prompt)
    detail_quotes = _QUOTED.findall(fail_detail)
    if unit.kind in ("csv_field_check", "csv_count_check"):
        column = prompt_quotes[0] if prompt_quotes else ""
        row_key = prompt_quotes[1] if len(prompt_quotes) > 1 else ""
        value = detail_quotes[0] if detail_quotes else ""
        return json.dumps({"row_key": row_key, "column": column, "value": value})
    if unit.kind == "metadata_repair":
        key = prompt_quotes[0] if prompt_quotes else ""
        value = detail_quotes[1] if len(detail_quotes) > 1 else ""
        return json.dumps({"key": key, "value": value})
    if unit.kind == "consistency_answer":
        return prompt_quotes[-1] if prompt_quotes else ""
    return ""


def _next_work_action(unit: UnitPublicView, trace: _UnitTrace) -> Action | None:
    """One work step for this unit, or None when done or given up."""
    if trace.status == UnitStatus.PASSED:
        return None
    if not trace.inspected:
        return Inspect(unit_id=unit.unit_id)
    if trace.checks_since_change == 0:
        return RunCheck(unit_id=unit.unit_id)
    if trace.edits == 0:
        payload = derive_edit_payload(unit, trace.last_fail_detail)
        return Edit(unit_id=unit.unit_id, payload=payload)
    # One repair attempt per unit; a still-failing unit is abandoned.
    return None


@dataclass
class SolverPolicy:
    """Inspect, check, repair if needed, recheck, submit; unit by unit."""

    label: str = PolicyKind.SOLVER.value
    _fold: HistoryFold[dict[str, _UnitTrace]] = _fold_field(
        partial(_start_unit_traces, PolicyKind.SOLVER.value), _fold_unit_trace
    )

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        traces = self._fold(view, history)
        for unit in view.units:
            trace = traces[unit.unit_id]
            if trace.status == UnitStatus.PASSED and not trace.accepted:
                return SubmitUnit(unit_id=unit.unit_id)
            action = _next_work_action(unit, trace)
            if action is not None:
                return action
        done = sum(1 for t in traces.values() if t.accepted)
        return Final(completion_claim=True, reported_count=done)


@dataclass
class NoSubmitLooperPolicy:
    """Does the work but never submits anything, then loops on inspection.

    With loop_unit set the policy degenerates to a pure stall: it inspects
    that one unit on every step and never works at all.
    """

    loop_unit: str | None = None
    label: str = PolicyKind.NO_SUBMIT_LOOPER.value
    _fold: HistoryFold[dict[str, _UnitTrace]] = _fold_field(
        partial(_start_unit_traces, PolicyKind.NO_SUBMIT_LOOPER.value), _fold_unit_trace
    )

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action:
        if self.loop_unit is not None:
            return Inspect(unit_id=self.loop_unit)
        traces = self._fold(view, history)
        for unit in view.units:
            action = _next_work_action(unit, traces[unit.unit_id])
            if action is not None:
                return action
        return Inspect(unit_id=view.units[0].unit_id)


# ---------------------------------------------------------------------------
# External subprocess adapter
# ---------------------------------------------------------------------------


@dataclass
class ExternalAdapterPolicy:
    """Line-delimited protocol: one request record out, one action record back.

    The adapter's stdout is read as bytes on the calling thread, and each
    reply is the bytes up to a newline, decoded on its own. Replies carry no
    step number, so a reply that misses its step's timeout is still owed; it
    is read and dropped before the reply to a later step.
    """

    command: list[str]
    timeout: float = 30.0
    label: str = PolicyKind.EXTERNAL.value
    _process: subprocess.Popen | None = field(default=None, repr=False)
    _poll: select.poll | None = field(default=None, init=False, repr=False)
    _buffer: bytearray = field(default_factory=bytearray, init=False, repr=False)
    _owed: int = field(default=0, init=False, repr=False)

    def _ensure_started(self) -> None:
        if self._process is not None:
            return
        try:
            self._process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise AdapterError(f"could not launch adapter {self.command!r}: {exc}") from exc
        # poll, not select: select cannot wait on a descriptor >= 1024.
        self._poll = select.poll()
        self._poll.register(self._process.stdout, select.POLLIN)

    def _read_line(self, deadline: float) -> bytearray | None:
        """The next reply without its newline, or None once `deadline` passes."""
        while b"\n" not in self._buffer:
            wait = deadline - time.monotonic()
            if wait <= 0 or not self._poll.poll(wait * 1000):
                return None
            chunk = os.read(self._process.stdout.fileno(), 65536)
            if not chunk:
                cut = " in the middle of a line" if self._buffer else ""
                raise AdapterError(f"adapter closed its output stream{cut}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def decide(self, view: PublicTaskView, history: History, seed: int) -> Action | Malformed:
        self._ensure_started()
        request = {
            "task_id": view.task_id,
            "family": Family(view.family).value,
            "objective": view.objective_text,
            "target_count": view.target_count,
            "budget_remaining": view.budget - len(history),
            "step": len(history) + 1,
            "last_observation": observation_to_dict(history[-1][1]) if history else None,
        }
        try:
            self._process.stdin.write(json.dumps(request).encode() + b"\n")
            self._process.stdin.flush()
        except OSError as exc:
            raise AdapterError(f"adapter pipe closed: {exc}") from exc
        deadline = time.monotonic() + self.timeout
        while True:
            line = self._read_line(deadline)
            if line is None:
                self._owed += 1
                return Malformed(raw="", reason="adapter_timeout")
            if not self._owed:
                break
            self._owed -= 1
        try:
            return action_from_dict(json.loads(line.decode("utf-8").strip()))
        except Exception:
            return Malformed(raw=line.decode("utf-8", "replace").strip())

    def close(self) -> None:
        if self._process is None:
            return
        process, self._process = self._process, None
        try:
            process.stdin.close()
            process.terminate()
            process.wait(timeout=5)
        except Exception:
            process.kill()
            process.wait()
        process.stdout.close()


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def _external_policy(command=None, timeout=30.0) -> ExternalAdapterPolicy:
    if not command:
        raise ConfigurationError("external policy requires a command")
    if isinstance(command, str):
        command = shlex.split(command)
    timeout = float(timeout)
    # False for nan as well. A day is well inside one poll's limit of about 24.8 days.
    if not 0 < timeout <= 86400:
        message = f"adapter timeout must be more than 0 and at most 86400 seconds, got {timeout:g}"
        raise ConfigurationError(message)
    return ExternalAdapterPolicy(command=list(command), timeout=timeout)


# Each policy's builder. Its keyword parameters are the ones the policy
# takes, and `build_policy` refuses any other.
POLICY_BUILDERS: dict[PolicyKind, Callable[..., object]] = {
    PolicyKind.DUPLICATOR: lambda: DuplicatorPolicy(),
    PolicyKind.EARLY_STOPPER: lambda stop_step=1: EarlyStopperPolicy(int(stop_step)),
    PolicyKind.FALSE_COMPLETER: lambda final_step=3, claim_count=None: FalseCompleterPolicy(
        int(final_step), None if claim_count is None else int(claim_count)
    ),
    PolicyKind.NO_SUBMIT_LOOPER: lambda loop_unit=None: NoSubmitLooperPolicy(loop_unit),
    PolicyKind.GREEDY_ORACLE: lambda: GreedyOraclePolicy(),
    PolicyKind.SOLVER: lambda: SolverPolicy(),
    PolicyKind.REDUNDANT_SEARCHER: lambda submit_width=3, submits_per_search=3: (
        RedundantSearcherPolicy(int(submit_width), int(submits_per_search))
    ),
    PolicyKind.EXTERNAL: _external_policy,
}


def build_policy(kind: PolicyKind | str, **params):
    kind = PolicyKind(kind)
    builder = POLICY_BUILDERS[kind]
    unknown = sorted(set(params) - set(inspect.signature(builder).parameters))
    if unknown:
        raise ConfigurationError(f"policy {kind.value} does not take {', '.join(unknown)}")
    return builder(**params)
