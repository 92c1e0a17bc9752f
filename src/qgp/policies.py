"""Scripted deterministic policies plus the external subprocess adapter.

Scripted policies are pure functions of the public task view and the step
history that draw no random number, so the same task and history replay the
same action sequence. Each one reproduces a specific behavior: duplicate
resubmission, premature stopping, unsupported completion claims, no-submit
work loops, redundant searching, or a straightforward greedy/solver baseline.

The duplicator, greedy, solver and looper policies memoise what they
derive from the history in a `HistoryFold`, which folds each new entry once
and starts over whenever the history is not the one it has folded, so a
decision still equals one made from the whole history.

The solver and the looper also keep a cursor over the backlog's units: the
index of the first unit that may still need work. A folded entry that
changes a unit's trace moves the cursor back to that unit, and `decide`
starts at the cursor and moves it past each unit that needs nothing. A
unit's need depends on its own trace alone, so this decides as a scan from
the first unit does, and a backlog decision costs O(1) in the number of
units, amortised, instead of O(units).
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, islice
from typing import Callable, ClassVar, Generic, Sequence, TypeVar

from .actions import (
    ADAPTER_REQUESTS,
    Action,
    AdapterCommand,
    AdapterRequest,
    AskUser,
    Edit,
    Family,
    Final,
    Inspect,
    Malformed,
    RunCheck,
    Schema,
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
from .core import PublicTaskView, UnitPublicView, objective_queries
from .dataops import UNIT_KINDS
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
    Callers read the state and do not change it, except that a backlog
    policy's `decide` moves the cursor of its `_Backlog` forward past units
    that need nothing.
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
        return Search(query=objective_queries(view.objective_text)[0], page=0)
    assert view.units
    return Inspect(unit_id=view.units[0].unit_id)


# ---------------------------------------------------------------------------
# Retrieval policies
# ---------------------------------------------------------------------------


@dataclass
class _DuplicatorState:
    latest_search: SearchResults | None = None
    submitted: bool = False
    # The first id ever accepted, and the top candidate of the first
    # non-empty result page.
    first_accepted: str | None = None
    first_candidate: str | None = None


def _fold_duplicator(state: _DuplicatorState, action: object, obs: object) -> None:
    if isinstance(obs, SearchResults):
        state.latest_search = obs
        if state.first_candidate is None and obs.candidates:
            state.first_candidate = obs.candidates[0].artifact_id
    elif isinstance(obs, SubmitFeedback) and obs.accepted and state.first_accepted is None:
        state.first_accepted = obs.accepted[0]
    if isinstance(action, Submit):
        state.submitted = True


@dataclass
class DuplicatorPolicy:
    """Submits one full result page, then fixates on resubmitting one id."""

    label: ClassVar[str] = PolicyKind.DUPLICATOR.value
    _fold: HistoryFold[_DuplicatorState] = _fold_field(
        lambda view: _DuplicatorState(), _fold_duplicator
    )

    def decide(self, view: PublicTaskView, history: History) -> Action:
        state = self._fold(view, history)
        latest = state.latest_search
        if latest is None:
            return Search(query=objective_queries(view.objective_text)[0], page=0)
        if not state.submitted:
            if not latest.candidates:
                return Search(query=latest.query, page=latest.page + 1)
            return Submit(ids=tuple(c.artifact_id for c in latest.candidates))
        if state.first_accepted is not None:
            return Submit(ids=(state.first_accepted,))
        if state.first_candidate is not None:
            return Submit(ids=(state.first_candidate,))
        return Search(query=latest.query, page=latest.page + 1)


@dataclass
class EarlyStopperPolicy:
    """Asks the user long before the target could be met."""

    stop_step: int = 1
    label: ClassVar[str] = PolicyKind.EARLY_STOPPER.value

    def decide(self, view: PublicTaskView, history: History) -> Action:
        if len(history) + 1 >= self.stop_step:
            return AskUser(message="I have made some progress; should I continue?")
        return _filler_action(view)


@dataclass
class FalseCompleterPolicy:
    """Claims completion at a fixed step regardless of verified progress."""

    final_step: int = 3
    claim_count: int | None = None
    label: ClassVar[str] = PolicyKind.FALSE_COMPLETER.value

    def decide(self, view: PublicTaskView, history: History) -> Action:
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

    label: ClassVar[str] = PolicyKind.GREEDY_ORACLE.value
    submit_batch: ClassVar[int] = 10
    _fold: HistoryFold[_SearchState] = _fold_field(lambda view: _SearchState(), _fold_search)

    def decide(self, view: PublicTaskView, history: History) -> Action:
        state = self._fold(view, history)
        last_feedback = state.last_feedback
        if last_feedback is not None and last_feedback.remaining == 0:
            return Final(completion_claim=True, reported_count=last_feedback.valid_count)
        if state.pending:
            return Submit(ids=tuple(islice(state.pending, self.submit_batch)))
        for token in objective_queries(view.objective_text):
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
    label: ClassVar[str] = PolicyKind.REDUNDANT_SEARCHER.value

    def decide(self, view: PublicTaskView, history: History) -> Action:
        token = objective_queries(view.objective_text)[0]
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


class _Backlog(dict):
    """Unit traces by unit id, with a cursor over the view's units.

    `cursor` is the index of the first unit that may still need work: every
    unit before it needed nothing when `next_action` last passed it, and no
    folded entry has changed its trace since. `accepted` counts the units
    whose trace is accepted.
    """

    __slots__ = ("positions", "cursor", "accepted")

    def __init__(self, units: Sequence[UnitPublicView]) -> None:
        super().__init__((u.unit_id, _UnitTrace()) for u in units)
        # Unit ids are unique within a backlog; loading refuses a repeat.
        self.positions = {u.unit_id: i for i, u in enumerate(units)}
        self.cursor = 0
        self.accepted = 0

    def reopen(self, unit_id: str) -> None:
        """Move the cursor back to a unit whose trace changed."""
        position = self.positions[unit_id]
        if position < self.cursor:
            self.cursor = position

    def next_action(
        self,
        units: Sequence[UnitPublicView],
        need: Callable[[UnitPublicView, _UnitTrace], Action | None],
    ) -> Action | None:
        """The first action `need` answers for a unit from the cursor on,
        moving the cursor past each unit it answers None for; None when no
        unit needs anything."""
        while self.cursor < len(units):
            unit = units[self.cursor]
            action = need(unit, self[unit.unit_id])
            if action is not None:
                return action
            self.cursor += 1
        return None


def _start_unit_traces(label: str, view: PublicTaskView) -> _Backlog:
    if view.units is None:
        raise ConfigurationError(
            f"policy {label} works through backlog units; {view.family.value} tasks have none"
        )
    return _Backlog(view.units)


def _fold_unit_trace(backlog: _Backlog, action: object, obs: object) -> None:
    if isinstance(obs, UnitFeedback):
        trace = backlog.get(obs.unit_id)
        if trace is None:
            return
        changed = trace.status != obs.status_after
        trace.status = obs.status_after
        if isinstance(action, Inspect):
            changed = changed or not trace.inspected
            trace.inspected = True
        elif isinstance(action, Edit):
            changed = True
            trace.edits += 1
            trace.checks_since_change = 0
        elif isinstance(action, RunCheck):
            changed = True
            trace.checks_since_change += 1
            if obs.verdict == Verdict.FAIL:
                trace.last_fail_detail = obs.detail
        if changed:
            backlog.reopen(obs.unit_id)
    elif isinstance(obs, SubmitFeedback):
        for unit_id in chain(obs.accepted, obs.duplicates):
            trace = backlog.get(unit_id)
            if trace is not None and not trace.accepted:
                trace.accepted = True
                backlog.accepted += 1
                backlog.reopen(unit_id)


def _next_work_action(unit: UnitPublicView, trace: _UnitTrace) -> Action | None:
    """One work step for this unit, or None when done or given up."""
    if trace.status == UnitStatus.PASSED:
        return None
    if not trace.inspected:
        return Inspect(unit_id=unit.unit_id)
    if trace.checks_since_change == 0:
        return RunCheck(unit_id=unit.unit_id)
    if trace.edits == 0:
        payload = UNIT_KINDS[unit.kind].repair(unit.prompt, trace.last_fail_detail)
        return Edit(unit_id=unit.unit_id, payload=payload)
    # One repair attempt per unit; a still-failing unit is abandoned.
    return None


def _solver_need(unit: UnitPublicView, trace: _UnitTrace) -> Action | None:
    if trace.status == UnitStatus.PASSED and not trace.accepted:
        return SubmitUnit(unit_id=unit.unit_id)
    return _next_work_action(unit, trace)


@dataclass
class SolverPolicy:
    """Inspect, check, repair if needed, recheck, submit; unit by unit."""

    label: ClassVar[str] = PolicyKind.SOLVER.value
    _fold: HistoryFold[_Backlog] = _fold_field(
        partial(_start_unit_traces, PolicyKind.SOLVER.value), _fold_unit_trace
    )

    def decide(self, view: PublicTaskView, history: History) -> Action:
        backlog = self._fold(view, history)
        action = backlog.next_action(view.units, _solver_need)
        if action is not None:
            return action
        return Final(completion_claim=True, reported_count=backlog.accepted)


@dataclass
class NoSubmitLooperPolicy:
    """Does the work but never submits anything, then loops on inspection.

    With loop_unit set the policy degenerates to a pure stall: it inspects
    that one unit on every step and never works at all.
    """

    loop_unit: str | None = None
    label: ClassVar[str] = PolicyKind.NO_SUBMIT_LOOPER.value
    _fold: HistoryFold[_Backlog] = _fold_field(
        partial(_start_unit_traces, PolicyKind.NO_SUBMIT_LOOPER.value), _fold_unit_trace
    )

    def decide(self, view: PublicTaskView, history: History) -> Action:
        if self.loop_unit is not None:
            return Inspect(unit_id=self.loop_unit)
        action = self._fold(view, history).next_action(view.units, _next_work_action)
        if action is not None:
            return action
        return Inspect(unit_id=view.units[0].unit_id)


# ---------------------------------------------------------------------------
# External subprocess adapter
# ---------------------------------------------------------------------------


# The longest reply line read, in bytes without its newline. A longer one is
# one malformed step, and its bytes are dropped as they arrive.
MAX_REPLY_BYTES = 1 << 20
_READ_BYTES = 65536
_TOO_LONG = object()  # what `_read_line` returns for such a reply
# How long `close` waits for the adapter to exit after SIGTERM before killing it.
_EXIT_WAIT_SECONDS = 5.0


@dataclass
class ExternalAdapterPolicy:
    """Line-delimited protocol: one request record out, one action record back.

    The adapter's stdout is read as bytes on the calling thread, and each
    reply is the bytes up to a newline, decoded on its own. Replies carry no
    step number, so a reply that misses its step's timeout is still owed; it
    is read and dropped before the reply to a later step.
    """

    command: AdapterCommand
    timeout: float = 30.0
    label: ClassVar[str] = PolicyKind.EXTERNAL.value
    _process: subprocess.Popen | None = field(default=None, init=False, repr=False)
    _poll: object = field(default=None, init=False, repr=False)  # a `select.poll()`
    _buffer: bytearray = field(default_factory=bytearray, init=False, repr=False)
    _dropping: bool = field(default=False, init=False, repr=False)
    _owed: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.command, str):
            try:
                self.command = shlex.split(self.command)
            except ValueError as exc:  # such as an unclosed quote
                raise ConfigurationError(f"cannot split adapter command: {exc}") from None
        # False for nan as well. A day is well inside one poll's limit of about 24.8 days.
        if not 0 < self.timeout <= 86400:
            shown = f"{self.timeout:g}" if isinstance(self.timeout, float) else self.timeout
            message = f"adapter timeout must be more than 0 and at most 86400 seconds, got {shown}"
            raise ConfigurationError(message)
        self.timeout = float(self.timeout)

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

    def _read_line(self, deadline: float) -> bytearray | object | None:
        """The next reply without its newline, `_TOO_LONG` for one over
        MAX_REPLY_BYTES, or None once `deadline` passes.

        Each read's bytes are searched for a newline once. The buffer holds
        at most MAX_REPLY_BYTES plus one read: a reply found to be longer is
        reported at once, and the rest of it is dropped up to its newline,
        in this call or a later one.
        """
        buffer, start = self._buffer, 0
        while True:
            end = buffer.find(b"\n", start)
            if end >= 0:
                line = buffer[:end]
                del buffer[: end + 1]
                start = 0
                if self._dropping:  # the newline of an over-long reply
                    self._dropping = False
                    continue
                return _TOO_LONG if end > MAX_REPLY_BYTES else line
            if self._dropping or len(buffer) > MAX_REPLY_BYTES:
                buffer.clear()
                if not self._dropping:
                    self._dropping = True
                    return _TOO_LONG
            start = len(buffer)
            wait = deadline - time.monotonic()
            if wait <= 0 or not self._poll.poll(wait * 1000):
                return None
            chunk = os.read(self._process.stdout.fileno(), _READ_BYTES)
            if not chunk:
                cut = " in the middle of a line" if buffer or self._dropping else ""
                raise AdapterError(f"adapter closed its output stream{cut}")
            buffer += chunk

    def decide(self, view: PublicTaskView, history: History) -> Action | Malformed:
        self._ensure_started()
        request = AdapterRequest(
            task_id=view.task_id,
            family=Family(view.family),
            objective=view.objective_text,
            target_count=view.target_count,
            budget_remaining=view.budget - len(history),
            step=len(history) + 1,
            last_observation=observation_to_dict(history[-1][1]) if history else None,
        )
        try:
            self._process.stdin.write(json.dumps(ADAPTER_REQUESTS.encode(request)).encode() + b"\n")
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
        if line is _TOO_LONG:
            return Malformed(raw="", reason="reply_too_long")
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
            _wait_for_exit(process, _EXIT_WAIT_SECONDS)
        except Exception:
            process.kill()
            process.wait()
        process.stdout.close()


def _wait_for_exit(process: subprocess.Popen, timeout: float) -> None:
    """`process.wait(timeout=timeout)`, woken by the exit itself.

    `Popen.wait` with a timeout polls with growing sleeps, so it returns
    some milliseconds after the exit; a pidfd becomes readable at the exit.
    Without `os.pidfd_open`, or where it fails, `Popen.wait` is used.
    """
    try:
        pidfd = os.pidfd_open(process.pid)
    except (AttributeError, OSError):  # not on this platform or kernel
        process.wait(timeout=timeout)
        return
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(timeout * 1000):
            raise subprocess.TimeoutExpired(process.args, timeout)
    finally:
        os.close(pidfd)
    process.wait()  # reaps the exited process at once


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


# Each policy's class. Its parameters are its init fields, which `build_policy`
# reads with the field codec; a parameter left out takes the class default.
POLICY_TYPES: dict[PolicyKind, type] = {
    PolicyKind.DUPLICATOR: DuplicatorPolicy,
    PolicyKind.EARLY_STOPPER: EarlyStopperPolicy,
    PolicyKind.FALSE_COMPLETER: FalseCompleterPolicy,
    PolicyKind.NO_SUBMIT_LOOPER: NoSubmitLooperPolicy,
    PolicyKind.GREEDY_ORACLE: GreedyOraclePolicy,
    PolicyKind.SOLVER: SolverPolicy,
    PolicyKind.REDUNDANT_SEARCHER: RedundantSearcherPolicy,
    PolicyKind.EXTERNAL: ExternalAdapterPolicy,
}
_PARAMETERS = {kind: Schema(cls, ConfigurationError) for kind, cls in POLICY_TYPES.items()}


def build_policy(kind: PolicyKind | str, **params):
    kind = PolicyKind(kind)
    schema = _PARAMETERS[kind]
    unknown = sorted(params.keys() - {name for name, *_ in schema.plan})
    if unknown:
        raise ConfigurationError(f"policy {kind.value} does not take {', '.join(unknown)}")
    if kind == PolicyKind.EXTERNAL and not params.get("command"):
        raise ConfigurationError("external policy requires a command")
    return schema.decode(params, "policy parameter ")
