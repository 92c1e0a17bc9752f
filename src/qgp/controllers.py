"""Execution contracts between policy and environment.

Controllers never see hidden valid sets or checker expectations; they work
from proposed actions and the feedback already returned to the policy. Every
modification they make is logged as an intervention, stamped with its step by
`_intervention` alone, so assistance stays visible in the run record. Each
controller's docstring lists its rules in the order they apply; a rule whose
routed action equals the proposal changes nothing, and the next rule runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .actions import (
    Action,
    AskUser,
    ControllerNotice,
    Edit,
    Final,
    Inspect,
    Observation,
    RunCheck,
    Search,
    SearchResults,
    Submit,
    SubmitFeedback,
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
)
from .core import RunContext, StepDecision, objective_queries
from .errors import ConfigurationError
from .verifier import IdVerdict, judge_ids, normalize_id


class ControllerKind(str, Enum):
    STANDARD = "standard"
    VERIFIER_GATED = "verifier_gated"
    STATE_QGP = "state_qgp"
    UNIT_QGP = "unit_qgp"
    ABLATION = "ablation"


class AblationFlag(str, Enum):
    DEDUPE_ONLY = "dedupe_only"
    PAGE_MEMORY_ONLY = "page_memory_only"
    DEDUPE_PLUS_PAGE_NO_BUFFER = "dedupe_plus_page_no_buffer"


class InterventionKind(str, Enum):
    BLOCKED_TERMINATION = "blocked_termination"
    DEDUP_FILTERED = "dedup_filtered"
    PAGE_ADVANCED = "page_advanced"
    REPAIRED_TO_SEARCH = "repaired_to_search"
    STEERED_TO_UNIT = "steered_to_unit"
    ROUTED_TO_CHECK = "routed_to_check"
    ROUTED_TO_SUBMIT = "routed_to_submit"
    NO_PROGRESS_STOP = "no_progress_stop"


@dataclass
class Intervention:
    step: int
    kind: InterventionKind
    detail: str


@dataclass(frozen=True)
class ControllerConfig:
    kind: ControllerKind
    ablation_flags: AblationFlag | None = None
    # k: the backlog controller steers after k steps without progress and
    # stops routing after 2k. The one declaration of its default.
    no_progress_limit: int = 6

    def __post_init__(self) -> None:
        if self.kind == ControllerKind.ABLATION and self.ablation_flags is None:
            raise ConfigurationError("ablation controller requires ablation_flags")
        if self.kind != ControllerKind.ABLATION and self.ablation_flags is not None:
            raise ConfigurationError(
                f"ablation flag {AblationFlag(self.ablation_flags).value} "
                f"needs the ablation controller, not {ControllerKind(self.kind).value}"
            )
        if self.no_progress_limit < 1:
            raise ConfigurationError("no_progress_limit must be >= 1")

    @property
    def label(self) -> str:
        """The controller's record label, e.g. `state_qgp` or `ablation:dedupe_only`."""
        if self.ablation_flags is not None:
            return _ablation_label(self.ablation_flags)
        return ControllerKind(self.kind).value


def _ablation_label(flag: AblationFlag) -> str:
    return f"{ControllerKind.ABLATION.value}:{AblationFlag(flag).value}"


def _intervention(ctx: RunContext, kind: InterventionKind, detail: str) -> list[Intervention]:
    """A decision's interventions when one rule changed this step's proposal."""
    return [Intervention(step=ctx.step, kind=kind, detail=detail)]


def _blocked_termination(action: Action, ctx: RunContext) -> StepDecision | None:
    """The notice and its intervention for a Final/AskUser while the count
    invariant is unmet, else None."""
    valid_count, target_count = ctx.valid_count, ctx.target_count
    if not isinstance(action, (Final, AskUser)) or valid_count >= target_count:
        return None
    remaining = target_count - valid_count
    reason = f"termination blocked: target not met, {remaining} of {target_count} still required"
    notice = ControllerNotice(reason=reason, valid_count=valid_count, remaining=remaining)
    blocked = _intervention(ctx, InterventionKind.BLOCKED_TERMINATION, reason)
    return StepDecision(notice=notice, interventions=blocked)


# ---------------------------------------------------------------------------
# Retrieval controllers: one feature table over StateQgpController
# ---------------------------------------------------------------------------


class Features(NamedTuple):
    gate: bool
    dedupe: bool
    page_memory: bool
    buffered_submit: bool


# Each retrieval controller label is one row. `standard` forwards every
# well-formed action unchanged; the ablations never gate termination.
CONTROLLER_FEATURES: dict[str, Features] = {
    ControllerKind.STANDARD.value: Features(False, False, False, False),
    ControllerKind.VERIFIER_GATED.value: Features(True, False, False, False),
    ControllerKind.STATE_QGP.value: Features(True, True, True, True),
    _ablation_label(AblationFlag.DEDUPE_ONLY): Features(False, True, False, False),
    _ablation_label(AblationFlag.PAGE_MEMORY_ONLY): Features(False, False, True, False),
    _ablation_label(AblationFlag.DEDUPE_PLUS_PAGE_NO_BUFFER): Features(False, True, True, False),
}


@dataclass
class StateQgpState:
    submitted_ids: set[str] = field(default_factory=set)
    seen_pages: set[tuple[str, int]] = field(default_factory=set)
    last_query: str | None = None
    # Ordered set: search-result ids seen but not yet submitted.
    candidate_buffer: dict[str, None] = field(default_factory=dict)

    def next_page(self, query: str) -> int:
        page = 0
        while (query, page) in self.seen_pages:
            page += 1
        return page


class StateQgpController:
    """Retrieval persistence, in rule order: gate termination; advance a seen
    search page; drop already-submitted and repeated ids from a submission
    and, when none is left, submit buffered candidates, else repair to a
    search, else forward the empty submission.

    Every retrieval controller is this class with its row of
    CONTROLLER_FEATURES switched on. The state is kept whatever the row, so
    rows differ only in what they forward; `observe` is the one place it
    learns which pages were seen and which ids were submitted.
    """

    kind_label = ControllerKind.STATE_QGP.value

    def __init__(self, label: str | None = None) -> None:
        self.kind_label = label or self.kind_label
        self.gate, self.dedupe, self.page_memory, self.buffered_submit = CONTROLLER_FEATURES[
            self.kind_label
        ]
        self.state = StateQgpState()

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        if self.gate and (blocked := _blocked_termination(action, ctx)) is not None:
            return blocked
        state = self.state
        if isinstance(action, Search):
            state.last_query = action.query
            if not (self.page_memory and (action.query, action.page) in state.seen_pages):
                return StepDecision(action)
            page = state.next_page(action.query)
            detail = f"seen page {action.page} of {action.query!r} advanced to {page}"
            advanced = _intervention(ctx, InterventionKind.PAGE_ADVANCED, detail)
            return StepDecision(Search(action.query, page), interventions=advanced)
        if not (self.dedupe and isinstance(action, Submit)):
            return StepDecision(action)

        # The verifier's repeat rule, against what was submitted before.
        verdicts = judge_ids(frozenset(), state.submitted_ids, action.ids)
        filtered = [raw for raw, (_, v) in zip(action.ids, verdicts) if v != IdVerdict.DUPLICATE]
        deduped = InterventionKind.DEDUP_FILTERED
        # Nothing is left: substitute buffered candidates, else search.
        if not filtered and self.buffered_submit and state.candidate_buffer:
            batch = tuple(state.candidate_buffer)[: ctx.page_size]
            detail = f"fully duplicate submission replaced with {len(batch)} buffered candidates"
            substituted = _intervention(ctx, deduped, detail)
            return StepDecision(Submit(ids=batch), interventions=substituted)
        if not filtered and self.page_memory:
            query = state.last_query or objective_queries(ctx.objective_text)[0]
            state.last_query = query
            page = state.next_page(query)
            detail = f"empty submission repaired to search {query!r} page {page}"
            repaired = _intervention(ctx, InterventionKind.REPAIRED_TO_SEARCH, detail)
            return StepDecision(Search(query=query, page=page), interventions=repaired)
        dropped = len(action.ids) - len(filtered)
        detail = (
            f"filtered {dropped} already-submitted or repeated ids"
            if filtered
            else "all ids were duplicates; forwarding empty submission"
        )
        logged = _intervention(ctx, deduped, detail) if dropped else []
        return StepDecision(Submit(ids=tuple(filtered)), interventions=logged)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        if isinstance(observation, SearchResults):
            self.state.seen_pages.add((observation.query, observation.page))
            for candidate in observation.candidates:
                key = normalize_id(candidate.artifact_id)
                if key not in self.state.submitted_ids:
                    self.state.candidate_buffer.setdefault(key, None)
        elif isinstance(observation, SubmitFeedback) and isinstance(action, Submit):
            # The keys the verifier judged, so the memory holds what the ledger holds.
            for key in observation.accepted + observation.rejected + observation.duplicates:
                self.state.submitted_ids.add(key)
                self.state.candidate_buffer.pop(key, None)


class StandardController(StateQgpController):
    """The passthrough contract: every feature off."""

    kind_label = ControllerKind.STANDARD.value


class VerifierGatedController(StateQgpController):
    """Termination gating only."""

    kind_label = ControllerKind.VERIFIER_GATED.value


# ---------------------------------------------------------------------------
# Backlog work-unit controller
# ---------------------------------------------------------------------------


@dataclass
class UnitQgpState:
    """Everything the backlog controller has learnt of one run."""

    unit_status_view: dict[str, UnitStatus] = field(default_factory=dict)
    steps_without_progress: int = 0
    # The unit just edited and not passed: the next action must check it.
    pending_check: str | None = None
    # unit -> step of its first observed pass, until submitted or duplicate.
    awaiting_submit: dict[str, int] = field(default_factory=dict)
    last_proposal: Action | None = None
    stopped: bool = False  # routing is off for good


class UnitQgpController:
    """Backlog persistence, in rule order: gate termination, always; after 2k
    steps without progress, stop routing for good; else replace the proposal
    by the first routing rule (`_routes`) whose action differs from it: check
    the unit just edited, submit a unit that passed two or more steps ago,
    and after k steps without progress steer a stale proposal (an `Inspect`
    or a repeat) to the first open unit.
    """

    kind_label = ControllerKind.UNIT_QGP.value

    def __init__(self, no_progress_limit: int = ControllerConfig.no_progress_limit) -> None:
        self.k = no_progress_limit
        self.state = UnitQgpState()

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        state = self.state
        previous, state.last_proposal = state.last_proposal, action
        # Gating is unconditional while the target is unmet, even after the
        # controller has stopped repairing a stalled run.
        if (blocked := _blocked_termination(action, ctx)) is not None:
            return blocked
        if state.stopped:
            return StepDecision(action)
        if state.steps_without_progress >= 2 * self.k:
            state.stopped = True
            stop = InterventionKind.NO_PROGRESS_STOP
            detail = f"no progress for {2 * self.k} steps; routing disabled, budget will exhaust"
            return StepDecision(action, interventions=_intervention(ctx, stop, detail))
        for routed, kind, detail in self._routes(action, previous, ctx):
            if routed != action:
                return StepDecision(routed, interventions=_intervention(ctx, kind, detail))
        return StepDecision(action)

    def _routes(
        self, action: Action, previous: Action | None, ctx: RunContext
    ) -> Iterator[tuple[Action, InterventionKind, str]]:
        """The routing rules that apply, in order, as (action, kind, detail)."""
        state = self.state
        check, state.pending_check = state.pending_check, None
        if check is not None:
            detail = f"post-edit action routed to checker for {check}"
            yield RunCheck(unit_id=check), InterventionKind.ROUTED_TO_CHECK, detail
        awaiting = state.awaiting_submit
        for unit_id in ctx.unit_order if awaiting else ():
            if unit_id in awaiting and ctx.step - awaiting[unit_id] >= 2:
                detail = f"passed unit {unit_id} routed to submission"
                yield SubmitUnit(unit_id=unit_id), InterventionKind.ROUTED_TO_SUBMIT, detail
                break
        stalled = state.steps_without_progress >= self.k
        if stalled and (isinstance(action, Inspect) or action == previous):
            for unit_id in ctx.unit_order:
                if state.unit_status_view.get(unit_id) != UnitStatus.PASSED:
                    detail = f"stalled policy steered to first open unit {unit_id}"
                    yield Inspect(unit_id=unit_id), InterventionKind.STEERED_TO_UNIT, detail
                    break

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        state = self.state
        progressed = False
        if isinstance(observation, UnitFeedback):
            unit_id, status = observation.unit_id, observation.status_after
            passed = status == UnitStatus.PASSED
            first_pass = passed and state.unit_status_view.get(unit_id) != UnitStatus.PASSED
            state.unit_status_view[unit_id] = status
            if isinstance(action, Edit) and not passed:
                state.pending_check = unit_id
            if isinstance(action, RunCheck) and first_pass:
                progressed = True
                state.awaiting_submit[unit_id] = ctx.step
        elif isinstance(observation, SubmitFeedback):
            progressed = bool(observation.accepted)
            for unit_id in observation.accepted + observation.duplicates:
                state.awaiting_submit.pop(unit_id, None)
        state.steps_without_progress = 0 if progressed else state.steps_without_progress + 1


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def build_controller(config: ControllerConfig):
    if config.kind == ControllerKind.UNIT_QGP:
        return UnitQgpController(no_progress_limit=config.no_progress_limit)
    return StateQgpController(config.label)
