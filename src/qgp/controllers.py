"""Execution contracts between policy and environment.

Controllers never see hidden valid sets or checker expectations; they work
from proposed actions and the feedback already returned to the policy. Every
modification they make is logged as an intervention, so assistance stays
visible in the run record.
"""

from __future__ import annotations

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
from .verifier import normalize_id


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


def gate_termination(
    action: Action, valid_count: int, target_count: int
) -> Action | ControllerNotice:
    """Block Final/AskUser while the count invariant is unmet."""
    if isinstance(action, (Final, AskUser)) and valid_count < target_count:
        remaining = target_count - valid_count
        return ControllerNotice(
            reason=(
                f"termination blocked: target not met, {remaining} of "
                f"{target_count} still required"
            ),
            valid_count=valid_count,
            remaining=remaining,
        )
    return action


def _blocked_termination(action: Action, ctx: RunContext) -> StepDecision | None:
    """The notice and its intervention for a blocked Final/AskUser, else None."""
    gated = gate_termination(action, ctx.valid_count, ctx.target_count)
    if not isinstance(gated, ControllerNotice):
        return None
    iv = Intervention(
        step=ctx.step, kind=InterventionKind.BLOCKED_TERMINATION, detail=gated.reason
    )
    return StepDecision(notice=gated, interventions=[iv])


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
    """Retrieval persistence state: dedupe, page memory, buffered repair, gating.

    Every retrieval controller is this class with its row of
    CONTROLLER_FEATURES switched on. The state is kept whatever the row, so
    rows differ only in what they forward.
    """

    kind_label = ControllerKind.STATE_QGP.value

    def __init__(self, label: str | None = None) -> None:
        self.kind_label = label or self.kind_label
        self.gate, self.dedupe, self.page_memory, self.buffered_submit = CONTROLLER_FEATURES[
            self.kind_label
        ]
        self.state = StateQgpState()

    # -- helpers ----------------------------------------------------------

    def _fallback_query(self, ctx: RunContext) -> str:
        if self.state.last_query:
            return self.state.last_query
        return objective_queries(ctx.objective_text)[0]

    def _repair_to_search(self, ctx: RunContext, ivs: list[Intervention]) -> StepDecision:
        query = self._fallback_query(ctx)
        page = self.state.next_page(query)
        ivs.append(
            Intervention(
                step=ctx.step,
                kind=InterventionKind.REPAIRED_TO_SEARCH,
                detail=f"empty submission repaired to search {query!r} page {page}",
            )
        )
        self.state.last_query = query
        return StepDecision(action=Search(query=query, page=page), interventions=ivs)

    # -- contract ----------------------------------------------------------

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        if self.gate and (blocked := _blocked_termination(action, ctx)) is not None:
            return blocked
        ivs: list[Intervention] = []

        if isinstance(action, Search):
            self.state.last_query = action.query
            if self.page_memory and (action.query, action.page) in self.state.seen_pages:
                page = self.state.next_page(action.query)
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.PAGE_ADVANCED,
                        detail=(
                            f"seen page {action.page} of {action.query!r} advanced to {page}"
                        ),
                    )
                )
                return StepDecision(action=Search(action.query, page), interventions=ivs)
            return StepDecision(action=action)

        if isinstance(action, Submit) and self.dedupe:
            filtered: list[str] = []
            batch_keys: set[str] = set()
            for raw in action.ids:
                key = normalize_id(raw)
                if key in self.state.submitted_ids or key in batch_keys:
                    continue
                batch_keys.add(key)
                filtered.append(raw)
            if filtered:
                forwarded = Submit(ids=tuple(filtered))
                if forwarded.ids != action.ids:
                    dropped = len(action.ids) - len(filtered)
                    ivs.append(
                        Intervention(
                            step=ctx.step,
                            kind=InterventionKind.DEDUP_FILTERED,
                            detail=f"filtered {dropped} already-submitted or repeated ids",
                        )
                    )
                return StepDecision(action=forwarded, interventions=ivs)
            # Everything was filtered out: substitute buffered candidates, else search.
            if self.buffered_submit and self.state.candidate_buffer:
                batch = list(self.state.candidate_buffer)[: ctx.page_size]
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.DEDUP_FILTERED,
                        detail=(
                            f"fully duplicate submission replaced with {len(batch)} "
                            f"buffered candidates"
                        ),
                    )
                )
                return StepDecision(action=Submit(ids=tuple(batch)), interventions=ivs)
            if self.page_memory:
                return self._repair_to_search(ctx, ivs)
            if tuple(filtered) != action.ids:
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.DEDUP_FILTERED,
                        detail="all ids were duplicates; forwarding empty submission",
                    )
                )
            return StepDecision(action=Submit(ids=()), interventions=ivs)

        return StepDecision(action=action)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        if isinstance(observation, SearchResults):
            self.state.seen_pages.add((observation.query, observation.page))
            for candidate in observation.candidates:
                key = normalize_id(candidate.artifact_id)
                if key not in self.state.submitted_ids:
                    self.state.candidate_buffer.setdefault(key, None)
        elif isinstance(observation, SubmitFeedback) and isinstance(action, Submit):
            # The one place the state learns what was submitted, in every row.
            self.state.submitted_ids.update(normalize_id(i) for i in action.ids)
            for raw in action.ids:
                self.state.candidate_buffer.pop(normalize_id(raw), None)


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
    unit_status_view: dict[str, UnitStatus] = field(default_factory=dict)
    steps_without_progress: int = 0


class UnitQgpController:
    """Backlog persistence: route edits to checks, passes to submits, stalls to
    pending units; give up routing (but never gating) after a long stall."""

    def __init__(self, no_progress_limit: int = 6) -> None:
        self.kind_label = ControllerKind.UNIT_QGP.value
        self.k = no_progress_limit
        self.state = UnitQgpState()
        self.pending_check: str | None = None
        # unit -> step at which a pass was observed without a submit yet
        self.awaiting_submit: dict[str, int] = {}
        self.accepted_units: set[str] = set()
        self.last_proposal: Action | None = None
        self.stopped = False

    def _status(self, unit_id: str) -> UnitStatus:
        return self.state.unit_status_view.get(unit_id, UnitStatus.PENDING)

    def _first_open_unit(self, ctx: RunContext) -> str | None:
        for unit_id in ctx.unit_order:
            if self._status(unit_id) != UnitStatus.PASSED:
                return unit_id
        return None

    def _due_submit(self, ctx: RunContext) -> str | None:
        if not self.awaiting_submit:
            return None
        for unit_id in ctx.unit_order:
            observed = self.awaiting_submit.get(unit_id)
            if observed is not None and ctx.step - observed >= 2:
                return unit_id
        return None

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        proposal = action
        # Gating is unconditional while the target is unmet, even after the
        # controller has stopped repairing a stalled run.
        blocked = _blocked_termination(action, ctx)
        if blocked is not None:
            self.last_proposal = proposal
            return blocked
        ivs: list[Intervention] = []

        if not self.stopped and self.state.steps_without_progress >= 2 * self.k:
            self.stopped = True
            ivs.append(
                Intervention(
                    step=ctx.step,
                    kind=InterventionKind.NO_PROGRESS_STOP,
                    detail=(
                        f"no progress for {2 * self.k} steps; "
                        f"routing disabled, budget will exhaust"
                    ),
                )
            )
        if self.stopped:
            self.last_proposal = proposal
            return StepDecision(action=action, interventions=ivs)

        rewritten: Action | None = None
        if self.pending_check is not None:
            unit = self.pending_check
            self.pending_check = None
            if not (isinstance(action, RunCheck) and action.unit_id == unit):
                rewritten = RunCheck(unit_id=unit)
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.ROUTED_TO_CHECK,
                        detail=f"post-edit action routed to checker for {unit}",
                    )
                )
        if rewritten is None:
            due = self._due_submit(ctx)
            if due is not None and not (
                isinstance(action, SubmitUnit) and action.unit_id == due
            ):
                rewritten = SubmitUnit(unit_id=due)
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.ROUTED_TO_SUBMIT,
                        detail=f"passed unit {due} routed to submission",
                    )
                )
        if rewritten is None and self.state.steps_without_progress >= self.k:
            stale = isinstance(action, Inspect) or action == self.last_proposal
            target = self._first_open_unit(ctx)
            if stale and target is not None:
                candidate = Inspect(unit_id=target)
                if candidate != action:
                    rewritten = candidate
                    ivs.append(
                        Intervention(
                            step=ctx.step,
                            kind=InterventionKind.STEERED_TO_UNIT,
                            detail=f"stalled policy steered to first open unit {target}",
                        )
                    )
        self.last_proposal = proposal
        return StepDecision(action=rewritten or action, interventions=ivs)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        progressed = False
        if isinstance(observation, UnitFeedback):
            unit_id = observation.unit_id
            previous = self._status(unit_id)
            self.state.unit_status_view[unit_id] = observation.status_after
            if isinstance(action, Edit) and observation.status_after != UnitStatus.PASSED:
                # The next policy action must run this unit's checker.
                self.pending_check = unit_id
            if (
                isinstance(action, RunCheck)
                and observation.status_after == UnitStatus.PASSED
                and previous != UnitStatus.PASSED
            ):
                progressed = True
                if unit_id not in self.accepted_units:
                    self.awaiting_submit.setdefault(unit_id, ctx.step)
        elif isinstance(observation, SubmitFeedback):
            if observation.accepted:
                progressed = True
                for unit_id in observation.accepted:
                    self.accepted_units.add(unit_id)
                    self.awaiting_submit.pop(unit_id, None)
            for unit_id in observation.duplicates:
                self.awaiting_submit.pop(unit_id, None)
        if progressed:
            self.state.steps_without_progress = 0
        else:
            self.state.steps_without_progress += 1


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def build_controller(config: ControllerConfig):
    if config.kind == ControllerKind.UNIT_QGP:
        return UnitQgpController(no_progress_limit=config.no_progress_limit)
    return StateQgpController(config.label)
