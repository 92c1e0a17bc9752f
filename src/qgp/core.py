"""Task model, run ledger, outcome classification, the execution loop, and
the manifest envelope.

Every run is one policy driving one environment through one controller until
the count goal is verified, an allowed termination happens, the budget is
exhausted, or the policy's adapter aborts. The ledger is the audit trail: a
multiset of submitted identifiers, the verified ids, and the full step
history. Each family's manifest file shares one envelope, read and written
here; the family reads and writes only its own payload.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence, TypeVar

from .actions import (
    FAMILY_ACTIONS,
    Action,
    AskUser,
    ControllerNotice,
    Family,
    Final,
    Malformed,
    Observation,
    Outcome,
    Schema,
    Seed,
    SubmitFeedback,
    Terminal,
)
from .errors import AdapterError, ConfigurationError, TerminatedRunError, loading
from .verifier import IdVerdict


@dataclass(frozen=True)
class TaskSpec:
    """A task's public fields. `seed` is derived at generation and carried in
    the manifest, but no rule reads it: the manifest fixes every run."""

    task_id: str
    family: Family
    objective_text: str
    target_count: int
    budget: int
    seed: Seed

    def __post_init__(self) -> None:
        if self.target_count < 1:
            raise ConfigurationError(f"target_count must be >= 1, got {self.target_count}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class UnitPublicView:
    """Policy-visible slice of a backlog unit; checker internals never appear here."""

    unit_id: str
    kind: str
    prompt: str
    artifact_path: str


_TASK_SPECS = Schema(TaskSpec)


def objective_queries(objective_text: str) -> list[str]:
    """What policies and controllers search for an objective, in order: its
    lowered words of two or more characters, else "artifact"."""
    return [t for t in objective_text.lower().split() if len(t) >= 2] or ["artifact"]


@dataclass(frozen=True)
class PublicTaskView:
    task_id: str
    family: Family
    objective_text: str
    target_count: int
    budget: int
    units: tuple[UnitPublicView, ...] | None = None

    @classmethod
    def of(cls, task: TaskSpec, units: Sequence | None = None) -> PublicTaskView:
        """What a policy sees of a task and, for a backlog, of its units."""
        if units is not None:
            units = tuple(
                UnitPublicView(u.unit_id, u.kind, u.prompt, u.artifact_path) for u in units
            )
        return cls(
            task_id=task.task_id,
            family=Family(task.family),
            objective_text=task.objective_text,
            target_count=task.target_count,
            budget=task.budget,
            units=units,
        )


@dataclass
class RunLedger:
    """Mutable per-run accounting: multiset of submissions, verified ids, step history.

    The distinct support of the submissions is ``set(submissions)``. Only
    ``record_submission`` changes the counts.
    """

    target_count: int
    budget: int
    step: int = 0
    submissions: Counter = field(default_factory=Counter)
    valid_ids: set[str] = field(default_factory=set)
    reported_count: int | None = None
    history: list[tuple[object, object]] = field(default_factory=list)
    outcome: Outcome | None = None
    duplicate_occurrences: int = 0

    @property
    def valid_count(self) -> int:
        return len(self.valid_ids)

    @property
    def submission_occurrences(self) -> int:
        return sum(self.submissions.values())

    @property
    def remaining(self) -> int:
        return max(0, self.target_count - self.valid_count)


def record_submission(
    ledger: RunLedger, verdicts: Sequence[tuple[str, IdVerdict]]
) -> SubmitFeedback:
    """Fold one judged batch into the ledger and build its feedback.

    Each (normalized id, verdict) pair is one submission occurrence. The
    family's rule has already decided every verdict; this fold only counts.
    """
    if ledger.outcome is not None:
        raise TerminatedRunError("run already terminated")
    split: dict[IdVerdict, list[str]] = {
        IdVerdict.ACCEPT_NEW: [], IdVerdict.REJECT: [], IdVerdict.DUPLICATE: []
    }
    for key, verdict in verdicts:
        ledger.submissions[key] += 1
        split[verdict].append(key)
    ledger.valid_ids.update(split[IdVerdict.ACCEPT_NEW])
    ledger.duplicate_occurrences += len(split[IdVerdict.DUPLICATE])
    return SubmitFeedback(
        accepted=tuple(split[IdVerdict.ACCEPT_NEW]),
        rejected=tuple(split[IdVerdict.REJECT]),
        duplicates=tuple(split[IdVerdict.DUPLICATE]),
        valid_count=ledger.valid_count,
        remaining=ledger.remaining,
    )


def reported_count_error(reported: int, valid: int, target_count: int) -> float:
    return abs(reported - valid) / max(1, target_count)


def classify_termination(ledger: RunLedger, terminating: object = None) -> Outcome:
    """Outcome from verifier state alone; the claim text never decides success.

    `terminating` is the Final or AskUser that ended the run, or None when
    the budget ran out. A run with nothing remaining succeeded either way.
    """
    if ledger.remaining == 0:
        return Outcome.SUCCESS
    if terminating is None:
        return Outcome.BUDGET_EXHAUSTED
    if isinstance(terminating, Final) and terminating.completion_claim:
        return Outcome.FALSE_COMPLETION
    if isinstance(terminating, (Final, AskUser)):
        return Outcome.PREMATURE_STOP
    raise ConfigurationError(f"not a terminating marker: {terminating!r}")


# ---------------------------------------------------------------------------
# Execution loop plumbing
# ---------------------------------------------------------------------------


class RunContext(NamedTuple):
    """Step-scoped facts a controller may consult; never the hidden valid set.

    `run_episode` builds one per step, after the policy decides, and passes
    the same one to `transform` and `observe`; `valid_count` is the count
    before the step's action runs. A tuple, so a controller cannot change it.
    """

    step: int
    valid_count: int
    target_count: int
    objective_text: str
    page_size: int
    unit_order: tuple[str, ...] = ()


class StepDecision(NamedTuple):
    """What a controller did with one proposed action: the action to execute,
    or the notice that answers the proposal instead, and the interventions
    it made, in order. `run_episode` unpacks it in this field order."""

    action: Action | None = None
    notice: ControllerNotice | None = None
    interventions: Sequence = ()


class Controller(Protocol):
    kind_label: str

    def transform(self, action: Action, ctx: RunContext) -> StepDecision: ...

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None: ...


class Environment(Protocol):
    family: Family
    page_size: int

    def public_view(self) -> PublicTaskView: ...

    def execute(self, action: Action, ledger: RunLedger) -> Observation: ...


class Policy(Protocol):
    label: str

    def decide(
        self, view: PublicTaskView, history: Sequence[tuple[object, object]]
    ) -> Action | Malformed: ...


@dataclass
class RunRecord:
    task: TaskSpec
    controller: str
    policy: str
    ledger: RunLedger
    interventions: list = field(default_factory=list)
    abort_reason: str | None = None

    @property
    def outcome(self) -> Outcome:
        assert self.ledger.outcome is not None
        return self.ledger.outcome


def _notice(reason: str, ledger: RunLedger) -> ControllerNotice:
    return ControllerNotice(
        reason=reason, valid_count=ledger.valid_count, remaining=ledger.remaining
    )


def run_episode(
    task: TaskSpec,
    environment: Environment,
    controller: Controller,
    policy: Policy,
) -> RunRecord:
    """Drive one run to a classified outcome; this is the only place a run ends.

    Every policy decision consumes exactly one budget step, including decisions
    that were malformed, blocked, or repaired by the controller. Completion is
    checked after each step's feedback is applied, so reaching the target on
    the final budgeted step still counts as success. An adapter that fails
    before its decision arrives aborts the run: that step is not counted, and
    the record keeps the ledger as the verifier left it and the reason.
    """
    family = Family(task.family)
    if Family(environment.family) != family:
        raise ConfigurationError(
            f"environment family {environment.family} does not match task {task.family}"
        )
    legal = FAMILY_ACTIONS[family]
    view = environment.public_view()
    page_size = environment.page_size
    ledger = RunLedger(target_count=task.target_count, budget=task.budget)
    interventions: list = []
    abort_reason = None
    unit_order = tuple(u.unit_id for u in view.units) if view.units else ()
    budget, target_count, objective_text = task.budget, task.target_count, task.objective_text
    history, valid_ids = ledger.history, ledger.valid_ids

    while ledger.step < budget:
        try:
            proposal = policy.decide(view, history)
        except AdapterError as exc:
            ledger.outcome, abort_reason = Outcome.ABORTED, str(exc)
            break
        ledger.step += 1
        ctx = RunContext(
            ledger.step, len(valid_ids), target_count, objective_text, page_size, unit_order
        )
        # The controller transforms only well-formed, legal proposals; every
        # other proposal, and every one it blocks, is answered with a notice.
        if isinstance(proposal, legal):
            action, notice, made = controller.transform(proposal, ctx)
            interventions.extend(made)
        elif isinstance(proposal, Malformed):
            action, notice = None, _notice(proposal.reason, ledger)
        else:
            action, notice = None, _notice("unsupported_action", ledger)
        if notice is not None:
            history.append((proposal, notice))
            controller.observe(proposal, notice, ctx)
            continue
        assert action is not None
        if isinstance(action, (Final, AskUser)):
            if isinstance(action, Final) and action.reported_count is not None:
                ledger.reported_count = action.reported_count
            ledger.outcome = classify_termination(ledger, action)
            history.append((action, Terminal(outcome=ledger.outcome)))
            break
        observation = environment.execute(action, ledger)
        history.append((action, observation))
        controller.observe(action, observation, ctx)
        if len(valid_ids) >= target_count:
            break

    if ledger.outcome is None:
        ledger.outcome = classify_termination(ledger)
    return RunRecord(
        task=task,
        controller=controller.kind_label,
        policy=policy.label,
        ledger=ledger,
        interventions=interventions,
        abort_reason=abort_reason,
    )


# ---------------------------------------------------------------------------
# Run record serialization (one object per line)
# ---------------------------------------------------------------------------

@dataclass  # not frozen: one is built per record line written or read, and builds faster
class RecordRow:
    """The typed fields that lead every record line, in line order."""

    task_id: str
    family: Family
    target_count: int
    budget: int
    controller: str
    policy: str
    outcome: Outcome
    valid_count: int
    steps_used: int
    duplicate_occurrences: int
    submission_occurrences: int
    reported_count: int | None
    intervention_count: int

    def broken_rule(self) -> str | None:
        """The first rule every run keeps that this row breaks, or None."""
        valid, target = self.valid_count, self.target_count
        submitted, duplicates = self.submission_occurrences, self.duplicate_occurrences
        if duplicates > submitted:
            return f"duplicate_occurrences {duplicates} exceeds submission_occurrences {submitted}"
        if valid > submitted - duplicates:
            return f"valid_count {valid} exceeds the {submitted - duplicates} non-duplicates"
        if self.steps_used > self.budget:
            return f"steps_used {self.steps_used} exceeds budget {self.budget}"
        succeeded = self.outcome == Outcome.SUCCESS
        if self.outcome != Outcome.ABORTED and succeeded != (valid >= target):
            return f"outcome {self.outcome.value} with valid_count {valid} of target {target}"
        return None


_RECORD_ROWS = Schema(RecordRow)
RECORD_FIELDS = tuple(f.name for f in fields(RecordRow))


def record_to_dict(record: RunRecord) -> dict:
    """The record line of a run: RECORD_FIELDS, the intervention log and, for
    an aborted run only, its `abort_reason` last."""
    task, ledger = record.task, record.ledger
    row = _RECORD_ROWS.encode(
        RecordRow(
            task_id=task.task_id,
            family=Family(task.family),
            target_count=task.target_count,
            budget=task.budget,
            controller=record.controller,
            policy=record.policy,
            outcome=record.outcome,
            valid_count=ledger.valid_count,
            steps_used=ledger.step,
            duplicate_occurrences=ledger.duplicate_occurrences,
            submission_occurrences=ledger.submission_occurrences,
            reported_count=ledger.reported_count,
            intervention_count=len(record.interventions),
        )
    )
    row["intervention_log"] = [
        {"step": iv.step, "kind": iv.kind.value, "detail": iv.detail} for iv in record.interventions
    ]
    if record.outcome == Outcome.ABORTED:
        row["abort_reason"] = record.abort_reason
    return row


def _task_label(entry: object, fallback: str) -> str:
    """How an error names a file's task or record `entry`: by its task id, else `fallback`."""
    task_id = entry.get("task_id") if isinstance(entry, dict) else None
    return f"task {task_id!r}" if isinstance(task_id, str) else fallback


def read_record_dicts(path: str | Path) -> list[dict]:
    """The record lines of a file as parsed, each checked to hold a RecordRow
    that breaks no rule of a run, names a task no earlier line names, and
    logs a list of exactly `intervention_count` interventions."""
    rows = []
    lines_by_task: dict[str, int] = {}
    with loading(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                row = json.loads(line)
                where = f"{_task_label(row, 'record')} on line {lineno}: "
                record = _RECORD_ROWS.decode(row, where)
                first = lines_by_task.setdefault(record.task_id, lineno)
                broken = record.broken_rule() if first == lineno else f"repeats line {first}"
                # The log's length only: decoding every entry would slow each read.
                log, count = row.get("intervention_log"), record.intervention_count
                if not broken and not isinstance(log, list):
                    broken = "intervention_log must be a list"
                elif not broken and len(log) != count:
                    broken = f"intervention_count {count} with {len(log)} intervention_log entries"
                if broken:
                    raise ValueError(where + broken)
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Manifest envelope: the fields every family's manifest file shares
# ---------------------------------------------------------------------------

MANIFEST_FORMAT = "qgp-manifest"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class _Envelope:  # the typed fields every manifest file shares, but its format
    family: Family
    version: int
    metadata: dict
    tasks: tuple[dict, ...]


_ENVELOPES = Schema(_Envelope)

M = TypeVar("M")


def read_manifest_file(
    path: str | Path, payloads: Mapping[Family, Callable[[dict, list[TaskSpec]], M]]
) -> M:
    """Parse a manifest file once, check its envelope and read its payload.

    The format must be `qgp-manifest`, the family one of `payloads`, the
    version MANIFEST_VERSION, each task a TaskSpec of the envelope's family
    and task ids distinct. Returns what the family's payload reader builds from
    the parsed file and the task specs. What a policy sees of a task is its
    environment's `public_view()`, not anything read here. Malformed input
    raises a ConfigurationError naming the file.
    """
    with loading(path):
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict) or obj.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"not a {MANIFEST_FORMAT} file")
        envelope = _ENVELOPES.decode(obj)
        family = envelope.family
        if family not in payloads:
            raise ValueError(f"not a {' or '.join(payloads)} manifest: {family.value}")
        if envelope.version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {envelope.version!r}")
        specs = []
        for i, entry in enumerate(envelope.tasks):
            where = _task_label(entry, f"tasks[{i}]")
            try:
                spec = _TASK_SPECS.decode(entry, f"{where}: ")
            except ConfigurationError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if spec.family != family:
                raise ValueError(f"{where} is not a {family.value} task")
            specs.append(spec)
        if len({spec.task_id for spec in specs}) != len(specs):
            raise ValueError("duplicate task ids")
        return payloads[family](obj, specs)


def write_manifest_file(
    path: str | Path,
    family: Family,
    metadata: dict,
    tasks: Iterable[tuple[TaskSpec, dict]],
    **payload,
) -> str:
    """Write a manifest with sorted keys; returns the sha256 of the file.

    Each task is its spec's public fields plus the family's fields for it,
    and `payload` holds the family's top-level fields.
    """
    obj = {
        "format": MANIFEST_FORMAT,
        "family": family.value,
        "version": MANIFEST_VERSION,
        "metadata": metadata,
        **payload,
        "tasks": [_TASK_SPECS.encode(spec) | extra for spec, extra in tasks],
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
