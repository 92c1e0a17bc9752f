"""Per-run metrics, grouped aggregation, and paired bootstrap controller deltas."""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from .actions import Outcome
from .core import reported_count_error
from .errors import AnalysisError


@dataclass(frozen=True)
class RunMetrics:
    task_id: str
    family: str
    controller: str
    policy: str
    target_count: int
    success: int
    valid_count: int
    duplicate_submit_rate: float
    valid_per_step: float
    premature_stop: int
    false_completion: int
    budget_exhausted: int
    reported_count_error: float | None
    intervention_count: int


def metrics_from_record_dict(row: Mapping) -> RunMetrics:
    """Rebuild the metric vector from a serialized run record line; an
    aborted run has none."""
    outcome = Outcome(row["outcome"])
    if outcome == Outcome.ABORTED:
        raise AnalysisError(f"run {row['task_id']} was aborted and has no metrics")
    occurrences = int(row["submission_occurrences"])
    duplicates = int(row["duplicate_occurrences"])
    steps = int(row["steps_used"])
    valid = int(row["valid_count"])
    reported = row.get("reported_count")
    error = None
    if reported is not None:
        error = reported_count_error(int(reported), valid, int(row["target_count"]))
    return RunMetrics(
        task_id=row["task_id"],
        family=row["family"],
        controller=row["controller"],
        policy=row["policy"],
        target_count=int(row["target_count"]),
        success=int(outcome == Outcome.SUCCESS),
        valid_count=valid,
        duplicate_submit_rate=(duplicates / occurrences) if occurrences else 0.0,
        valid_per_step=(valid / steps) if steps else 0.0,
        premature_stop=int(outcome == Outcome.PREMATURE_STOP),
        false_completion=int(outcome == Outcome.FALSE_COMPLETION),
        budget_exhausted=int(outcome == Outcome.BUDGET_EXHAUSTED),
        reported_count_error=error,
        intervention_count=int(row.get("intervention_count", 0)),
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateRow:
    group: tuple
    runs: int
    success_rate: float
    avg_valid_count: float
    duplicate_submit_rate: float
    valid_per_step: float
    budget_exhausted_rate: float
    premature_stop_rate: float
    false_completion_rate: float
    # No provider is modelled; emitted as a constant for column parity.
    provider_error_rate: float = 0.0


AGGREGATE_METRIC_COLUMNS = tuple(
    f.name for f in fields(AggregateRow) if f.name not in ("group", "runs")
)

# The RunMetrics attribute each aggregate column is the mean of.
_COLUMN_MEANS = {
    "success_rate": "success",
    "avg_valid_count": "valid_count",
    "duplicate_submit_rate": "duplicate_submit_rate",
    "valid_per_step": "valid_per_step",
    "budget_exhausted_rate": "budget_exhausted",
    "premature_stop_rate": "premature_stop",
    "false_completion_rate": "false_completion",
}


RUN_METRIC_FIELDS = tuple(f.name for f in fields(RunMetrics))


def aggregate(rows: Sequence[RunMetrics], group_keys: Sequence[str]) -> list[AggregateRow]:
    """Unweighted per-group means; groups, keyed by `RunMetrics` fields, in key order."""
    for key in group_keys:
        if key not in RUN_METRIC_FIELDS:
            raise AnalysisError(
                f"cannot group by {key!r}: not a run metric field; "
                f"choose from {', '.join(RUN_METRIC_FIELDS)}"
            )
    groups: dict[tuple, list[RunMetrics]] = {}
    for row in rows:
        key = tuple(getattr(row, k) for k in group_keys)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        members = groups[key]
        means = {
            column: sum(getattr(m, attr) for m in members) / len(members)
            for column, attr in _COLUMN_MEANS.items()
        }
        out.append(AggregateRow(group=key, runs=len(members), **means))
    return out


def aggregate_csv(rows: Sequence[RunMetrics], group_keys: Sequence[str]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(group_keys) + ["runs"] + list(AGGREGATE_METRIC_COLUMNS))
    for row in aggregate(rows, group_keys):
        writer.writerow(
            [str(v) for v in row.group]
            + [row.runs]
            + [f"{getattr(row, column):.6f}" for column in AGGREGATE_METRIC_COLUMNS]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Paired bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairedDelta:
    left_label: str
    right_label: str
    paired_task_count: int
    success_delta: float
    ci_low: float
    ci_high: float
    avg_valid_delta: float
    left_only: int
    right_only: int
    resamples: int
    confidence: float


def empirical_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Type-1 (inverted ECDF) percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise AnalysisError("percentile of empty sequence")
    if q <= 0:
        return sorted_values[0]
    index = max(0, min(n - 1, math.ceil(q * n) - 1))
    return sorted_values[index]


def paired_bootstrap(
    left: Mapping[str, RunMetrics],
    right: Mapping[str, RunMetrics],
    resamples: int = 10000,
    confidence: float = 0.95,
    seed: int = 0,
    left_label: str | None = None,
    right_label: str | None = None,
) -> PairedDelta:
    """Task-matched success-rate difference with a percentile resampling interval.

    Tasks present in both conditions are resampled with replacement; each
    resample recomputes the success-rate difference over the sampled tasks.
    """
    common = sorted(set(left) & set(right))
    if not common:
        raise AnalysisError("no common tasks between the two conditions")
    if not 0 < confidence < 1:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    diffs = [left[t].success - right[t].success for t in common]
    point = sum(diffs) / len(diffs)
    valid_deltas = [left[t].valid_count - right[t].valid_count for t in common]
    rng = random.Random(seed)
    n = len(common)
    resampled = []
    for _ in range(resamples):
        total = 0
        for _ in range(n):
            total += diffs[rng.randrange(n)]
        resampled.append(total / n)
    resampled.sort()
    alpha = (1.0 - confidence) / 2.0
    return PairedDelta(
        left_label=left_label or _condition_label(left.values()),
        right_label=right_label or _condition_label(right.values()),
        paired_task_count=n,
        success_delta=point,
        ci_low=empirical_percentile(resampled, alpha),
        ci_high=empirical_percentile(resampled, 1.0 - alpha),
        avg_valid_delta=sum(valid_deltas) / n,
        left_only=sum(1 for t in common if left[t].success and not right[t].success),
        right_only=sum(1 for t in common if right[t].success and not left[t].success),
        resamples=resamples,
        confidence=confidence,
    )


def _condition_label(rows) -> str:
    pairs = {(m.controller, m.policy) for m in rows}
    if len(pairs) == 1:
        controller, policy = next(iter(pairs))
        return f"{controller}/{policy}"
    return "mixed"


DELTA_COLUMNS = (
    "left",
    "right",
    "paired_tasks",
    "success_delta",
    "ci_low",
    "ci_high",
    "avg_valid_delta",
    "left_only",
    "right_only",
    "resamples",
    "confidence",
)


def delta_csv(delta: PairedDelta) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(DELTA_COLUMNS))
    writer.writerow(
        [
            delta.left_label,
            delta.right_label,
            delta.paired_task_count,
            f"{delta.success_delta:.6f}",
            f"{delta.ci_low:.6f}",
            f"{delta.ci_high:.6f}",
            f"{delta.avg_valid_delta:.6f}",
            delta.left_only,
            delta.right_only,
            delta.resamples,
            f"{delta.confidence:.4f}",
        ]
    )
    return out.getvalue()
