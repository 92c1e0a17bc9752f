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
    provider_error: int
    reported_count_error: float | None
    intervention_count: int


def metrics_from_record_dict(row: Mapping) -> RunMetrics:
    """Rebuild the metric vector from a record line as `read_record_dicts`
    returns it, or as `record_to_dict` builds it. An aborted run is one more
    outcome, `provider_error`, with the counts the verifier had at the abort."""
    outcome = row["outcome"]
    occurrences = row["submission_occurrences"]
    duplicates = row["duplicate_occurrences"]
    steps = row["steps_used"]
    valid = row["valid_count"]
    reported = row["reported_count"]
    error = None
    if reported is not None:
        error = reported_count_error(reported, valid, row["target_count"])
    return RunMetrics(
        task_id=row["task_id"],
        family=row["family"],
        controller=row["controller"],
        policy=row["policy"],
        target_count=row["target_count"],
        success=int(outcome == Outcome.SUCCESS),
        valid_count=valid,
        duplicate_submit_rate=(duplicates / occurrences) if occurrences else 0.0,
        valid_per_step=(valid / steps) if steps else 0.0,
        premature_stop=int(outcome == Outcome.PREMATURE_STOP),
        false_completion=int(outcome == Outcome.FALSE_COMPLETION),
        budget_exhausted=int(outcome == Outcome.BUDGET_EXHAUSTED),
        provider_error=int(outcome == Outcome.ABORTED),
        reported_count_error=error,
        intervention_count=row["intervention_count"],
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
    provider_error_rate: float


AGGREGATE_METRIC_COLUMNS = tuple(
    f.name for f in fields(AggregateRow) if f.name not in ("group", "runs")
)

# The RunMetrics attribute each aggregate column is the mean of, over every
# run of the group. The five outcome rates sum to 1.
_COLUMN_MEANS = {
    "success_rate": "success",
    "avg_valid_count": "valid_count",
    "duplicate_submit_rate": "duplicate_submit_rate",
    "valid_per_step": "valid_per_step",
    "budget_exhausted_rate": "budget_exhausted",
    "premature_stop_rate": "premature_stop",
    "false_completion_rate": "false_completion",
    "provider_error_rate": "provider_error",
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


# Generator words the bulk resampler draws at a time; besides the means, one
# block's bytes are all it holds.
_DRAW_BLOCK = 1 << 13
# Most tasks a resample may have for one integer product to sum its draws:
# a product byte sums at most n draw values of at most 2, and 2n <= 254.
_PRODUCT_MAX_TASKS = 127


def _resample_means(diffs: Sequence[int], resamples: int, rng: random.Random) -> list[float]:
    """Means of `resamples` resamples of `diffs`, each of n = len(diffs)
    draws of `rng.randrange(n)`.

    `randrange(n)` takes one 32-bit generator word per try, keeps its top
    k = n.bit_length() bits and rejects values >= n. `randbytes` returns the
    same words in order, little-endian, so for n <= 255 (k <= 8) the top bits
    of each word are in its last byte. One translate call drops the rejected
    bytes and maps each kept one to its task's diff plus one: 0, 1 or 2.

    For n <= 127 one integer product sums a whole block of resamples. Read
    the drawn bytes as a little-endian integer and multiply it by n one-bytes
    (1 + 256 + ... + 256**(n - 1)): byte j of the product is the sum of the
    n drawn values ending at byte j, so bytes n - 1, 2n - 1, ... are the
    resample totals. Each byte is at most 2n <= 254, so no byte carries into
    the next. For 128 <= n <= 255 a sum can reach 256, and each resample
    counts its 2s less its 0s instead. Larger n draws one at a time.
    """
    n = len(diffs)
    means = []
    if n > 255:
        for _ in range(resamples):
            total = 0
            for _ in range(n):
                total += diffs[rng.randrange(n)]
            means.append(total / n)
        return means
    shift = 8 - n.bit_length()
    values = bytes(d + 1 for d in diffs).ljust(256, b"\0")
    table = bytes(values[b >> shift] for b in range(256))
    rejects = bytes(b for b in range(256) if b >> shift >= n)
    ones = int.from_bytes(b"\x01" * n, "little")
    # A total of draw values is the diffs' total plus n.
    mean_of = [(total - n) / n for total in range(256)]
    pending = b""
    missing = resamples * n
    while missing:
        # One word per try and at most one draw per word: asking for no more
        # words than missing draws takes exactly the words randrange would.
        words = rng.randbytes(4 * min(missing, _DRAW_BLOCK))
        drawn = words[3::4].translate(table, rejects)
        missing -= len(drawn)
        buf = pending + drawn
        whole = len(buf) - len(buf) % n
        if n <= _PRODUCT_MAX_TASKS:
            sums = (int.from_bytes(buf[:whole], "little") * ones).to_bytes(whole + n, "little")
            means.extend(map(mean_of.__getitem__, sums[n - 1 : whole : n]))
        else:
            for start in range(0, whole, n):
                stop = start + n
                means.append((buf.count(2, start, stop) - buf.count(0, start, stop)) / n)
        pending = buf[whole:]
    return means


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

    Tasks present in both conditions, in task-id order, are resampled with
    replacement; each resample recomputes the success-rate difference over
    the sampled tasks. An aborted run is not a success, so it counts as a
    failure on its side. The interval is a pure function of the paired records,
    `seed`, `resamples` and `confidence`: its draws are exactly those of
    `random.Random(seed).randrange(n)`, n per resample, so a delta CSV from an
    earlier version reproduces byte for byte.
    """
    common = sorted(set(left) & set(right))
    if not common:
        raise AnalysisError("no common tasks between the two conditions")
    if not 0 < confidence < 1:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if isinstance(resamples, bool) or not isinstance(resamples, int):
        raise AnalysisError(f"resamples must be an integer, got {resamples!r}")
    if resamples < 1:
        raise AnalysisError(f"resamples must be at least 1, got {resamples}")
    diffs = [left[t].success - right[t].success for t in common]
    for task, diff in zip(common, diffs):
        if diff not in (-1, 0, 1):
            raise AnalysisError(f"task {task}: success difference {diff} is not -1, 0 or 1")
    point = sum(diffs) / len(diffs)
    valid_deltas = [left[t].valid_count - right[t].valid_count for t in common]
    n = len(common)
    resampled = _resample_means(diffs, resamples, random.Random(seed))
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
