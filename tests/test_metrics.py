"""Run metrics, aggregation, and the paired bootstrap."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc

import pytest

from qgp.actions import Family, Outcome
from qgp.controllers import StandardController
from qgp.core import TaskSpec, record_to_dict, run_episode
from qgp.errors import AnalysisError
from qgp.metrics import (
    _DRAW_BLOCK,
    AGGREGATE_METRIC_COLUMNS,
    PairedDelta,
    RunMetrics,
    _resample_means,
    aggregate,
    aggregate_csv,
    delta_csv,
    empirical_percentile,
    metrics_from_record_dict,
    paired_bootstrap,
)
from qgp.policies import DuplicatorPolicy, EarlyStopperPolicy
from qgp.reposcan import ReposcanEnvironment

from synth import tiny_corpus


def _metric(task_id="t", success=1, valid=5, **kw) -> RunMetrics:
    base = dict(
        task_id=task_id,
        family="reposcan",
        controller="standard",
        policy="x",
        target_count=10,
        success=success,
        valid_count=valid,
        duplicate_submit_rate=0.0,
        valid_per_step=0.5,
        premature_stop=0,
        false_completion=1 - success if success in (0, 1) else 0,
        budget_exhausted=0,
        provider_error=0,
        reported_count_error=None,
        intervention_count=0,
    )
    base.update(kw)
    if base["success"] == 1:
        base["false_completion"] = base["premature_stop"] = base["budget_exhausted"] = 0
    return RunMetrics(**base)


class TestComputeRunMetrics:
    def test_duplicator_transcript_hand_count(self):
        # Duplicator on a six-valid corpus: one full-page submission of six
        # fresh ids, then four fixated resubmissions. Hand count: 10 submitted
        # occurrences, 4 duplicates, rate 0.4.
        corpus = tiny_corpus(valid=6, total=12)
        task = TaskSpec(
            task_id="dup-metrics",
            family=Family.REPOSCAN,
            objective_text="zeta : metrics",
            target_count=20,
            budget=6,
            seed=0,
        )
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:6]))
        record = run_episode(task, env, StandardController(), DuplicatorPolicy())
        assert record.ledger.submission_occurrences == 10
        assert record.ledger.duplicate_occurrences == 4
        metrics = metrics_from_record_dict(record_to_dict(record))
        assert metrics.duplicate_submit_rate == pytest.approx(0.4)
        assert metrics.valid_per_step == pytest.approx(6 / 6)

    def test_reported_count_error_from_outcome(self):
        row = {
            "task_id": "t",
            "family": "reposcan",
            "target_count": 10,
            "budget": 30,
            "controller": "standard",
            "policy": "false_completer",
            "outcome": "false_completion",
            "valid_count": 6,
            "steps_used": 3,
            "duplicate_occurrences": 0,
            "submission_occurrences": 0,
            "reported_count": 10,
            "intervention_count": 0,
        }
        metrics = metrics_from_record_dict(row)
        assert metrics.reported_count_error == pytest.approx(0.4)
        assert metrics.false_completion == 1

    def test_zero_submissions_zero_rate(self):
        corpus = tiny_corpus()
        task = TaskSpec(
            task_id="zero",
            family=Family.REPOSCAN,
            objective_text="zeta : stop",
            target_count=5,
            budget=5,
            seed=0,
        )
        env = ReposcanEnvironment(task, corpus, [])
        record = run_episode(task, env, StandardController(), EarlyStopperPolicy())
        metrics = metrics_from_record_dict(record_to_dict(record))
        assert metrics.duplicate_submit_rate == 0.0

    def test_exactly_one_outcome_indicator(self):
        for outcome in Outcome:
            row = {
                "task_id": "t",
                "family": "reposcan",
                "target_count": 10,
                "budget": 30,
                "controller": "standard",
                "policy": "p",
                "outcome": outcome.value,
                "valid_count": 10 if outcome == Outcome.SUCCESS else 2,
                "steps_used": 5,
                "duplicate_occurrences": 1,
                "submission_occurrences": 4,
                "reported_count": None,
                "intervention_count": 0,
            }
            metrics = metrics_from_record_dict(row)
            indicators = (
                metrics.success,
                metrics.false_completion,
                metrics.premature_stop,
                metrics.budget_exhausted,
                metrics.provider_error,
            )
            assert sum(indicators) == 1

    def test_aborted_run_is_a_provider_error_with_its_counts(self):
        row = {
            "task_id": "t",
            "family": "reposcan",
            "target_count": 5,
            "budget": 20,
            "controller": "verifier_gated",
            "policy": "external",
            "outcome": "aborted",
            "valid_count": 4,
            "steps_used": 3,
            "duplicate_occurrences": 1,
            "submission_occurrences": 5,
            "reported_count": None,
            "intervention_count": 1,
            "abort_reason": "adapter closed its output stream",
        }
        metrics = metrics_from_record_dict(row)
        assert (metrics.provider_error, metrics.success) == (1, 0)
        assert metrics.valid_count == 4
        assert metrics.duplicate_submit_rate == pytest.approx(0.2)
        assert metrics.valid_per_step == pytest.approx(4 / 3)


class TestAggregate:
    def test_success_rate_thirty_six_runs(self):
        rows = [_metric(task_id=f"t{i}", success=int(i < 26)) for i in range(36)]
        table = aggregate(rows, ["controller"])
        assert len(table) == 1
        assert round(table[0].success_rate, 3) == 0.722
        assert table[0].runs == 36

    def test_half_of_twenty_four(self):
        rows = [_metric(task_id=f"t{i}", success=int(i < 12)) for i in range(24)]
        assert aggregate(rows, ["controller"])[0].success_rate == pytest.approx(0.5)

    def test_single_run_equals_itself(self):
        row = _metric(valid=7, duplicate_submit_rate=0.25, valid_per_step=0.7)
        agg = aggregate([row], ["controller", "policy"])[0]
        assert agg.avg_valid_count == 7
        assert agg.duplicate_submit_rate == 0.25
        assert agg.valid_per_step == 0.7

    def test_concatenation_equals_weighted_mean(self):
        rng = random.Random(2)
        part_a = [
            _metric(task_id=f"a{i}", success=rng.randrange(2), valid=rng.randrange(20))
            for i in range(7)
        ]
        part_b = [
            _metric(task_id=f"b{i}", success=rng.randrange(2), valid=rng.randrange(20))
            for i in range(13)
        ]
        combined = aggregate(part_a + part_b, ["controller"])[0]
        agg_a = aggregate(part_a, ["controller"])[0]
        agg_b = aggregate(part_b, ["controller"])[0]
        for attr in ("success_rate", "avg_valid_count", "valid_per_step"):
            expected = (getattr(agg_a, attr) * 7 + getattr(agg_b, attr) * 13) / 20
            assert getattr(combined, attr) == pytest.approx(expected)

    def test_csv_column_order(self):
        text = aggregate_csv([_metric()], ["controller", "policy"])
        header = text.splitlines()[0].split(",")
        assert header == ["controller", "policy", "runs", *AGGREGATE_METRIC_COLUMNS]
        assert header[-1] == "provider_error_rate"
        assert text.splitlines()[1].endswith("0.000000")


def replay_draws(n, resamples, seed):
    """The documented resampling stream, one resample at a time: n draws of
    `random.Random(seed).randrange(n)` each."""
    rng = random.Random(seed)
    for _ in range(resamples):
        yield [rng.randrange(n) for _ in range(n)]


def replay_means(diffs, draws):
    """Mean success difference of each replayed resample, in draw order."""
    return [sum(diffs[i] for i in picks) / len(diffs) for picks in draws]


def reference_delta(left, right, draws, confidence, left_label, right_label):
    """The whole `PairedDelta`, its interval taken from the replayed draws."""
    common = sorted(set(left) & set(right))
    n = len(common)
    diffs = [left[t].success - right[t].success for t in common]
    means = sorted(replay_means(diffs, draws))
    alpha = (1 - confidence) / 2
    return PairedDelta(
        left_label=left_label,
        right_label=right_label,
        paired_task_count=n,
        success_delta=sum(diffs) / n,
        ci_low=empirical_percentile(means, alpha),
        ci_high=empirical_percentile(means, 1 - alpha),
        avg_valid_delta=sum(left[t].valid_count - right[t].valid_count for t in common) / n,
        left_only=sum(1 for d in diffs if d == 1),
        right_only=sum(1 for d in diffs if d == -1),
        resamples=len(means),
        confidence=confidence,
    )


def _paired(left_bits, right_bits):
    left = {
        f"t{i:03d}": _metric(task_id=f"t{i:03d}", success=b, valid=i % 7)
        for i, b in enumerate(left_bits)
    }
    right = {
        f"t{i:03d}": _metric(task_id=f"t{i:03d}", success=b, valid=i % 5, controller="other")
        for i, b in enumerate(right_bits)
    }
    return left, right


def _mixed(n):
    """Left and right success bits whose differences take all of -1, 0 and 1."""
    return [int(i % 3 != 2) for i in range(n)], [int(i % 4 == 1) for i in range(n)]


DIFF_PATTERNS = {
    "all_zero": lambda n: ([1] * n, [1] * n),
    "all_plus": lambda n: ([1] * n, [0] * n),
    "all_minus": lambda n: ([0] * n, [1] * n),
    "mixed": _mixed,
}


def percentile_scan_oracle(values, q):
    """Independent percentile: smallest value whose ECDF reaches q."""
    ordered = sorted(values)
    n = len(ordered)
    for i, x in enumerate(ordered):
        if (i + 1) >= q * n - 1e-9:
            return x
    return ordered[-1]


class TestPercentile:
    def test_matches_scan_oracle(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randrange(1, 40)
            values = sorted(rng.uniform(-1, 1) for _ in range(n))
            q = rng.random()
            assert empirical_percentile(values, q) == percentile_scan_oracle(values, q)

    def test_boundaries(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert empirical_percentile(values, 0.0) == 1.0
        assert empirical_percentile(values, 1.0) == 4.0
        assert empirical_percentile(values, 0.5) == 2.0  # ceil(0.5*4)=2nd value


class TestPairedBootstrap:
    def _vectors(self, left_bits, right_bits):
        left = {
            f"t{i}": _metric(task_id=f"t{i}", success=b, valid=b * 10)
            for i, b in enumerate(left_bits)
        }
        right = {
            f"t{i}": _metric(task_id=f"t{i}", success=b, valid=b * 10, controller="other")
            for i, b in enumerate(right_bits)
        }
        return left, right

    def test_degenerate_all_ones_vs_zeros(self):
        left, right = self._vectors([1, 1, 1], [0, 0, 0])
        delta = paired_bootstrap(left, right, resamples=500, seed=1)
        assert delta.success_delta == pytest.approx(1.0)
        assert delta.ci_low == delta.ci_high == pytest.approx(1.0)
        assert delta.left_only == 3 and delta.right_only == 0

    def test_identical_vectors_zero_interval(self):
        left, right = self._vectors([1, 0], [1, 0])
        delta = paired_bootstrap(left, right, resamples=500, seed=1)
        assert delta.success_delta == 0.0
        assert delta.ci_low == 0.0 and delta.ci_high == 0.0
        assert delta.left_only == delta.right_only == 0

    def test_table_pattern_twenty_four_tasks(self):
        # 24 matched tasks, left solves 12, right solves none. The resampled
        # delta is Binomial(24, 1/2)/24, whose 2.5/97.5 percentiles are 7/24
        # and 17/24 — an oracle independent of the resampling code.
        left, right = self._vectors([1] * 12 + [0] * 12, [0] * 24)
        delta = paired_bootstrap(left, right, resamples=10000, confidence=0.95, seed=7)
        assert delta.success_delta == pytest.approx(0.5)
        assert abs(delta.ci_low - 0.292) <= 0.021
        assert abs(delta.ci_high - 0.708) <= 0.021
        assert delta.left_only == 12 and delta.right_only == 0
        assert delta.avg_valid_delta == pytest.approx(5.0)

    def test_matches_stream_replay_with_scan_oracle(self):
        # Replays the documented resampling stream and selects bounds with the
        # scan-based percentile; endpoints must match exactly.
        left, right = self._vectors([1, 0, 1, 0, 1], [0, 1, 0, 0, 1])
        resamples, seed, confidence = 37, 13, 0.9
        delta = paired_bootstrap(left, right, resamples=resamples, confidence=confidence, seed=seed)
        diffs = [left[t].success - right[t].success for t in sorted(left)]
        replayed = replay_means(diffs, replay_draws(len(diffs), resamples, seed))
        alpha = (1 - confidence) / 2
        assert delta.ci_low == percentile_scan_oracle(replayed, alpha)
        assert delta.ci_high == percentile_scan_oracle(replayed, 1 - alpha)

    def test_deterministic_under_seed(self):
        left, right = self._vectors([1, 0, 1, 1], [0, 0, 1, 0])
        a = paired_bootstrap(left, right, resamples=2000, seed=42)
        b = paired_bootstrap(left, right, resamples=2000, seed=42)
        assert a == b

    def test_bounds_ordered_and_in_range(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randrange(2, 12)
            left, right = self._vectors(
                [rng.randrange(2) for _ in range(n)], [rng.randrange(2) for _ in range(n)]
            )
            delta = paired_bootstrap(left, right, resamples=300, seed=rng.randrange(1000))
            assert -1.0 <= delta.ci_low <= delta.ci_high <= 1.0

    def test_gating_with_unchanged_success_gives_exact_zero_interval(self):
        # Gating flips premature stops into budget exhaustion but rescues no
        # run, so every per-task success difference is zero and the interval
        # collapses exactly.
        from qgp.controllers import StandardController, VerifierGatedController
        from qgp.policies import EarlyStopperPolicy

        conditions = {}
        for name, controller in (
            ("std", StandardController),
            ("vg", VerifierGatedController),
        ):
            table = {}
            for i in range(6):
                corpus = tiny_corpus(valid=2, total=6)
                task = TaskSpec(
                    task_id=f"zero-{i}",
                    family=Family.REPOSCAN,
                    objective_text="zeta : x",
                    target_count=4,
                    budget=5,
                    seed=i,
                )
                env = ReposcanEnvironment(task, corpus, list(corpus.ids[:2]))
                record = run_episode(task, env, controller(), EarlyStopperPolicy())
                table[task.task_id] = metrics_from_record_dict(record_to_dict(record))
            conditions[name] = table
        delta = paired_bootstrap(conditions["vg"], conditions["std"], resamples=4000, seed=3)
        assert delta.success_delta == 0.0
        assert delta.ci_low == 0.0 and delta.ci_high == 0.0
        assert delta.left_only == delta.right_only == 0

    def test_no_common_tasks_is_error(self):
        left = {"a": _metric(task_id="a")}
        right = {"b": _metric(task_id="b")}
        with pytest.raises(AnalysisError):
            paired_bootstrap(left, right)

    def test_delta_csv_shape(self):
        left, right = self._vectors([1, 1], [0, 0])
        delta = paired_bootstrap(left, right, resamples=100, seed=0)
        lines = delta_csv(delta).splitlines()
        assert lines[0].split(",")[:4] == ["left", "right", "paired_tasks", "success_delta"]
        assert lines[1].split(",")[0] == "standard/x"


class TestBulkDraws:
    """The bulk resampler against the per-draw reference loop."""

    # None stands for a count whose draws span more than one draw block.
    @pytest.mark.parametrize("seed", [0, 99, 2**40 + 3])
    @pytest.mark.parametrize("resamples", [1, 7, 1000, None])
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 36, 64, 127, 128, 255, 256, 257])
    def test_equals_reference_loop(self, n, resamples, seed):
        if resamples is None:
            resamples = _DRAW_BLOCK // n + 1
        # The draws do not depend on the diffs, so every pattern shares one replay.
        draws = list(replay_draws(n, resamples, seed))
        for name, bits in DIFF_PATTERNS.items():
            left, right = _paired(*bits(n))
            got = paired_bootstrap(
                left, right, resamples=resamples, confidence=0.9, seed=seed,
                left_label="L", right_label="R",
            )
            assert got == reference_delta(left, right, draws, 0.9, "L", "R"), name

    # The interval reads two order statistics of the means, so a bend that
    # moves a few means can leave it as it was; the means in draw order cannot.
    @pytest.mark.parametrize("resamples", [7, None])
    @pytest.mark.parametrize("n", [1, 36, 127, 128, 255])
    def test_means_equal_reference_in_draw_order(self, n, resamples):
        if resamples is None:
            resamples = _DRAW_BLOCK // n + 1
        diffs = [a - b for a, b in zip(*_mixed(n))]
        means = _resample_means(diffs, resamples, random.Random(5))
        assert means == replay_means(diffs, replay_draws(n, resamples, 5))

    # sha256 of the delta CSV, taken from the per-draw loop before the draws
    # were taken in bulk; one changed byte fails.
    GOLDEN_DELTA_DIGESTS = {
        "criterion7": "8d866be2137a80e08eec9294c71d9616efa401f33543976d0dfaa5253dca16ea",
        "criterion7_same": "cf6f8db94a93b4eed79f2d1d5ef71c7ed1204d6c675f00d7c225f209f78ddce5",
        "mixed36_seed1": "1b1729d9f287f290d170498d47d9be74eecc0e364f00844505d05904966a9199",
        "mixed36_seed2": "1b1729d9f287f290d170498d47d9be74eecc0e364f00844505d05904966a9199",
    }

    def test_golden_delta_bytes(self):
        left = {f"t{i}": _metric(task_id=f"t{i}", success=int(i < 12)) for i in range(24)}
        right = {f"t{i}": _metric(task_id=f"t{i}", success=0) for i in range(24)}
        mixed_left, mixed_right = _paired(*_mixed(36))
        deltas = {
            "criterion7": paired_bootstrap(left, right, confidence=0.95, seed=99),
            "criterion7_same": paired_bootstrap(left, dict(left), confidence=0.95, seed=99),
            "mixed36_seed1": paired_bootstrap(mixed_left, mixed_right, seed=1),
            "mixed36_seed2": paired_bootstrap(mixed_left, mixed_right, seed=2),
        }
        digests = {
            name: hashlib.sha256(delta_csv(delta).encode()).hexdigest()
            for name, delta in deltas.items()
        }
        assert digests == self.GOLDEN_DELTA_DIGESTS

    def test_no_per_draw_randrange_up_to_255_tasks(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("per-draw randrange")

        monkeypatch.setattr(random.Random, "randrange", refuse)
        for n in (24, 36, 255):
            paired_bootstrap(*_paired(*_mixed(n)), resamples=500, seed=3)
        with pytest.raises(AssertionError, match="per-draw"):
            paired_bootstrap(*_paired(*_mixed(256)), resamples=1, seed=3)

    def test_peak_memory_near_reference_loop(self):
        left, right = _paired(*_mixed(36))
        diffs = [left[t].success - right[t].success for t in sorted(left)]
        tracemalloc.start()
        try:
            replay_means(diffs, replay_draws(36, 10_000, 1))
            reference_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            paired_bootstrap(left, right, resamples=10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= reference_peak + (1 << 20)

    @pytest.mark.parametrize("n", [3, 256])
    def test_diff_outside_unit_range_is_error(self, n):
        left, right = _paired([1] * n, [0] * n)
        left["t000"] = _metric(task_id="t000", success=2)
        with pytest.raises(AnalysisError, match="t000: success difference 2"):
            paired_bootstrap(left, right, resamples=5)

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_resamples_below_one_is_error(self, resamples):
        left, right = _paired([1, 0], [0, 0])
        with pytest.raises(AnalysisError, match=f"resamples must be at least 1, got {resamples}"):
            paired_bootstrap(left, right, resamples=resamples)

    @pytest.mark.parametrize("resamples", [True, 2.0])
    def test_resamples_not_an_integer_is_error(self, resamples):
        left, right = _paired([1, 0], [0, 0])
        with pytest.raises(AnalysisError, match="resamples must be an integer"):
            paired_bootstrap(left, right, resamples=resamples)
