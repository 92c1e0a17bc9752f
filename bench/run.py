"""End-to-end benchmark of the qgp pipeline.

    python3 bench/run.py --workload reposcan-10x --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: it imports the engine from ``src``
and the synthetic fixtures from ``tests/synth.py``, and keeps all of its
files under ``.bench_work/``. One run builds the workload's fixtures and
sets up (generation, ``write_manifest``, ``smoke``) once untimed. Then it
repeats a pass of one timed set-up, the run matrix and its analysis while
the next pass fits in ``--seconds``, at least once, and then sets up and
analyses again until it has MIN_SETUPS set-ups and MIN_ANALYSES analyses.
Times are host-corrected seconds (see ``hostclock.py``). It checks every
record and prints each end-to-end metric, then one JSON line with the
result; it exits 1 when a correctness check fails.

With ``--trace 1`` it runs the pipeline untraced, then with every layer
wrapped in spans (see ``tracing.py``), then untraced again; it cross-checks
the spans against the records and reports the per-layer metrics instead.

Each workload generates its tasks with the paper's reference seeds (11 for
reposcan, 23 for dataops). ``--seed n`` sets the run seed to ``n + 1`` for
``run_manifest`` and the bootstrap, as ``qgp run --seed`` and ``qgp delta
--seed`` would; the records do not depend on it, so every seed must give
the records whose digest is pinned below. Other generation seeds would
change the tasks, and with them the step count and the mix of searches and
submissions that the metrics measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostclock import REFERENCE_S, HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_SETUPS = 5
ANALYSIS_REPEATS = 3
MIN_ANALYSES = 9
RESAMPLES = 10_000
CONFIDENCE = 0.95
GROUP_BY = ["controller", "policy", "target_count"]

# (controller, ablation flag or None, policy)
Pair = tuple[str, "str | None", str]


@dataclass(frozen=True)
class Workload:
    family: str
    scale: int
    gen_seed: int
    jobs: int
    matrix: tuple[Pair, ...]
    deltas: tuple[tuple[Pair, Pair], ...]
    # sha256 of every record line, pairs in matrix order.
    records_sha256: str


def _pairs(controllers, policies, ablation=None) -> tuple[Pair, ...]:
    return tuple((c, ablation, p) for c in controllers for p in policies)


_SHARED = ("greedy_oracle", "duplicator", "redundant_searcher")
_BACKLOG = ("solver", "no_submit_looper")

WORKLOADS = {
    # Corpus-sized layers dominate: search, the snapshot digest and index,
    # predicate sampling. No dataops layer runs.
    "reposcan-10x": Workload(
        family="reposcan",
        scale=10,
        gen_seed=11,
        jobs=1,
        matrix=_pairs(("standard", "state_qgp"), _SHARED)
        + _pairs(("verifier_gated",), ("early_stopper", "false_completer"))
        + tuple(
            ("ablation", flag, "redundant_searcher")
            for flag in ("dedupe_only", "page_memory_only", "dedupe_plus_page_no_buffer")
        ),
        deltas=tuple((("state_qgp", None, p), ("standard", None, p)) for p in _SHARED),
        records_sha256="2236827a40c0fbe420baa229d359c54d0702d7a1962821cc6af8a5b3c7c38ac8",
    ),
    # No search: workspace file I/O, checkers, the history fold in the
    # backlog policies, and the only worker pool with more than one job.
    "dataops-ref": Workload(
        family="dataops",
        scale=1,
        gen_seed=23,
        jobs=2,
        matrix=_pairs(("standard", "verifier_gated", "unit_qgp"), _BACKLOG)
        + _pairs(("standard",), ("false_completer", "early_stopper")),
        deltas=tuple((("unit_qgp", None, p), ("standard", None, p)) for p in _BACKLOG),
        records_sha256="5ff8ca4763fcbe841409a87e3378f41d54f61ecbad62babd263b936fed8c7d3c",
    ),
    # Small corpus: the time goes to one adapter process per run, pipe round
    # trips, the reader thread and the wire codec.
    "external-ref": Workload(
        family="reposcan",
        scale=1,
        gen_seed=11,
        jobs=1,
        matrix=_pairs(("standard", "verifier_gated", "state_qgp"), ("external",)),
        deltas=((("state_qgp", None, "external"), ("standard", None, "external")),),
        records_sha256="53f480fe8f40c4038f8e01867c49391f171cca5f1e2b35a8e731312f54d62fe9",
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("analysis_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class Inputs:
    """Fixture files on disk plus the paths the pipeline writes to."""

    def __init__(self, workload: Workload, work: Path) -> None:
        import fixtures

        self.work = work
        self.workspace_root = str(work / "workspaces")
        self.manifest = work / "manifest.json"
        self.records = work / "records"
        self.records.mkdir(parents=True)
        self.snapshots = fixtures.build_snapshots(work / "snapshots", workload.scale)
        self.csv = fixtures.build_csv_sources(work / "csv") if workload.family == "dataops" else []


def _record_line(row: dict) -> str:
    """One record line, byte for byte as ``qgp run`` writes it."""
    return json.dumps(row, separators=(",", ":")) + "\n"


def _label(pair: Pair) -> str:
    controller, flag, policy = pair
    return f"{controller}-{flag}-{policy}" if flag else f"{controller}-{policy}"


def setup(workload: Workload, inputs: Inputs) -> str | None:
    """Generate, write and smoke the manifest; returns the smoke failure, if any."""
    from qgp import cli, dataops, reposcan

    if workload.family == "reposcan":
        manifest = reposcan.generate_manifest(inputs.snapshots, seed=workload.gen_seed)
        reposcan.write_manifest(manifest, inputs.manifest)
    else:
        sources = dataops.FixtureSources(
            csv_paths=tuple(str(p) for p in inputs.csv),
            snapshot_roots=(str(inputs.snapshots[0]),),
        )
        manifest = dataops.generate_dataops_manifest(
            sources, seed=workload.gen_seed, workspace_root=inputs.workspace_root
        )
        dataops.write_manifest(manifest, inputs.manifest)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(
            ["smoke", "--manifest", str(inputs.manifest), "--workspace-root", inputs.workspace_root]
        )
    return None if code == 0 else f"smoke exited {code}: {out.getvalue().strip()}"


def run_matrix(
    workload: Workload, inputs: Inputs, run_seed: int, clock: HostClock
) -> tuple[dict, dict]:
    """One run_manifest call per pair; returns (rows by pair, seconds by pair)."""
    from qgp import cli
    from qgp.controllers import AblationFlag, ControllerConfig, ControllerKind

    # -I -S: the adapter needs only the standard library, so its start-up
    # skips site-packages and whatever their .pth files import.
    adapter = [sys.executable, "-I", "-S", str(BENCH / "greedy_adapter.py")]
    rows_by_pair = {}
    seconds = {}
    for pair in workload.matrix:
        controller, flag, policy = pair
        config = ControllerConfig(
            kind=ControllerKind(controller), ablation_flags=AblationFlag(flag) if flag else None
        )
        params = {"command": adapter, "timeout": 30.0} if policy == "external" else {}
        (rows, _), seconds[pair] = clock.time(
            cli.run_manifest,
            str(inputs.manifest),
            config,
            policy,
            params,
            seed=run_seed,
            jobs=workload.jobs,
            workspace_root=inputs.workspace_root,
        )
        with open(inputs.records / f"{_label(pair)}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(_record_line(row) for row in rows)
        rows_by_pair[pair] = rows
    return rows_by_pair, seconds


def analyse(workload: Workload, inputs: Inputs, run_seed: int) -> None:
    """read_record_dicts + aggregate_csv + every paired delta, as aggregate/delta do."""
    from qgp import core, metrics

    rows = []
    by_task = {}
    for pair in workload.matrix:
        records = core.read_record_dicts(inputs.records / f"{_label(pair)}.jsonl")
        pair_metrics = [
            metrics.metrics_from_record_dict(r) for r in records if r["outcome"] != "aborted"
        ]
        rows += pair_metrics
        by_task[pair] = {m.task_id: m for m in pair_metrics}
    (inputs.work / "aggregate.csv").write_text(metrics.aggregate_csv(rows, GROUP_BY))
    for i, (left, right) in enumerate(workload.deltas):
        delta = metrics.paired_bootstrap(
            by_task[left], by_task[right], resamples=RESAMPLES, confidence=CONFIDENCE, seed=run_seed
        )
        (inputs.work / f"delta-{i}.csv").write_text(metrics.delta_csv(delta))


def record_lines(workload: Workload, rows_by_pair: dict) -> list[bytes]:
    return [
        _record_line(row).encode("utf-8") for pair in workload.matrix for row in rows_by_pair[pair]
    ]


def bad_records(rows_by_pair: dict) -> int:
    """Aborted runs plus runs whose outcome disagrees with the verified count."""
    bad = 0
    for rows in rows_by_pair.values():
        for row in rows:
            success = row["outcome"] == "success"
            if row["outcome"] == "aborted" or success != (row["valid_count"] >= row["target_count"]):
                bad += 1
    return bad


class Run:
    """Counts attempted and failed runs and the reasons a check failed."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.smoke_failed = False
        self.problems: list[str] = []

    def check_matrix(self, rows_by_pair: dict) -> None:
        """A pass whose digest differs from the pinned one fails as a whole,
        because the digest cannot say which record changed."""
        lines = record_lines(self.workload, rows_by_pair)
        self.attempted += len(lines)
        bad = bad_records(rows_by_pair)
        if bad:
            self.problems.append(f"{bad} records aborted or misclassified")
        digest = hashlib.sha256(b"".join(lines)).hexdigest()
        if digest != self.workload.records_sha256:
            self.problems.append(f"records digest {digest} != pinned {self.workload.records_sha256}")
            bad = len(lines)
        self.failed += bad

    def failed_runs(self) -> int:
        # Every pass runs on a manifest generated the same way, so a smoke
        # failure on any set-up fails every run attempted.
        return self.attempted if self.smoke_failed else self.failed

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed_runs(),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def timed_setup(workload: Workload, inputs: Inputs, run: Run, clock: HostClock) -> float:
    failure, seconds = clock.time(setup, workload, inputs)
    if failure:
        run.smoke_failed = True
        run.problems.append(failure)
    return seconds


def measure(workload: Workload, inputs: Inputs, run_seed: int, seconds: float) -> tuple[Run, dict]:
    """Medians over the set-ups and matrix passes that fit in ``seconds``.

    ``seconds`` counts from the untimed first set-up. Every pass sets up
    once, runs the whole matrix and then the analysis ANALYSIS_REPEATS
    times. A run makes at least one pass, then sets up and analyses until
    it has MIN_SETUPS set-ups and MIN_ANALYSES analyses. Each pair's call
    counts with its median over the passes.
    """
    run = Run(workload)
    clock = HostClock()
    started = time.perf_counter()
    # A first set-up, left out of the median, pays imports and first-use
    # costs that the median would drop anyway; its smoke still counts.
    timed_setup(workload, inputs, run, clock)
    setup_s: list[float] = []
    pair_s: dict[Pair, list[float]] = {pair: [] for pair in workload.matrix}
    analysis_s: list[float] = []
    passes = 0
    while True:
        pass_start = time.perf_counter()
        setup_s.append(timed_setup(workload, inputs, run, clock))
        rows_by_pair, seconds_by_pair = run_matrix(workload, inputs, run_seed, clock)
        run.check_matrix(rows_by_pair)
        for pair, pair_seconds in seconds_by_pair.items():
            pair_s[pair].append(pair_seconds)
        for _ in range(ANALYSIS_REPEATS):
            analysis_s.append(clock.time(analyse, workload, inputs, run_seed)[1])
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_start) > seconds:
            break
    while len(setup_s) < MIN_SETUPS:
        setup_s.append(timed_setup(workload, inputs, run, clock))
    while len(analysis_s) < MIN_ANALYSES:
        analysis_s.append(clock.time(analyse, workload, inputs, run_seed)[1])
    steps = sum(row["steps_used"] for rows in rows_by_pair.values() for row in rows)
    matrix_s = sum(statistics.median(times) for times in pair_s.values())
    analysis = statistics.median(analysis_s)
    setup_median = statistics.median(setup_s)
    values = {
        "setup_s": setup_median,
        "steps_per_s": steps / matrix_s,
        "analysis_s": analysis,
        "pipeline_s": setup_median + matrix_s + analysis,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"matrix passes: {passes}, set-ups: {len(setup_s)}")
    print(f"host reference chunk: {clock.reference_ms():.4g} ms (nominal {REFERENCE_S * 1000:g} ms)")
    return run, {name: (values[name], unit) for name, unit in END_TO_END}


def pipeline_once(
    workload: Workload, inputs: Inputs, run_seed: int, run: Run, clock: HostClock, tracer=None
):
    """Setup, one matrix pass and analysis; returns (pipeline seconds, rows by pair)."""

    def phase(name: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.phase = name
        return tracer.span(f"bench.{name}")

    with phase("setup"):
        setup_s = timed_setup(workload, inputs, run, clock)
    with phase("matrix"):
        rows_by_pair, seconds_by_pair = run_matrix(workload, inputs, run_seed, clock)
    with phase("analysis"):
        analysis = clock.time(analyse, workload, inputs, run_seed)[1]
    return setup_s + sum(seconds_by_pair.values()) + analysis, rows_by_pair


def trace(workload: Workload, inputs: Inputs, run_seed: int, name: str) -> tuple[Run, dict]:
    """Per-layer metrics from one traced pipeline between two untraced ones.

    Span times are wall times. The overhead share compares the traced
    pipeline with the mean of the untraced ones, in host-corrected seconds.
    """
    import tracing

    run = Run(workload)
    clock = HostClock()
    timed_setup(workload, inputs, run, clock)  # left out, as in measure()
    untraced_s, rows = pipeline_once(workload, inputs, run_seed, run, clock)
    run.check_matrix(rows)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced_rows = pipeline_once(workload, inputs, run_seed, run, clock, tracer)
    finally:
        tracer.uninstall()
    run.check_matrix(traced_rows)
    seconds, rows = pipeline_once(workload, inputs, run_seed, run, clock)
    run.check_matrix(rows)
    untraced_s = (untraced_s + seconds) / 2
    records = [row for pair in workload.matrix for row in traced_rows[pair]]
    problems = tracing.cross_check(tracer.spans, records)
    if problems:
        run.problems.append(f"trace disagrees with {len(problems)} records: {problems[0]}")
        run.failed += len(problems)
    values = tracing.layer_metrics(tracer.spans, workload.jobs)
    values["trace.overhead_share"] = traced_s / untraced_s - 1
    tracer.write(WORK / f"spans-{name}.jsonl")
    return run, {n: (values[n], unit) for n, unit in tracing.per_layer_names()}


def _engine_importable() -> str | None:
    for needed in (ROOT / "src" / "qgp" / "__init__.py", ROOT / "tests" / "synth.py"):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full source checkout"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import qgp

    if Path(qgp.__file__).resolve().parent != ROOT / "src" / "qgp":
        return f"imported qgp from {qgp.__file__}, not from this checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _engine_importable()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = Inputs(workload, work)
        if args.trace:
            run, values = trace(workload, inputs, args.seed + 1, args.workload)
        else:
            run, values = measure(workload, inputs, args.seed + 1, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"failed_run_share {run.failed_runs() / run.attempted:.6g} ratio")
    for problem in run.problems:
        print(f"FAIL: {problem}")
    print(json.dumps(run.result(values)))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
