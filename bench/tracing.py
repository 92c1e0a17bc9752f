"""In-memory span tracer that wraps the engine's public entry points.

Tracing lives entirely in the benchmark: ``Tracer.install`` swaps module and
class attributes of ``qgp`` for timing wrappers and ``Tracer.uninstall`` puts
the originals back, so the engine itself is never edited. Each span records
its name, start and end, the span that caused it, the episode it belongs to
and one optional value taken from the call (a step number, an id count).

Parent stacks are per thread because ``run_manifest`` may run episodes on a
thread pool; a span opened on an empty worker stack is parented to the open
``cli.run_manifest`` span. All spans of one episode share an id built from
(phase, task_id, controller, policy).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

from qgp import cli, controllers, core, dataops, metrics, policies, reposcan
from qgp.actions import Malformed, Submit, SubmitUnit, Verdict

POLICY_LABELS = (
    "greedy_oracle",
    "duplicator",
    "redundant_searcher",
    "early_stopper",
    "false_completer",
    "solver",
    "no_submit_looper",
    "external",
)
CONTROLLER_LABELS = (
    "standard",
    "verifier_gated",
    "state_qgp",
    "unit_qgp",
    "ablation:dedupe_only",
    "ablation:page_memory_only",
    "ablation:dedupe_plus_page_no_buffer",
)
POLICY_CLASSES = (
    policies.GreedyOraclePolicy,
    policies.DuplicatorPolicy,
    policies.RedundantSearcherPolicy,
    policies.EarlyStopperPolicy,
    policies.FalseCompleterPolicy,
    policies.SolverPolicy,
    policies.NoSubmitLooperPolicy,
    policies.ExternalAdapterPolicy,
)
CONTROLLER_CLASSES = (
    controllers.StandardController,
    controllers.VerifierGatedController,
    controllers.StateQgpController,
    controllers.UnitQgpController,
)
DATAOPS_UNIT_OPS = ("inspect_unit", "apply_edit", "run_check", "submit_unit", "evaluate_checker")
# Steps at or below EARLY and above LATE bracket the history-fold cost growth.
EARLY_STEP, LATE_STEP = 30, 120


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "episode", "value")

    def __init__(self, sid, name, start, parent, episode, value=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.episode = episode
        self.value = value

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def metric_name(*parts: str) -> str:
    return ".".join(parts).replace(":", "-")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    names = [
        ("reposcan.snapshot_digest.s", "s"),
        ("reposcan.snapshot_digest.calls", "count"),
        ("reposcan.index_snapshot.s", "s"),
        ("reposcan.index_snapshot.calls", "count"),
        ("reposcan.build_token_table.s", "s"),
        ("reposcan.generate_manifest.self_s", "s"),
        ("reposcan.search.calls", "count"),
        ("reposcan.search.s", "s"),
        ("reposcan.search.us_p50", "us"),
        ("reposcan.search.us_p99", "us"),
        ("reposcan.search.scanned_per_returned", "ratio"),
        ("reposcan.execute.submit.s", "s"),
        ("verifier.judge_ids.s", "s"),
        ("core.record_submission.s", "s"),
        ("reposcan.load_manifest.s", "s"),
        ("dataops.workspace_create.s", "s"),
        ("dataops.workspace_close.s", "s"),
    ]
    for op in DATAOPS_UNIT_OPS:
        names += [(f"dataops.{op}.s", "s"), (f"dataops.{op}.calls", "count")]
    names += [
        ("dataops.run_check.pass_ratio", "ratio"),
        ("dataops.generate_backlog.self_s", "s"),
        ("dataops.solvability_s", "s"),
        ("dataops.load_manifest.s", "s"),
    ]
    for label in POLICY_LABELS:
        names += [
            (metric_name("policies.decide", label, "s"), "s"),
            (metric_name("policies.decide", label, "us_p50"), "us"),
            (metric_name("policies.decide", label, "us_p99"), "us"),
        ]
    names += [
        ("policies.decide.late_over_early", "ratio"),
        ("policies.external.first_decide_ms", "ms"),
        ("policies.external.decide_us_p50", "us"),
        ("policies.external.close_ms", "ms"),
        ("policies.external.malformed", "count"),
        ("actions.action_from_dict.s", "s"),
        ("actions.observation_to_dict.s", "s"),
    ]
    for label in CONTROLLER_LABELS:
        names += [
            (metric_name("controllers.transform", label, "s"), "s"),
            (metric_name("controllers.observe", label, "s"), "s"),
        ]
    names += [
        ("controllers.interventions_per_step", "ratio"),
        ("core.run_episode.self_s", "s"),
        ("core.episode_ms_p50", "ms"),
        ("core.episode_ms_p90", "ms"),
        ("core.record_to_dict.s", "s"),
        ("cli.run_manifest.self_s", "s"),
        ("cli.pool.busy_share", "ratio"),
        ("cli.smoke.s", "s"),
        ("metrics.metrics_from_record_dict.s", "s"),
        ("metrics.aggregate_csv.s", "s"),
        ("metrics.paired_bootstrap.s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.spans", "count"),
    ]
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._matrix_span: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.episode = None
            local.labels = (None, None)
        return local

    def open(self, name: str, value=None) -> Span:
        local = self._state()
        parent = local.stack[-1] if local.stack else self._matrix_span
        span = Span(next(self._ids), name, time.perf_counter_ns(), parent, local.episode, value)
        local.stack.append(span.sid)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def _set_episode(self, task_id: str, controller: str | None, policy: str | None) -> None:
        self._state().episode = f"{self.phase}:{task_id}|{controller}|{policy}"

    # -- wrapping --------------------------------------------------------

    def _patch(
        self, owner, attr: str, name, value=None, before=None, after=None, root=False
    ) -> None:
        """Replace owner.attr with a timing wrapper.

        ``name`` is a string or a function of the call's arguments; ``value``
        maps (args, result) to the span's value; ``before`` runs on
        (args, kwargs) ahead of the call and ``after`` on (args, result)
        behind it; a ``root`` span parents spans opened on other threads
        while it is open.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = tracer.open(name if isinstance(name, str) else name(args))
            if root:
                tracer._matrix_span = span.sid
            try:
                result = original(*args, **kwargs)
            finally:
                if root:
                    tracer._matrix_span = None
                tracer.close(span)
            if value is not None:
                span.value = value(args, result)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        p = self._patch
        # reposcan: snapshot walk, index, token table, generation, search.
        p(reposcan, "snapshot_digest", "reposcan.snapshot_digest")
        p(reposcan, "index_snapshot", "reposcan.index_snapshot")
        p(reposcan, "build_token_table", "reposcan.build_token_table")
        p(reposcan, "generate_manifest", "reposcan.generate_manifest")
        p(
            reposcan,
            "search",
            "reposcan.search",
            value=lambda a, r: (len(a[0]), len(r.candidates)),
        )
        p(reposcan, "judge_ids", "verifier.judge_ids")
        p(reposcan, "record_submission", "core.record_submission")
        p(reposcan, "load_manifest", "reposcan.load_manifest")
        p(
            reposcan.ReposcanEnvironment,
            "__init__",
            "reposcan.env_create",
            before=lambda a, k: self._episode_from_env(a[1]),
        )
        p(
            reposcan.ReposcanEnvironment,
            "execute",
            lambda a: "reposcan.execute.submit" if isinstance(a[1], Submit) else "reposcan.execute.search",
            value=_submit_counts,
        )
        # dataops: workspace lifetime, unit operations, generation, loading.
        p(
            dataops.DataopsEnvironment,
            "__init__",
            "dataops.workspace_create",
            before=lambda a, k: self._episode_from_env(a[1]),
        )
        p(dataops.DataopsEnvironment, "close", "dataops.workspace_close")
        p(dataops.DataopsEnvironment, "execute", "dataops.execute", value=_submit_counts)
        for op in DATAOPS_UNIT_OPS:
            p(dataops, op, f"dataops.{op}", value=_verdict if op == "run_check" else None)
        p(dataops, "generate_backlog", "dataops.generate_backlog")
        p(dataops, "generate_dataops_manifest", "dataops.generate_dataops_manifest")
        p(dataops, "load_manifest", "dataops.load_manifest")
        # policies and the wire codec used by the subprocess adapter.
        for cls in POLICY_CLASSES:
            p(
                cls,
                "decide",
                lambda a: f"policies.decide/{a[0].label}",
                value=lambda a, r: (len(a[2]) + 1, isinstance(r, Malformed)),
            )
        p(policies.ExternalAdapterPolicy, "close", "policies.external.close")
        p(policies, "action_from_dict", "actions.action_from_dict")
        p(policies, "observation_to_dict", "actions.observation_to_dict")
        # controllers
        for cls in CONTROLLER_CLASSES:
            p(
                cls,
                "transform",
                lambda a: f"controllers.transform/{a[0].kind_label}",
                value=lambda a, r: len(r.interventions),
            )
            p(cls, "observe", lambda a: f"controllers.observe/{a[0].kind_label}")
        p(cli, "build_controller", "controllers.build", after=self._remember_controller)
        p(cli, "build_policy", "policies.build", after=self._remember_policy)
        # core: the episode loop (cli for the matrix, core for solvability runs).
        episode = dict(
            before=lambda a, k: self._set_episode(a[0].task_id, a[2].kind_label, a[3].label)
        )
        p(cli, "run_episode", "core.run_episode", **episode)
        p(core, "run_episode", "core.run_episode", **episode)
        p(cli, "record_to_dict", "core.record_to_dict")
        p(cli, "run_manifest", "cli.run_manifest", before=self._clear_episode, root=True)
        p(cli, "cmd_smoke", "cli.smoke")
        # metrics
        p(metrics, "metrics_from_record_dict", "metrics.metrics_from_record_dict")
        p(metrics, "aggregate_csv", "metrics.aggregate_csv")
        p(metrics, "paired_bootstrap", "metrics.paired_bootstrap")
        p(core, "read_record_dicts", "core.read_record_dicts")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _remember_controller(self, args, controller):
        local = self._state()
        local.labels = (controller.kind_label, None)
        local.episode = None

    def _remember_policy(self, args, policy):
        local = self._state()
        local.labels = (local.labels[0], policy.label)

    def _episode_from_env(self, task) -> None:
        local = self._state()
        self._set_episode(task.task_id, *local.labels)
        local.labels = (None, None)

    def _clear_episode(self, args, kwargs) -> None:
        self._state().episode = None

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")


def _submit_counts(args, result):
    """(ids reaching submit execution, duplicates in its feedback), else None."""
    action = args[1]
    if isinstance(action, Submit):
        return (len(action.ids), len(result.duplicates))
    if isinstance(action, SubmitUnit):
        return (1, len(result.duplicates))
    return None


def _verdict(args, result) -> bool:
    return result.verdict == Verdict.PASS


# ---------------------------------------------------------------------------
# Per-layer metrics and the trace-versus-records cross-check
# ---------------------------------------------------------------------------

# Spans a pool worker spends on one episode, for the pool busy share.
_EPISODE_WORK = {
    "controllers.build",
    "policies.build",
    "reposcan.env_create",
    "dataops.workspace_create",
    "core.run_episode",
    "core.record_to_dict",
    "policies.external.close",
    "dataops.workspace_close",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(len(ordered) * q) - 1))]


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end] that the union of intervals covers."""
    covered = 0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def _in_matrix(span: Span) -> bool:
    return span.episode is not None and span.episode.startswith("matrix:")


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    by_id: dict[int, Span] = {}
    for span in spans:
        by_name[span.name].append(span)
        by_id[span.sid] = span
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(
            s.seconds - _covered_ns(s.start, s.end, children[s.sid]) / 1e9 for s in by_name[name]
        )

    def micros(group) -> list[float]:
        return [(s.end - s.start) / 1e3 for s in group]

    out: dict[str, float] = {}
    for name in ("reposcan.snapshot_digest", "reposcan.index_snapshot"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = len(by_name[name])
    out["reposcan.build_token_table.s"] = total("reposcan.build_token_table")
    out["reposcan.generate_manifest.self_s"] = self_total("reposcan.generate_manifest")

    searches = by_name["reposcan.search"]
    returned = sum(s.value[1] for s in searches)
    out["reposcan.search.calls"] = len(searches)
    out["reposcan.search.s"] = total("reposcan.search")
    out["reposcan.search.us_p50"] = percentile(micros(searches), 0.50)
    out["reposcan.search.us_p99"] = percentile(micros(searches), 0.99)
    out["reposcan.search.scanned_per_returned"] = (
        sum(s.value[0] for s in searches) / returned if returned else 0.0
    )
    for name in (
        "reposcan.execute.submit",
        "verifier.judge_ids",
        "core.record_submission",
        "reposcan.load_manifest",
        "dataops.workspace_create",
        "dataops.workspace_close",
    ):
        out[f"{name}.s"] = total(name)

    for op in DATAOPS_UNIT_OPS:
        out[f"dataops.{op}.s"] = total(f"dataops.{op}")
        out[f"dataops.{op}.calls"] = len(by_name[f"dataops.{op}"])
    checks = by_name["dataops.run_check"]
    out["dataops.run_check.pass_ratio"] = (
        sum(1 for s in checks if s.value) / len(checks) if checks else 0.0
    )
    out["dataops.generate_backlog.self_s"] = self_total("dataops.generate_backlog")
    backlog_ns: dict[int, int] = defaultdict(int)
    for s in by_name["dataops.generate_backlog"]:
        backlog_ns[s.parent] += s.end - s.start
    out["dataops.solvability_s"] = sum(
        (s.end - s.start - backlog_ns[s.sid]) / 1e9
        for s in by_name["dataops.generate_dataops_manifest"]
    )
    out["dataops.load_manifest.s"] = total("dataops.load_manifest")

    decides = [s for name, group in by_name.items() if name.startswith("policies.decide/") for s in group]
    for label in POLICY_LABELS:
        group = by_name[f"policies.decide/{label}"]
        out[metric_name("policies.decide", label, "s")] = sum(s.seconds for s in group)
        out[metric_name("policies.decide", label, "us_p50")] = percentile(micros(group), 0.50)
        out[metric_name("policies.decide", label, "us_p99")] = percentile(micros(group), 0.99)
    early = percentile(micros([s for s in decides if s.value[0] <= EARLY_STEP]), 0.5)
    late = percentile(micros([s for s in decides if s.value[0] > LATE_STEP]), 0.5)
    out["policies.decide.late_over_early"] = late / early if early and late else 0.0

    external = by_name["policies.decide/external"]
    first = [(s.end - s.start) / 1e6 for s in external if s.value[0] == 1]
    out["policies.external.first_decide_ms"] = percentile(first, 0.5)
    out["policies.external.decide_us_p50"] = percentile(
        micros([s for s in external if s.value[0] > 1]), 0.5
    )
    closes = [(s.end - s.start) / 1e6 for s in by_name["policies.external.close"]]
    out["policies.external.close_ms"] = percentile(closes, 0.5)
    out["policies.external.malformed"] = sum(1 for s in external if s.value[1])
    out["actions.action_from_dict.s"] = total("actions.action_from_dict")
    out["actions.observation_to_dict.s"] = total("actions.observation_to_dict")

    for label in CONTROLLER_LABELS:
        for hook in ("transform", "observe"):
            out[metric_name(f"controllers.{hook}", label, "s")] = total(f"controllers.{hook}/{label}")
    matrix_steps = sum(1 for s in decides if _in_matrix(s))
    interventions = sum(
        s.value
        for name, group in by_name.items()
        if name.startswith("controllers.transform/")
        for s in group
        if _in_matrix(s)
    )
    out["controllers.interventions_per_step"] = interventions / matrix_steps if matrix_steps else 0.0

    episodes = [(s.end - s.start) / 1e6 for s in by_name["core.run_episode"] if _in_matrix(s)]
    out["core.run_episode.self_s"] = self_total("core.run_episode")
    out["core.episode_ms_p50"] = percentile(episodes, 0.50)
    out["core.episode_ms_p90"] = percentile(episodes, 0.90)
    out["core.record_to_dict.s"] = total("core.record_to_dict")

    matrix_ids = {s.sid for s in by_name["cli.run_manifest"]}
    busy = sum(
        s.seconds for s in spans if s.parent in matrix_ids and s.name in _EPISODE_WORK
    )
    wall = total("cli.run_manifest")
    out["cli.run_manifest.self_s"] = self_total("cli.run_manifest")
    out["cli.pool.busy_share"] = busy / (jobs * wall) if wall else 0.0
    out["cli.smoke.s"] = total("cli.smoke")
    for name in ("metrics.metrics_from_record_dict", "metrics.aggregate_csv", "metrics.paired_bootstrap"):
        out[f"{name}.s"] = total(name)
    out["trace.spans"] = len(spans)
    return out


def cross_check(spans: list[Span], records: list[dict]) -> list[str]:
    """Counts rebuilt from matrix spans must equal each record's fields.

    decide spans = steps_used; ids reaching submit execution =
    submission_occurrences; feedback duplicates = duplicate_occurrences;
    interventions returned by transform = intervention_count.
    """
    rebuilt: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for span in spans:
        if not _in_matrix(span):
            continue
        counts = rebuilt[span.episode]
        if span.name.startswith("policies.decide/"):
            counts[0] += 1
        elif span.name in ("reposcan.execute.submit", "dataops.execute") and span.value:
            counts[1] += span.value[0]
            counts[2] += span.value[1]
        elif span.name.startswith("controllers.transform/"):
            counts[3] += span.value
    problems = []
    seen = set()
    for row in records:
        episode = f"matrix:{row['task_id']}|{row['controller']}|{row['policy']}"
        seen.add(episode)
        if row["outcome"] == "aborted":
            continue
        expected = [
            row["steps_used"],
            row["submission_occurrences"],
            row["duplicate_occurrences"],
            row["intervention_count"],
        ]
        if rebuilt.get(episode) != expected:
            problems.append(f"{episode}: trace {rebuilt.get(episode)} != record {expected}")
    for episode in sorted(set(rebuilt) - seen):
        problems.append(f"{episode}: traced but has no record")
    return problems
