"""Command-line pipelines: generate, run, aggregate, delta, smoke.

Each command writes the output path it is given and replaces a file already
there, so keep earlier outputs under other names. `run --out` writes a
temporary file beside its records file and renames it over the old one, so
a run that fails leaves the previous file intact. Each command reads every
snapshot it needs once. All pipelines are deterministic under a fixed
seed, including across different worker counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import dataops, reposcan
from .controllers import (
    AblationFlag,
    ControllerConfig,
    ControllerKind,
    build_controller,
)
from .core import read_record_dicts, record_to_dict, run_episode
from .errors import AdapterError, QgpError, loading
from .metrics import (
    aggregate_csv,
    delta_csv,
    metrics_from_record_dict,
    paired_bootstrap,
)
from .policies import PolicyKind, build_policy
from .seeding import derive_seed

# Dataops workspaces are held in memory. The flag, the variable and the
# `RunConfig` field are still accepted, so older scripts and saved configs
# keep working, and have no effect.
WORKSPACE_ENV = "QGP_WORKSPACE_ROOT"
WORKSPACE_HELP = "ignored: dataops workspaces are held in memory"


@dataclass(frozen=True)
class RunConfig:
    """One run invocation, with all paths resolved; round-trips losslessly
    through its JSON file form. `workspace_root` is kept for that round trip
    and has no effect."""

    manifest: str
    controller: str
    policy: str
    out: str
    ablation: str | None = None
    policy_params: dict = field(default_factory=dict)
    no_progress_limit: int = 6
    seed: int = 0
    jobs: int = 1
    workspace_root: str | None = None

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest,
            "controller": self.controller,
            "policy": self.policy,
            "out": self.out,
            "ablation": self.ablation,
            "policy_params": dict(self.policy_params),
            "no_progress_limit": self.no_progress_limit,
            "seed": self.seed,
            "jobs": self.jobs,
            "workspace_root": self.workspace_root,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        return cls(**obj)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with loading(path):
            config = cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
            config.controller_config()
            PolicyKind(config.policy)
        return config

    def controller_config(self) -> ControllerConfig:
        flag = AblationFlag(self.ablation) if self.ablation else None
        return ControllerConfig(
            kind=ControllerKind(self.controller),
            ablation_flags=flag,
            no_progress_limit=self.no_progress_limit,
        )


def _parse_targets(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _manifest_family(path: str) -> str:
    with loading(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh).get("family", "")


# ---------------------------------------------------------------------------
# Generation commands
# ---------------------------------------------------------------------------


def cmd_gen_reposcan(args: argparse.Namespace) -> int:
    manifest = reposcan.generate_manifest(
        snapshots=args.snapshot,
        targets=_parse_targets(args.targets),
        instances_per_target=args.instances,
        seed=args.seed,
    )
    digest = reposcan.write_manifest(manifest, args.out)
    print(f"wrote {args.out} tasks={len(manifest.tasks)} digest={digest}")
    return 0


def cmd_gen_dataops(args: argparse.Namespace) -> int:
    for path in list(args.csv) + list(args.snapshot):
        if not Path(path).exists():
            print(f"error: source path not found: {path}", file=sys.stderr)
            return 2
    sources = dataops.FixtureSources(
        csv_paths=tuple(args.csv), snapshot_roots=tuple(args.snapshot)
    )
    manifest = dataops.generate_dataops_manifest(
        sources=sources,
        targets=_parse_targets(args.targets),
        instances_per_target=args.instances,
        seed=args.seed,
    )
    digest = dataops.write_manifest(manifest, args.out)
    print(f"wrote {args.out} tasks={len(manifest.tasks)} digest={digest}")
    return 0


# ---------------------------------------------------------------------------
# Run command
# ---------------------------------------------------------------------------


def _policy_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if args.stop_step is not None:
        params["stop_step"] = args.stop_step
    if args.claim_count is not None:
        params["claim_count"] = args.claim_count
    if args.final_step is not None:
        params["final_step"] = args.final_step
    if args.loop_unit is not None:
        params["loop_unit"] = args.loop_unit
    if args.policy_cmd:
        params["command"] = args.policy_cmd
        params["timeout"] = args.adapter_timeout
    if args.submit_width is not None:
        params["submit_width"] = args.submit_width
    if args.submits_per_search is not None:
        params["submits_per_search"] = args.submits_per_search
    return params


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        return RunConfig.load(args.config)
    if not args.manifest or not args.out:
        raise QgpError("run requires --manifest and --out (or --config)")
    workspace_root = args.workspace_root or os.environ.get(WORKSPACE_ENV)
    return RunConfig(
        manifest=str(Path(args.manifest).resolve()),
        controller=args.controller,
        policy=args.policy,
        out=str(Path(args.out).resolve()),
        ablation=args.ablation,
        policy_params=_policy_params(args),
        no_progress_limit=args.no_progress_limit,
        seed=args.seed,
        jobs=args.jobs,
        workspace_root=workspace_root,
    )


def _abort_row(task, controller_label: str, policy_label: str, reason: str) -> dict:
    return {
        "task_id": task.task_id,
        "family": task.family.value,
        "target_count": task.target_count,
        "budget": task.budget,
        "controller": controller_label,
        "policy": policy_label,
        "outcome": "aborted",
        "valid_count": 0,
        "steps_used": 0,
        "duplicate_occurrences": 0,
        "submission_occurrences": 0,
        "reported_count": None,
        "intervention_count": 0,
        "intervention_log": [],
        "abort_reason": reason,
    }


def run_manifest(
    manifest_path: str,
    controller_config: ControllerConfig,
    policy_kind: str,
    policy_params: dict,
    seed: int,
    jobs: int = 1,
    workspace_root: str | None = None,
) -> tuple[list[dict], int]:
    """Execute every manifest task; returns (record rows in task order, abort count).

    `workspace_root` is accepted and ignored: dataops workspaces are held in
    memory.
    """
    family = _manifest_family(manifest_path)
    if family == "reposcan":
        manifest = reposcan.load_manifest(manifest_path)
        corpora: dict[str, reposcan.Corpus] = {}
        for info in manifest.snapshots:
            snapshot = reposcan.read_snapshot(info.root)
            if snapshot.digest != info.digest:
                raise QgpError(
                    f"snapshot {info.name} changed since generation "
                    f"(digest {snapshot.digest[:12]} != {info.digest[:12]})"
                )
            corpora[info.name] = snapshot.corpus

        def make_env(task):
            return reposcan.ReposcanEnvironment(
                task.spec, corpora[task.snapshot], task.valid_ids
            )

        tasks = manifest.tasks
    elif family == "dataops":
        dmanifest = dataops.load_manifest(manifest_path)

        def make_env(task):
            return dataops.DataopsEnvironment(task.spec, task.units, task.files)

        tasks = dmanifest.tasks
    else:
        raise QgpError(f"unrecognized manifest family {family!r}: {manifest_path}")

    def run_one(task) -> dict:
        controller = build_controller(controller_config)
        policy = build_policy(policy_kind, **policy_params)
        env = make_env(task)
        try:
            record = run_episode(
                task.spec,
                env,
                controller,
                policy,
                run_seed=derive_seed(seed, task.spec.task_id),
            )
            return record_to_dict(record)
        except AdapterError as exc:
            return _abort_row(task.spec, controller.kind_label, policy.label, str(exc))
        finally:
            if hasattr(policy, "close"):
                policy.close()
            if hasattr(env, "close"):
                env.close()

    if jobs <= 1:
        rows = [run_one(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, tasks))
    aborts = sum(1 for row in rows if row["outcome"] == "aborted")
    return rows, aborts


def _write_records(path: str, rows: list[dict]) -> None:
    """Write record lines to a temporary file beside `path`, then rename it
    over `path`, so a failed write leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def cmd_run(args: argparse.Namespace) -> int:
    config = _run_config_from_args(args)
    rows, aborts = run_manifest(
        manifest_path=config.manifest,
        controller_config=config.controller_config(),
        policy_kind=config.policy,
        policy_params=config.policy_params,
        seed=config.seed,
        jobs=config.jobs,
    )
    _write_records(config.out, rows)
    print(f"wrote {config.out} runs={len(rows)} aborts={aborts}")
    return 1 if aborts else 0


# ---------------------------------------------------------------------------
# Analysis commands
# ---------------------------------------------------------------------------


def _record_metrics(path: str) -> list:
    """Metric vectors of a record file's runs; aborted runs carry none."""
    with loading(path):
        return [
            metrics_from_record_dict(record)
            for record in read_record_dicts(path)
            if record.get("outcome") != "aborted"
        ]


def cmd_aggregate(args: argparse.Namespace) -> int:
    rows = [metric for path in args.records for metric in _record_metrics(path)]
    group_keys = [k.strip() for k in args.group_by.split(",") if k.strip()]
    csv_text = aggregate_csv(rows, group_keys)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(f"wrote {args.out} groups={max(0, csv_text.count(chr(10)) - 1)}")
    return 0


def _metrics_by_task(path: str) -> dict:
    table = {}
    for metric in _record_metrics(path):
        if metric.task_id in table:
            raise QgpError(f"duplicate task {metric.task_id} in {path}")
        table[metric.task_id] = metric
    return table


def cmd_delta(args: argparse.Namespace) -> int:
    left = _metrics_by_task(args.left)
    right = _metrics_by_task(args.right)
    delta = paired_bootstrap(
        left,
        right,
        resamples=args.resamples,
        confidence=args.confidence,
        seed=args.seed,
        left_label=args.left_label,
        right_label=args.right_label,
    )
    Path(args.out).write_text(delta_csv(delta), encoding="utf-8")
    print(
        f"wrote {args.out} delta={delta.success_delta:.3f} "
        f"ci=[{delta.ci_low:.3f}, {delta.ci_high:.3f}]"
    )
    return 0


# ---------------------------------------------------------------------------
# Smoke command
# ---------------------------------------------------------------------------


def _smoke_reposcan(path: str) -> list[str]:
    failures = []
    manifest = reposcan.load_manifest(path)
    corpora = {}
    for info in manifest.snapshots:
        snapshot = reposcan.read_snapshot(info.root)
        if snapshot.digest != info.digest:
            failures.append(f"snapshot digest drift: {info.name}")
        corpora[info.name] = snapshot.corpus
    public_text = json.dumps(reposcan.load_public_tasks(path))
    for task in manifest.tasks:
        corpus = corpora[task.snapshot]
        recomputed = sorted(
            a.artifact_id for a in corpus if reposcan.evaluate_predicate(a, task.predicate)
        )
        if recomputed != sorted(task.valid_ids):
            failures.append(f"hidden set mismatch: {task.spec.task_id}")
        if len(task.valid_ids) < task.spec.target_count:
            failures.append(f"hidden set smaller than target: {task.spec.task_id}")
        for hidden_id in task.valid_ids:
            if hidden_id in public_text:
                failures.append(f"hidden id leaked: {task.spec.task_id}")
                break
    if '"hidden"' in public_text:
        failures.append("public loader exposed a hidden section")
    return failures


def _smoke_dataops(path: str) -> list[str]:
    failures = []
    manifest = dataops.load_manifest(path)
    public_text = json.dumps(dataops.load_public_tasks(path))
    if '"hidden"' in public_text or '"checkers"' in public_text:
        failures.append("public loader exposed a hidden section")
    for task in manifest.tasks:
        for unit in task.units:
            checker = unit.checker
            if isinstance(checker, dataops.FileDigest) and checker.expected_digest in public_text:
                failures.append(f"checker digest leaked: {task.spec.task_id}/{unit.unit_id}")
        try:
            dataops._assert_solvable(task)
        except QgpError as exc:
            failures.append(f"solvability: {exc}")
    return failures


def cmd_smoke(args: argparse.Namespace) -> int:
    family = _manifest_family(args.manifest)
    if family == "reposcan":
        failures = _smoke_reposcan(args.manifest)
        checks = "digests, hidden-set consistency, leak-freedom"
    elif family == "dataops":
        failures = _smoke_dataops(args.manifest)
        checks = "leak-freedom, solver-within-budget"
    else:
        print(f"error: unrecognized manifest family {family!r}: {args.manifest}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"ok: {args.manifest} passed verifier smoke checks ({checks})")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgp", description="Count-goal persistence evaluation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-reposcan", help="generate a repository-scan manifest")
    g.add_argument("--snapshot", action="append", required=True, help="snapshot directory")
    g.add_argument("--targets", default="10,25,50,100")
    g.add_argument("--instances", type=int, default=9, help="instances per target")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_reposcan)

    d = sub.add_parser("gen-dataops", help="generate a work-unit backlog manifest")
    d.add_argument("--csv", action="append", default=[], help="source CSV file")
    d.add_argument("--snapshot", action="append", default=[], help="snapshot directory")
    d.add_argument("--targets", default="3,5,10,20")
    d.add_argument("--instances", type=int, default=6, help="backlogs per target")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--workspace-root", default=None, help=WORKSPACE_HELP)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_gen_dataops)

    r = sub.add_parser("run", help="execute a policy/controller over a manifest")
    r.add_argument("--config", default=None, help="load a saved run configuration")
    r.add_argument("--manifest", default=None)
    r.add_argument(
        "--controller",
        default=ControllerKind.STANDARD.value,
        choices=[k.value for k in ControllerKind],
    )
    r.add_argument(
        "--ablation", default=None, choices=[f.value for f in AblationFlag]
    )
    r.add_argument(
        "--policy",
        default=PolicyKind.GREEDY_ORACLE.value,
        choices=[k.value for k in PolicyKind],
    )
    r.add_argument("--policy-cmd", default=None, help="external adapter command line")
    r.add_argument("--adapter-timeout", type=float, default=30.0)
    r.add_argument("--stop-step", type=int, default=None)
    r.add_argument("--claim-count", type=int, default=None)
    r.add_argument("--final-step", type=int, default=None)
    r.add_argument("--loop-unit", default=None)
    r.add_argument("--submit-width", type=int, default=None)
    r.add_argument("--submits-per-search", type=int, default=None)
    r.add_argument("--no-progress-limit", type=int, default=6)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--jobs", type=int, default=1)
    r.add_argument("--workspace-root", default=None, help=WORKSPACE_HELP)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("aggregate", help="aggregate run records into a CSV")
    a.add_argument("--records", action="append", required=True)
    a.add_argument("--group-by", default="controller,policy")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_aggregate)

    x = sub.add_parser("delta", help="paired bootstrap delta between two record files")
    x.add_argument("--left", required=True)
    x.add_argument("--right", required=True)
    x.add_argument("--left-label", default=None)
    x.add_argument("--right-label", default=None)
    x.add_argument("--resamples", type=int, default=10000)
    x.add_argument("--confidence", type=float, default=0.95)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_delta)

    s = sub.add_parser("smoke", help="verify manifest consistency and leak-freedom")
    s.add_argument("--manifest", required=True)
    s.add_argument("--workspace-root", default=None, help=WORKSPACE_HELP)
    s.set_defaults(func=cmd_smoke)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console script
    raise SystemExit(main())
