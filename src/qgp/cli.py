"""Command-line pipelines: generate, run, aggregate, delta, smoke.

Commands and argument parsing only, with no family code. Each command reads
its manifest once; `run` and `smoke` open it through the family's `open()`,
which reads and digest-checks each snapshot once, and `smoke` adds the
family's own `smoke_failures`. Each command writes the output path it is
given and replaces a file already there, so keep earlier outputs under other
names. `run --out` writes a temporary file beside its records file and
renames it over the old one, so a run that fails leaves the previous file
intact; it refuses an output directory that does not exist before its first
task. An output that cannot be written ends any command with one `error:`
line and exit code 2. `run --jobs` overlaps the runs of the `external`
policy only, whose time goes to adapter I/O; a scripted policy holds the
interpreter lock, so its runs go in task order on the calling thread. The
`gen-*` seed fixes a manifest's bytes and the `delta` seed its interval;
`run` takes none, since its records follow from the manifest alone, and
they are identical for every worker count.

`run` checks its flags and a saved `--config` alike, in `RunConfig.check`; a
policy parameter's flag stores under the name of its policy's init field.
Only `smoke` takes a workspace root, and ignores it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import dataops, reposcan
from .actions import Family, Outcome, Schema
from .controllers import (
    AblationFlag,
    ControllerConfig,
    ControllerKind,
    build_controller,
)
from .core import (
    read_manifest_file,
    read_record_dicts,
    record_to_dict,
    run_episode,
)
from .errors import ConfigurationError, QgpError, loading, writing
from .metrics import (
    aggregate_csv,
    delta_csv,
    metrics_from_record_dict,
    paired_bootstrap,
)
from .policies import POLICY_TYPES, ExternalAdapterPolicy, GreedyOraclePolicy, build_policy

@dataclass(frozen=True)
class RunConfig:
    """One run invocation, with all paths resolved; round-trips losslessly
    through its JSON file form."""

    manifest: str
    controller: str
    policy: str
    out: str
    ablation: str | None = None
    policy_params: dict = field(default_factory=dict)
    no_progress_limit: int = ControllerConfig.no_progress_limit
    jobs: int = 1

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )

    @classmethod
    def check(cls, saved: object) -> "RunConfig":
        """The run `saved` holds in its file form. A field it does not have,
        a field whose value is not of its annotated type, `jobs` below 1, and a
        controller, ablation flag or policy parameter that `run` would refuse,
        raise ConfigurationError naming it."""
        config = _RUN_CONFIGS.decode(saved)
        unknown = sorted(saved.keys() - asdict(config).keys())
        if unknown:
            raise ConfigurationError(f"unknown field {unknown[0]!r}")
        if config.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        config.controller_config()
        build_policy(config.policy, **config.policy_params)
        return config

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """Read and `check` a saved run; a refusal names the file."""
        with loading(path):
            saved = json.loads(Path(path).read_text(encoding="utf-8"))
            try:
                return cls.check(saved)
            except ConfigurationError as exc:
                raise ValueError(exc) from exc

    def controller_config(self) -> ControllerConfig:
        flag = AblationFlag(self.ablation) if self.ablation else None
        return ControllerConfig(
            kind=ControllerKind(self.controller),
            ablation_flags=flag,
            no_progress_limit=self.no_progress_limit,
        )


_RUN_CONFIGS = Schema(RunConfig, ConfigurationError)


def _parse_targets(text: str) -> list[int]:
    """`--targets` value: comma-separated integers; a bad one is a usage error."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        message = f"not a comma-separated list of integers: {text!r}"
        raise argparse.ArgumentTypeError(message) from None


_PAYLOADS = {
    Family.REPOSCAN: reposcan.manifest_payload,
    Family.DATAOPS: dataops.manifest_payload,
}


# ---------------------------------------------------------------------------
# Generation commands
# ---------------------------------------------------------------------------


def cmd_gen_reposcan(args: argparse.Namespace) -> int:
    manifest = reposcan.generate_manifest(
        snapshots=args.snapshot,
        targets=args.targets,
        instances_per_target=args.instances,
        seed=args.seed,
    )
    with writing(args.out):
        digest = reposcan.write_manifest(manifest, args.out)
    print(f"wrote {args.out} tasks={len(manifest.tasks)} digest={digest}")
    return 0


def cmd_gen_dataops(args: argparse.Namespace) -> int:
    sources = dataops.FixtureSources(
        csv_paths=tuple(args.csv), snapshot_roots=tuple(args.snapshot)
    )
    manifest = dataops.generate_dataops_manifest(
        sources=sources,
        targets=args.targets,
        instances_per_target=args.instances,
        seed=args.seed,
    )
    with writing(args.out):
        digest = dataops.write_manifest(manifest, args.out)
    print(f"wrote {args.out} tasks={len(manifest.tasks)} digest={digest}")
    return 0


# ---------------------------------------------------------------------------
# Run command
# ---------------------------------------------------------------------------


def _policy_params(args: argparse.Namespace) -> dict:
    """The policy parameters set on the command line: each `run` flag of a
    policy parameter stores under the parameter's name."""
    names = dict.fromkeys(f.name for cls in POLICY_TYPES.values() for f in fields(cls) if f.init)
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run the flags or the saved `--config` give, checked the same way."""
    if args.config:
        return RunConfig.load(args.config)
    if not args.manifest or not args.out:
        raise QgpError("run requires --manifest and --out (or --config)")
    return RunConfig.check(
        {
            "manifest": str(Path(args.manifest).resolve()),
            "controller": args.controller,
            "policy": args.policy,
            "out": str(Path(args.out).resolve()),
            "ablation": args.ablation,
            "policy_params": _policy_params(args),
            "no_progress_limit": args.no_progress_limit,
            "jobs": args.jobs,
        }
    )


def run_manifest(
    manifest_path: str,
    controller_config: ControllerConfig,
    policy_kind: str,
    policy_params: dict,
    seed: int | None = None,
    jobs: int = 1,
    workspace_root: str | None = None,
) -> tuple[list[dict], int]:
    """Execute every manifest task; returns (record rows in task order, abort count).

    Up to `jobs` runs of the `external` policy overlap on threads, since
    they wait on adapter I/O. Every other policy is Python code that holds
    the interpreter lock, so its runs go in task order on the calling
    thread, whatever `jobs` is. The rows do not depend on `jobs`.
    `seed` and `workspace_root` are ignored: no policy draws a random
    number, and dataops workspaces are held in memory. `bench/run.py`
    passes both, so they stay until ROADMAP item 3a drops them.
    """
    manifest = read_manifest_file(manifest_path, _PAYLOADS)
    environment, changed = manifest.open()
    if changed:
        info, digest = changed[0]
        raise QgpError(
            f"snapshot {info.name} changed since generation "
            f"(digest {digest[:12]} != {info.digest[:12]})"
        )

    def run_one(task) -> dict:
        controller = build_controller(controller_config)
        policy = build_policy(policy_kind, **policy_params)
        env = environment(task)
        try:
            return record_to_dict(run_episode(task.spec, env, controller, policy))
        finally:
            if hasattr(policy, "close"):
                policy.close()
            if hasattr(env, "close"):
                env.close()

    if jobs > 1 and policy_kind == ExternalAdapterPolicy.label:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, manifest.tasks))
    else:
        rows = [run_one(task) for task in manifest.tasks]
    aborts = sum(1 for row in rows if row["outcome"] == Outcome.ABORTED.value)
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
    out_dir = Path(config.out).parent
    if not out_dir.is_dir():
        raise QgpError(f"cannot write {config.out}: no directory {out_dir}")
    rows, aborts = run_manifest(
        manifest_path=config.manifest,
        controller_config=config.controller_config(),
        policy_kind=config.policy,
        policy_params=config.policy_params,
        jobs=config.jobs,
    )
    with writing(config.out):
        _write_records(config.out, rows)
    print(f"wrote {config.out} runs={len(rows)} aborts={aborts}")
    return 1 if aborts else 0


# ---------------------------------------------------------------------------
# Analysis commands
# ---------------------------------------------------------------------------


def _record_metrics(path: str) -> list:
    """Metric vectors of every run of a record file, aborted ones included."""
    return [metrics_from_record_dict(record) for record in read_record_dicts(path)]


def cmd_aggregate(args: argparse.Namespace) -> int:
    # The same file twice, under any path, would count each of its runs twice.
    for i, path in enumerate(args.records):
        for earlier in args.records[:i]:
            with contextlib.suppress(OSError):  # a missing file fails when it is read
                if os.path.samefile(earlier, path):
                    raise ConfigurationError(f"records file {earlier} is given twice")
    rows = [metric for path in args.records for metric in _record_metrics(path)]
    group_keys = [k.strip() for k in args.group_by.split(",") if k.strip()]
    csv_text = aggregate_csv(rows, group_keys)
    with writing(args.out):
        Path(args.out).write_text(csv_text, encoding="utf-8")
    print(f"wrote {args.out} groups={max(0, csv_text.count(chr(10)) - 1)}")
    return 0


def _metrics_by_task(path: str) -> dict:
    return {metric.task_id: metric for metric in _record_metrics(path)}


def _task_list(tasks: list[str], noun: str) -> str:
    """The count of `tasks` with `noun`, naming the first three, as in
    "5 tasks (t1, t2, t3 and 2 more)"."""
    named = ", ".join(tasks[:3]) + (f" and {len(tasks) - 3} more" if len(tasks) > 3 else "")
    return f"{len(tasks)} {noun}{'' if len(tasks) == 1 else 's'} ({named})"


def _pairing_notes(left: dict, right: dict) -> list[str]:
    """Per side, the paired tasks that aborted, each scored as a failure, and
    the tasks with no partner on the other side, which the delta leaves out."""
    notes = []
    for side, mine, other in (("left", left, right), ("right", right, left)):
        aborted = sorted(t for t, m in mine.items() if m.provider_error and t in other)
        unpaired = sorted(mine.keys() - other.keys())
        for tasks, noun, fate in (
            (aborted, "aborted task", "each scored as a failure"),
            (unpaired, "unpaired task", "not in the delta"),
        ):
            if tasks:
                notes.append(f"note: {side} has {_task_list(tasks, noun)}, {fate}")
    return notes


def cmd_delta(args: argparse.Namespace) -> int:
    left = _metrics_by_task(args.left)
    right = _metrics_by_task(args.right)
    for note in _pairing_notes(left, right):
        print(note, file=sys.stderr)
    delta = paired_bootstrap(
        left,
        right,
        resamples=args.resamples,
        confidence=args.confidence,
        seed=args.seed,
        left_label=args.left_label,
        right_label=args.right_label,
    )
    with writing(args.out):
        Path(args.out).write_text(delta_csv(delta), encoding="utf-8")
    print(
        f"wrote {args.out} delta={delta.success_delta:.3f} "
        f"ci=[{delta.ci_low:.3f}, {delta.ci_high:.3f}]"
    )
    if delta.ci_low == delta.ci_high:
        # Every resample agreed, which at a few paired tasks is weak evidence.
        print(
            f"note: the interval has zero width over {delta.paired_task_count} paired "
            f"tasks; it does not make the difference certain",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# Smoke command
# ---------------------------------------------------------------------------


def cmd_smoke(args: argparse.Namespace) -> int:
    # Scan what policies receive, as JSON: the public view of each environment
    # `run` would build (`vars` gives the fields of a view and of a unit view).
    manifest = read_manifest_file(args.manifest, _PAYLOADS)
    environment, changed = manifest.open()
    environments = [environment(task) for task in manifest.tasks]
    public_text = json.dumps([env.public_view() for env in environments], default=vars)
    failures = [f"snapshot digest drift: {info.name}" for info, _ in changed]
    failures += manifest.smoke_failures(environments, public_text)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"ok: {args.manifest} passed verifier smoke checks ({manifest.checks})")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgp", description="Count-goal persistence evaluation engine"
    )
    # Not "command": `run --policy-cmd` stores there.
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen-reposcan", help="generate a repository-scan manifest")
    g.add_argument("--snapshot", action="append", required=True, help="snapshot directory")
    g.add_argument("--targets", type=_parse_targets, default="10,25,50,100")
    g.add_argument("--instances", type=int, default=9, help="instances per target")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_reposcan)

    d = sub.add_parser("gen-dataops", help="generate a work-unit backlog manifest")
    d.add_argument("--csv", action="append", default=[], help="source CSV file")
    d.add_argument("--snapshot", action="append", default=[], help="snapshot directory")
    d.add_argument("--targets", type=_parse_targets, default="3,5,10,20")
    d.add_argument("--instances", type=int, default=6, help="backlogs per target")
    d.add_argument("--seed", type=int, default=0)
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
        default=GreedyOraclePolicy.label,
        choices=list(POLICY_TYPES),
    )
    r.add_argument(
        "--policy-cmd", dest="command", default=None, help="external adapter command line"
    )
    r.add_argument(
        "--adapter-timeout", dest="timeout", type=float, default=None, help="seconds (default 30)"
    )
    r.add_argument("--stop-step", type=int, default=None)
    r.add_argument("--claim-count", type=int, default=None)
    r.add_argument("--final-step", type=int, default=None)
    r.add_argument("--loop-unit", default=None)
    r.add_argument("--submit-width", type=int, default=None)
    r.add_argument("--submits-per-search", type=int, default=None)
    r.add_argument("--no-progress-limit", type=int, default=ControllerConfig.no_progress_limit)
    r.add_argument(
        "--jobs", type=int, default=1, help="external adapter runs at once; others run serially"
    )
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
    s.add_argument(
        "--workspace-root", default=None, help="ignored: dataops workspaces are held in memory"
    )
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


if __name__ == "__main__":
    entrypoint()
