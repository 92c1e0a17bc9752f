"""Checker-backed backlog family: work units over CSV snippets and repo fixtures.

Each backlog seeds an isolated per-run workspace, a file tree held in memory:
no policy can reach it, and a run creates no file or directory. A unit only
counts after its deterministic checker accepts it and the unit is then
submitted; checker internals stay hidden from the policy-facing surfaces.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import posixpath
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from .actions import (
    Action,
    Edit,
    Family,
    Inspect,
    Observation,
    RunCheck,
    SubmitFeedback,
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
    Verdict,
)
from .core import PublicTaskView, RunLedger, TaskSpec, UnitPublicView, record_submission
from .errors import ConfigurationError, GenerationError, loading
from .seeding import derive_seed, stream
from .verifier import IdVerdict, normalize_id

DATAOPS_BUDGETS = {3: 30, 5: 50, 10: 90, 20: 160}

UNIT_KINDS = (
    "csv_field_check",
    "csv_count_check",
    "metadata_repair",
    "consistency_answer",
    "artifact_validation",
)

_CSV_KINDS = {"csv_field_check", "csv_count_check"}


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldEquals:
    file: str
    row_key: str
    column: str
    expected: str


@dataclass(frozen=True)
class RowCount:
    file: str
    expected: int


@dataclass(frozen=True)
class KeyPresent:
    file: str
    key: str
    expected_value: str


@dataclass(frozen=True)
class AnswerEquals:
    file: str
    expected_normalized: str


@dataclass(frozen=True)
class FileDigest:
    file: str
    expected_digest: str


CheckerSpec = Union[FieldEquals, RowCount, KeyPresent, AnswerEquals, FileDigest]

_CHECKER_TYPES = {
    "field_equals": FieldEquals,
    "row_count": RowCount,
    "key_present": KeyPresent,
    "answer_equals": AnswerEquals,
    "file_digest": FileDigest,
}


def checker_to_dict(checker: CheckerSpec) -> dict:
    for name, cls in _CHECKER_TYPES.items():
        if isinstance(checker, cls):
            payload = {"type": name}
            payload.update(checker.__dict__)
            return payload
    raise ConfigurationError(f"unknown checker: {checker!r}")


def checker_from_dict(obj: dict) -> CheckerSpec:
    cls = _CHECKER_TYPES.get(obj.get("type", ""))
    if cls is None:
        raise ConfigurationError(f"unknown checker type: {obj.get('type')!r}")
    return cls(**{k: v for k, v in obj.items() if k != "type"})


def normalize_answer(text: str) -> str:
    # Trim and collapse internal whitespace; comparisons stay case-sensitive.
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Units and workspace
# ---------------------------------------------------------------------------


@dataclass
class BacklogUnit:
    unit_id: str
    kind: str
    prompt: str
    artifact_path: str
    checker: CheckerSpec
    status: UnitStatus = UnitStatus.PENDING

    def mark_attempted(self) -> None:
        if self.status == UnitStatus.PENDING:
            self.status = UnitStatus.ATTEMPTED


@dataclass
class Backlog:
    backlog_id: str
    units: list[BacklogUnit]

    def get(self, unit_id: str) -> BacklogUnit | None:
        for unit in self.units:
            if unit.unit_id == unit_id:
                return unit
        return None


class Workspace:
    """Per-run file tree held in memory: normalised relative path to text.

    It refuses what an on-disk scratch tree would refuse, as a
    `ConfigurationError`: a path that names the workspace itself or escapes
    it, a path with a NUL, a file where a directory is or under a file, and
    text that is not encodable as UTF-8. `a/./b`, `a//b` and `x/../a/b` name
    the same file, and text reads back as a file read in text mode returns
    it: `\\r\\n` and a lone `\\r` become `\\n`.
    """

    def __init__(self) -> None:
        self._files: dict[str, str] = {}
        self._dirs: set[str] = set()

    def seed(self, files: dict[str, str]) -> None:
        for relpath, content in sorted(files.items()):
            self.write(relpath, content)

    @staticmethod
    def _key(relpath: str) -> str:
        key = posixpath.normpath(relpath)
        if key in (".", "..") or key.startswith(("/", "../")) or "\0" in key:
            raise ConfigurationError(f"not a file path inside the workspace: {relpath!r}")
        return key

    def exists(self, relpath: str) -> bool:
        return self._key(relpath) in self._files

    def read(self, relpath: str) -> str:
        try:
            return self._files[self._key(relpath)]
        except KeyError:
            raise ConfigurationError(f"no such workspace file: {relpath}") from None

    def write(self, relpath: str, content: str) -> None:
        key = self._key(relpath)
        parents = []
        parent = posixpath.dirname(key)
        while parent:
            parents.append(parent)
            parent = posixpath.dirname(parent)
        if key in self._dirs or any(p in self._files for p in parents):
            raise ConfigurationError(f"path conflicts with a file or directory: {relpath}")
        try:
            content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigurationError(
                f"text is not encodable as UTF-8: {exc.reason} at position {exc.start}"
            ) from None
        if "\r" in content:
            content = content.replace("\r\n", "\n").replace("\r", "\n")
        self._files[key] = content
        self._dirs.update(parents)


# ---------------------------------------------------------------------------
# Checker evaluation
# ---------------------------------------------------------------------------


def _read_rows(workspace: Workspace, relpath: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(workspace.read(relpath)))
    rows = [row for row in reader if row]
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _read_metadata(workspace: Workspace, relpath: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for line in workspace.read(relpath).splitlines():
        if ":" in line:
            key, value = line.split(":", 1)
            table[key.strip()] = value.strip()
    return table


def evaluate_checker(checker: CheckerSpec, workspace: Workspace) -> tuple[bool, str]:
    """Deterministic verdict plus a bounded diagnostic.

    Diagnostics may describe expected-versus-actual shape, but never echo the
    expected value of an answer-style unit.
    """
    if not workspace.exists(checker.file):
        if isinstance(checker, AnswerEquals):
            return False, "no answer recorded yet"
        return False, f"artifact file missing: {checker.file}"
    if isinstance(checker, FieldEquals):
        header, rows = _read_rows(workspace, checker.file)
        if checker.column not in header:
            return False, f'field check failed: column "{checker.column}" missing'
        col = header.index(checker.column)
        for row in rows:
            if row and row[0].strip() == checker.row_key:
                actual = row[col].strip() if col < len(row) else "<missing>"
                if actual == checker.expected:
                    return True, "check passed"
                return False, (
                    f'field check failed: expected "{checker.expected}", actual "{actual}"'
                )
        return False, f'field check failed: no row keyed "{checker.row_key}"'
    if isinstance(checker, RowCount):
        _, rows = _read_rows(workspace, checker.file)
        if len(rows) == checker.expected:
            return True, "check passed"
        return False, f"row count check failed: expected {checker.expected}, found {len(rows)}"
    if isinstance(checker, KeyPresent):
        table = _read_metadata(workspace, checker.file)
        actual = table.get(checker.key, "<missing>")
        if actual == checker.expected_value:
            return True, "check passed"
        return False, (
            f'metadata check failed: key "{checker.key}" expected '
            f'"{checker.expected_value}", actual "{actual}"'
        )
    if isinstance(checker, AnswerEquals):
        stored = normalize_answer(workspace.read(checker.file))
        if stored == checker.expected_normalized:
            return True, "check passed"
        return False, "stored answer does not match the required value"
    if isinstance(checker, FileDigest):
        actual = hashlib.sha256(workspace.read(checker.file).encode("utf-8")).hexdigest()
        if actual == checker.expected_digest:
            return True, "check passed"
        return False, (
            f"digest check failed: expected {checker.expected_digest[:12]}, "
            f"actual {actual[:12]}"
        )
    raise ConfigurationError(f"unknown checker: {checker!r}")


# ---------------------------------------------------------------------------
# Unit operations
# ---------------------------------------------------------------------------


def _unknown_unit(unit_id: str) -> UnitFeedback:
    return UnitFeedback(
        unit_id=unit_id,
        verdict=Verdict.FAIL,
        detail=f"unknown unit id: {unit_id}",
        status_after=UnitStatus.PENDING,
    )


def inspect_unit(backlog: Backlog, workspace: Workspace, unit_id: str) -> UnitFeedback:
    unit = backlog.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if workspace.exists(unit.artifact_path):
        excerpt = workspace.read(unit.artifact_path)[:200]
    else:
        excerpt = "<no artifact file>"
    detail = f"{unit.prompt}\n---\n{excerpt}"
    return UnitFeedback(
        unit_id=unit_id, verdict=Verdict.PASS, detail=detail, status_after=unit.status
    )


def _apply_csv_edit(workspace: Workspace, relpath: str, payload: dict) -> str | None:
    header, rows = _read_rows(workspace, relpath)
    column = payload["column"]
    if column not in header:
        return f'edit failed: column "{column}" missing'
    col = header.index(column)
    for row in rows:
        if row and row[0].strip() == payload["row_key"]:
            while len(row) <= col:
                row.append("")
            row[col] = payload["value"]
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            workspace.write(relpath, out.getvalue())
            return None
    return f'edit failed: no row keyed "{payload["row_key"]}"'


def apply_edit(
    backlog: Backlog, workspace: Workspace, unit_id: str, payload: str
) -> UnitFeedback:
    """Interpret the payload per unit kind; the checker is never run here."""
    unit = backlog.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if unit.status == UnitStatus.PASSED:
        return UnitFeedback(
            unit_id=unit_id,
            verdict=Verdict.PASS,
            detail="unit already passed; edit ignored",
            status_after=UnitStatus.PASSED,
        )
    unit.mark_attempted()
    error: str | None = None
    try:
        if unit.kind in _CSV_KINDS:
            decoded = json.loads(payload)
            if not isinstance(decoded, dict) or not {"row_key", "column", "value"} <= set(
                decoded
            ):
                error = "malformed edit payload: need row_key, column, value"
            elif not workspace.exists(unit.artifact_path):
                error = f"artifact file missing: {unit.artifact_path}"
            else:
                error = _apply_csv_edit(workspace, unit.artifact_path, decoded)
        elif unit.kind == "metadata_repair":
            decoded = json.loads(payload)
            if not isinstance(decoded, dict) or not {"key", "value"} <= set(decoded):
                error = "malformed edit payload: need key, value"
            elif not workspace.exists(unit.artifact_path):
                error = f"artifact file missing: {unit.artifact_path}"
            else:
                lines = workspace.read(unit.artifact_path).splitlines()
                key = str(decoded["key"])
                replaced = False
                for i, line in enumerate(lines):
                    if line.split(":", 1)[0].strip() == key:
                        lines[i] = f"{key}: {decoded['value']}"
                        replaced = True
                if not replaced:
                    lines.append(f"{key}: {decoded['value']}")
                workspace.write(unit.artifact_path, "\n".join(lines) + "\n")
        elif unit.kind == "consistency_answer":
            workspace.write(unit.artifact_path, payload)
        else:
            workspace.write(unit.artifact_path, payload)
    except (json.JSONDecodeError, ConfigurationError) as exc:
        error = f"malformed edit payload: {exc}"
    if error is not None:
        return UnitFeedback(
            unit_id=unit_id, verdict=Verdict.FAIL, detail=error, status_after=unit.status
        )
    return UnitFeedback(
        unit_id=unit_id,
        verdict=Verdict.PASS,
        detail=f"edit applied to {unit.artifact_path}",
        status_after=unit.status,
    )


def run_check(backlog: Backlog, workspace: Workspace, unit_id: str) -> UnitFeedback:
    unit = backlog.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if unit.status == UnitStatus.PASSED:
        return UnitFeedback(
            unit_id=unit_id,
            verdict=Verdict.PASS,
            detail="unit already passed",
            status_after=UnitStatus.PASSED,
        )
    ok, detail = evaluate_checker(unit.checker, workspace)
    if ok:
        unit.status = UnitStatus.PASSED
        return UnitFeedback(
            unit_id=unit_id, verdict=Verdict.PASS, detail=detail, status_after=UnitStatus.PASSED
        )
    unit.mark_attempted()
    return UnitFeedback(
        unit_id=unit_id, verdict=Verdict.FAIL, detail=detail, status_after=unit.status
    )


def submit_unit(backlog: Backlog, ledger: RunLedger, unit_id: str) -> SubmitFeedback:
    """Judge one unit submission and fold it into the ledger.

    A unit the ledger already counts is a duplicate; a unit whose checker has
    accepted it is counted; any other id, known or not, is rejected every time
    it is submitted. Unit ids match exactly, so a padded id is unknown.
    """
    unit = backlog.get(unit_id)
    key = normalize_id(unit_id)
    if unit is not None and key in ledger.valid_ids:
        verdict = IdVerdict.DUPLICATE
    elif unit is not None and unit.status == UnitStatus.PASSED:
        verdict = IdVerdict.ACCEPT_NEW
    else:
        verdict = IdVerdict.REJECT
    return record_submission(ledger, [(key, verdict)])


# ---------------------------------------------------------------------------
# Backlog generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureSources:
    csv_paths: tuple[str, ...] = ()
    snapshot_roots: tuple[str, ...] = ()


@dataclass
class DataopsTask:
    spec: TaskSpec
    units: list[BacklogUnit]
    files: dict[str, str]


@dataclass
class DataopsManifest:
    metadata: dict
    tasks: list[DataopsTask]


def _load_csv_source(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 4:
        raise GenerationError(f"insufficient source rows in {path}")
    return rows[0], rows[1:]


def _fixture_rows(rng, data: list[list[str]], want: int = 12) -> list[list[str]]:
    # Keep original order, unique first-column keys, no quoting hazards.
    indices = list(range(len(data)))
    rng.shuffle(indices)
    chosen: list[int] = []
    keys: set[str] = set()
    for i in indices:
        key = data[i][0].strip()
        if not key or key in keys or '"' in ",".join(data[i]):
            continue
        keys.add(key)
        chosen.append(i)
        if len(chosen) >= want:
            break
    if len(chosen) < 3:
        raise GenerationError("insufficient usable source rows")
    return [list(data[i]) for i in sorted(chosen)]


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _corrupt_value(rng, value: str) -> str:
    try:
        return str(int(value) + 1 + rng.randrange(3))
    except ValueError:
        pass
    try:
        return str(float(value) + 1.0)
    except ValueError:
        return value + "x"


@dataclass
class _SnapshotFixture:
    name: str
    metadata_lines: list[str]
    artifacts: list[tuple[str, str]]  # (basename, text)


def _snapshot_fixture(root: Path) -> _SnapshotFixture:
    from .reposcan import read_snapshot

    snapshot = read_snapshot(root)
    corpus = snapshot.corpus
    if not corpus:
        raise GenerationError(f"snapshot {root} has no indexable artifacts")
    kinds = {}
    for artifact in corpus:
        kinds[artifact.kind] = kinds.get(artifact.kind, 0) + 1
    lines = [
        f"name: {root.name}",
        f"artifacts: {len(corpus)}",
        f"revision: {snapshot.digest[:12]}",
    ]
    for kind in sorted(kinds):
        lines.append(f"{kind}_count: {kinds[kind]}")
    artifacts = [
        (a.relpath.replace("/", "_"), a.text[:2000]) for a in corpus if a.text.strip()
    ]
    return _SnapshotFixture(name=root.name, metadata_lines=lines, artifacts=artifacts)


def _build_unit(
    rng,
    kind: str,
    unit_idx: int,
    csv_sources: list[tuple[str, list[str], list[list[str]]]],
    snap_fixtures: list[_SnapshotFixture],
    files: dict[str, str],
) -> BacklogUnit:
    unit_id = f"u{unit_idx:03d}"
    if kind in _CSV_KINDS:
        stem, header, data = csv_sources[rng.randrange(len(csv_sources))]
        rows = _fixture_rows(rng, data)
        relpath = f"data/{stem}_{unit_idx:03d}.csv"
        if kind == "csv_count_check":
            files[relpath] = _csv_text(header, rows)
            checker: CheckerSpec = RowCount(file=relpath, expected=len(rows))
            prompt = f"Run the row-count check for {relpath} and submit the unit once it passes."
        else:
            columns = [c for c in range(1, len(header)) if header[c].strip()]
            if not columns:
                raise GenerationError(f"source {stem} has no non-key columns")
            col = rng.choice(columns)
            usable = [r for r in rows if len(r) > col and r[col].strip()]
            if not usable:
                raise GenerationError(f"source {stem} column {header[col]!r} has no usable cells")
            row = rng.choice(usable)
            expected = row[col].strip()
            corrupted = [list(r) for r in rows]
            for r in corrupted:
                if r[0].strip() == row[0].strip():
                    r[col] = _corrupt_value(rng, expected)
            files[relpath] = _csv_text(header, corrupted)
            checker = FieldEquals(
                file=relpath, row_key=row[0].strip(), column=header[col], expected=expected
            )
            prompt = (
                f'Ensure column "{header[col]}" of the row keyed "{row[0].strip()}" in '
                f"{relpath} matches the verified source value; run the check and repair "
                f"the cell if it fails."
            )
    elif kind == "metadata_repair":
        fixture = snap_fixtures[rng.randrange(len(snap_fixtures))]
        relpath = f"meta/{fixture.name}_{unit_idx:03d}.txt"
        lines = list(fixture.metadata_lines)
        target_line = rng.randrange(len(lines))
        key, value = lines[target_line].split(":", 1)
        key, value = key.strip(), value.strip()
        if rng.random() < 0.5:
            lines[target_line] = f"{key}: {value}x"
        else:
            del lines[target_line]
        files[relpath] = "\n".join(lines) + "\n"
        checker = KeyPresent(file=relpath, key=key, expected_value=value)
        prompt = (
            f'Ensure metadata key "{key}" in {relpath} carries the verified value; '
            f"repair it if the check fails."
        )
    elif kind == "consistency_answer":
        token = f"tag-{rng.randrange(16 ** 8):08x}"
        relpath = f"answers/{unit_id}.txt"
        checker = AnswerEquals(file=relpath, expected_normalized=normalize_answer(token))
        prompt = (
            f'Record the consistency answer for this backlog: reply with the reference '
            f'token "{token}" exactly.'
        )
    elif kind == "artifact_validation":
        fixture = snap_fixtures[rng.randrange(len(snap_fixtures))]
        basename, text = fixture.artifacts[rng.randrange(len(fixture.artifacts))]
        relpath = f"artifacts/{unit_idx:03d}_{basename}"
        files[relpath] = text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        checker = FileDigest(file=relpath, expected_digest=digest)
        prompt = f"Run the integrity check for {relpath} and submit the unit once the digest verifies."
    else:
        raise GenerationError(f"unknown unit kind: {kind}")
    return BacklogUnit(
        unit_id=unit_id, kind=kind, prompt=prompt, artifact_path=relpath, checker=checker
    )


def generate_backlog(
    sources: FixtureSources,
    target_count: int,
    seed: int,
    budget_map: dict[int, int] | None = None,
    task_id: str | None = None,
) -> tuple[Backlog, TaskSpec, dict[str, str]]:
    """Build one backlog of target_count + 2 mixed-kind units plus its task spec."""
    budgets = dict(DATAOPS_BUDGETS if budget_map is None else budget_map)
    if target_count not in budgets:
        raise GenerationError(f"no budget configured for target {target_count}")
    rng = stream(seed, "dataops-backlog")
    csv_sources = []
    for path in sources.csv_paths:
        p = Path(path)
        header, data = _load_csv_source(p)
        csv_sources.append((p.stem, header, data))
    snap_fixtures = [_snapshot_fixture(Path(p)) for p in sources.snapshot_roots]
    kinds = []
    if csv_sources:
        kinds += ["csv_field_check", "csv_count_check"]
    if snap_fixtures:
        kinds += ["metadata_repair", "artifact_validation"]
    kinds.append("consistency_answer")
    if len(kinds) == 1 and not csv_sources and not snap_fixtures:
        raise GenerationError("dataops generation needs at least one CSV or snapshot source")
    pattern = list(kinds)
    rng.shuffle(pattern)

    size = target_count + 2
    files: dict[str, str] = {}
    units = [
        _build_unit(rng, pattern[i % len(pattern)], i, csv_sources, snap_fixtures, files)
        for i in range(size)
    ]
    backlog_id = task_id or f"dataops-n{target_count}-s{seed}"
    spec = TaskSpec(
        task_id=backlog_id,
        family=Family.DATAOPS,
        objective_text=f"complete {target_count} verified work units from the backlog",
        target_count=target_count,
        budget=budgets[target_count],
        seed=seed,
        verifier_config=backlog_id,
    )
    return Backlog(backlog_id=backlog_id, units=units), spec, files


def generate_dataops_manifest(
    sources: FixtureSources,
    targets: Sequence[int] = (3, 5, 10, 20),
    instances_per_target: int = 6,
    seed: int = 0,
    budget_map: dict[int, int] | None = None,
    verify_solvable: bool = True,
    workspace_root: str | None = None,
) -> DataopsManifest:
    """Generate and, unless told not to, solve every backlog.

    `workspace_root` is accepted and ignored: workspaces are held in memory.
    """
    budgets = dict(DATAOPS_BUDGETS if budget_map is None else budget_map)
    tasks: list[DataopsTask] = []
    for target in targets:
        for idx in range(instances_per_target):
            task_id = f"dataops-n{target}-b{idx}"
            backlog, spec, files = generate_backlog(
                sources,
                target,
                seed=derive_seed(seed, "dataops", target, idx),
                budget_map=budgets,
                task_id=task_id,
            )
            task = DataopsTask(spec=spec, units=backlog.units, files=files)
            if verify_solvable:
                _assert_solvable(task)
            tasks.append(task)
    metadata = {
        "seed": seed,
        "targets": list(targets),
        "instances_per_target": instances_per_target,
        "budget_map": {str(k): v for k, v in sorted(budgets.items())},
        "task_count": len(tasks),
        "sources": {
            "csv": [str(p) for p in sources.csv_paths],
            "snapshots": [str(p) for p in sources.snapshot_roots],
        },
    }
    return DataopsManifest(metadata=metadata, tasks=tasks)


def _assert_solvable(task: DataopsTask) -> None:
    # The scripted solver must clear every generated backlog within budget.
    from .controllers import StandardController
    from .core import run_episode
    from .policies import SolverPolicy

    env = DataopsEnvironment(task.spec, task.units, task.files)
    try:
        record = run_episode(task.spec, env, StandardController(), SolverPolicy())
    finally:
        env.close()
    if record.outcome.value != "success":
        raise GenerationError(
            f"backlog {task.spec.task_id} not solvable within budget "
            f"(outcome={record.outcome.value}, valid={record.ledger.valid_count})"
        )


# ---------------------------------------------------------------------------
# Manifest file format
# ---------------------------------------------------------------------------

PUBLIC_UNIT_FIELDS = ("unit_id", "kind", "prompt", "artifact_path")


def manifest_to_dict(manifest: DataopsManifest) -> dict:
    return {
        "format": "qgp-manifest",
        "family": Family.DATAOPS.value,
        "version": 1,
        "metadata": manifest.metadata,
        "tasks": [
            {
                "task_id": t.spec.task_id,
                "family": Family.DATAOPS.value,
                "objective_text": t.spec.objective_text,
                "target_count": t.spec.target_count,
                "budget": t.spec.budget,
                "seed": t.spec.seed,
                "units": [
                    {
                        "unit_id": u.unit_id,
                        "kind": u.kind,
                        "prompt": u.prompt,
                        "artifact_path": u.artifact_path,
                    }
                    for u in t.units
                ],
                "hidden": {
                    "checkers": {u.unit_id: checker_to_dict(u.checker) for u in t.units},
                    "files": t.files,
                },
            }
            for t in manifest.tasks
        ],
    }


def write_manifest(manifest: DataopsManifest, path: str | Path) -> str:
    payload = json.dumps(manifest_to_dict(manifest), sort_keys=True, indent=1)
    Path(path).write_text(payload + "\n", encoding="utf-8")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_manifest(path: str | Path) -> DataopsManifest:
    with loading(path):
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if obj.get("format") != "qgp-manifest" or obj.get("family") != Family.DATAOPS.value:
            raise ConfigurationError(f"not a dataops manifest: {path}")
        tasks = []
        for entry in obj["tasks"]:
            spec = TaskSpec(
                task_id=entry["task_id"],
                family=Family.DATAOPS,
                objective_text=entry["objective_text"],
                target_count=entry["target_count"],
                budget=entry["budget"],
                seed=entry["seed"],
                verifier_config=entry["task_id"],
            )
            checkers = entry["hidden"]["checkers"]
            units = [
                BacklogUnit(
                    unit_id=u["unit_id"],
                    kind=u["kind"],
                    prompt=u["prompt"],
                    artifact_path=u["artifact_path"],
                    checker=checker_from_dict(checkers[u["unit_id"]]),
                )
                for u in entry["units"]
            ]
            files = dict(entry["hidden"]["files"])
            tasks.append(DataopsTask(spec=spec, units=units, files=files))
        metadata = obj["metadata"]
    ids = [t.spec.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate task ids in manifest: {path}")
    return DataopsManifest(metadata=metadata, tasks=tasks)


def load_public_tasks(path: str | Path) -> list[dict]:
    """Policy-facing loader: unit checkers and fixture files are skipped."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = []
    for task in obj.get("tasks", []):
        row = {
            k: task[k]
            for k in ("task_id", "family", "objective_text", "target_count", "budget", "seed")
            if k in task
        }
        row["units"] = [
            {k: u[k] for k in PUBLIC_UNIT_FIELDS if k in u} for u in task.get("units", [])
        ]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class DataopsEnvironment:
    """Serves Inspect/Edit/RunCheck/SubmitUnit inside its own in-memory workspace."""

    family = Family.DATAOPS
    page_size = 10

    def __init__(
        self, task: TaskSpec, units: Sequence[BacklogUnit], files: dict[str, str]
    ) -> None:
        self.task = task
        # Fresh unit state per run; manifests are immutable.
        self.backlog = Backlog(
            backlog_id=task.task_id,
            units=[
                BacklogUnit(
                    unit_id=u.unit_id,
                    kind=u.kind,
                    prompt=u.prompt,
                    artifact_path=u.artifact_path,
                    checker=u.checker,
                )
                for u in units
            ],
        )
        self.workspace = Workspace()
        self.workspace.seed(files)

    def public_view(self) -> PublicTaskView:
        return PublicTaskView(
            task_id=self.task.task_id,
            family=Family.DATAOPS,
            objective_text=self.task.objective_text,
            target_count=self.task.target_count,
            budget=self.task.budget,
            units=tuple(
                UnitPublicView(
                    unit_id=u.unit_id,
                    kind=u.kind,
                    prompt=u.prompt,
                    artifact_path=u.artifact_path,
                )
                for u in self.backlog.units
            ),
        )

    def execute(self, action: Action, ledger: RunLedger) -> Observation:
        if isinstance(action, Inspect):
            return inspect_unit(self.backlog, self.workspace, action.unit_id)
        if isinstance(action, Edit):
            return apply_edit(self.backlog, self.workspace, action.unit_id, action.payload)
        if isinstance(action, RunCheck):
            return run_check(self.backlog, self.workspace, action.unit_id)
        if isinstance(action, SubmitUnit):
            return submit_unit(self.backlog, ledger, action.unit_id)
        raise ConfigurationError(f"dataops cannot execute {action!r}")

    def close(self) -> None:
        """Nothing to release: the workspace lives in memory and goes with the
        environment. Kept so that callers close every environment alike."""
