"""Checker-backed backlog family: work units over CSV snippets and repo fixtures.

A backlog is its task: a spec, its units and the files they start from. Each
unit kind is declared once, on its checker class, from the sources its units
draw from and how generation builds one to how a repair is read back from
the unit's public prompt and diagnostic. A manifest reads each CSV source and
walks each snapshot root once. Each run copies the units, keyed by unit id,
and a workspace held in memory that no policy can reach. A unit only counts
once its checker accepts it and it is then submitted; checker internals stay
out of the policy-facing views, which a manifest's own smoke checks scan.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import posixpath
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Sequence, Union

from .actions import (
    Action,
    Edit,
    Family,
    Inspect,
    Observation,
    Outcome,
    RunCheck,
    Schema,
    SubmitFeedback,
    SubmitUnit,
    UnitFeedback,
    UnitStatus,
    TaggedCodec,
    Verdict,
)
from .core import (
    PublicTaskView,
    RunLedger,
    TaskSpec,
    UnitPublicView,
    read_manifest_file,
    record_submission,
    write_manifest_file,
)
from .errors import ConfigurationError, GenerationError, QgpError, loading
from .seeding import derive_seed, stream
from .verifier import IdVerdict, normalize_id

DATAOPS_BUDGETS = {3: 30, 5: 50, 10: 90, 20: 160}


# ---------------------------------------------------------------------------
# Checkers: each class is the one declaration of its unit kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvEdit:
    """The edit payload of a CSV unit: set one cell."""

    row_key: str
    column: str
    value: str

    def apply(self, workspace: Workspace, relpath: str) -> str | None:
        """Set the cell; returns why it could not, or None. A value the `csv`
        module would refuse to read back is refused, leaving the file as it was."""
        limit = csv.field_size_limit()
        if len(self.value) > limit:
            return f"edit failed: value longer than the CSV field limit ({limit} characters)"
        header, rows = _read_rows(workspace, relpath)
        if self.column not in header:
            return f'edit failed: column "{self.column}" missing'
        col = header.index(self.column)
        for row in rows:
            if row and row[0].strip() == self.row_key:
                while len(row) <= col:
                    row.append("")
                row[col] = self.value
                workspace.write(relpath, _csv_text(header, rows))
                return None
        return f'edit failed: no row keyed "{self.row_key}"'


@dataclass(frozen=True)
class MetadataEdit:
    """The edit payload of a metadata unit: set one `key: value` line."""

    key: str
    value: str

    def apply(self, workspace: Workspace, relpath: str) -> None:
        lines = workspace.read(relpath).splitlines()
        replaced = False
        for i, line in enumerate(lines):
            if line.split(":", 1)[0].strip() == self.key:
                lines[i] = f"{self.key}: {self.value}"
                replaced = True
        if not replaced:
            lines.append(f"{self.key}: {self.value}")
        workspace.write(relpath, "\n".join(lines) + "\n")


_EDIT_SCHEMAS = {edit: Schema(edit, ConfigurationError) for edit in (CsvEdit, MetadataEdit)}
_FILE_MISSING = "artifact file missing: {}"
_QUOTED = re.compile(r'"([^"]*)"')


def _quote(text: str, index: int) -> str:
    """The `index`th double-quoted string in `text`, or "" when there is none."""
    quotes = _QUOTED.findall(text)
    return quotes[index] if -len(quotes) <= index < len(quotes) else ""


def _payload(edit: CsvEdit | MetadataEdit) -> str:
    return json.dumps(_EDIT_SCHEMAS[type(edit)].encode(edit))


# Each checker class declares its unit `kind`, its manifest `tag`, the source
# its units `draws` from ("tables", "fixtures" or None), the record its edit
# payload is read as (`edit`; None: the file's new text), its answer while its
# file is `missing`, how generation `build`s a unit from one drawn source, its
# rule (`verdict`), and the `repair` it reads from the prompt and diagnostic.


@dataclass(frozen=True)
class FieldEquals:
    file: str
    row_key: str
    column: str
    expected: str

    kind: ClassVar[str] = "csv_field_check"
    tag: ClassVar[str] = "field_equals"
    draws: ClassVar[str | None] = "tables"
    edit: ClassVar[type | None] = CsvEdit
    missing: ClassVar[str] = _FILE_MISSING

    @classmethod
    def build(cls, rng, index: int, table: CsvTable, files: dict[str, str]):
        stem, header, data = table
        rows = _fixture_rows(rng, data)
        relpath = f"data/{stem}_{index:03d}.csv"
        columns = [c for c in range(1, len(header)) if header[c].strip()]
        if not columns:
            raise GenerationError(f"source {stem} has no non-key columns")
        col = rng.choice(columns)
        usable = [r for r in rows if len(r) > col and r[col].strip()]
        if not usable:
            raise GenerationError(f"source {stem} column {header[col]!r} has no usable cells")
        # Row keys are unique, and `rows` are the unit's own copies.
        row = rng.choice(usable)
        key, expected = row[0].strip(), row[col].strip()
        row[col] = _corrupt_value(rng, expected)
        files[relpath] = _csv_text(header, rows)
        prompt = (
            f'Ensure column "{header[col]}" of the row keyed "{key}" in '
            f"{relpath} matches the verified source value; run the check and repair "
            f"the cell if it fails."
        )
        return cls(file=relpath, row_key=key, column=header[col], expected=expected), prompt

    def verdict(self, workspace: Workspace) -> tuple[bool, str]:
        header, rows = _read_rows(workspace, self.file)
        if self.column not in header:
            return False, f'field check failed: column "{self.column}" missing'
        col = header.index(self.column)
        for row in rows:
            if row and row[0].strip() == self.row_key:
                actual = row[col].strip() if col < len(row) else "<missing>"
                if actual == self.expected:
                    return True, "check passed"
                return False, f'field check failed: expected "{self.expected}", actual "{actual}"'
        return False, f'field check failed: no row keyed "{self.row_key}"'

    @classmethod
    def repair(cls, prompt: str, detail: str) -> str:
        # The prompt quotes the column, then the row key; a diagnostic, the value first.
        row_key, column, value = _quote(prompt, 1), _quote(prompt, 0), _quote(detail, 0)
        return _payload(cls.edit(row_key=row_key, column=column, value=value))


@dataclass(frozen=True)
class RowCount:
    file: str
    expected: int

    kind: ClassVar[str] = "csv_count_check"
    tag: ClassVar[str] = "row_count"
    draws: ClassVar[str | None] = "tables"
    edit: ClassVar[type | None] = CsvEdit
    missing: ClassVar[str] = _FILE_MISSING
    # Its file starts right; a cell edit is read back as a field unit's.
    repair = FieldEquals.repair

    @classmethod
    def build(cls, rng, index: int, table: CsvTable, files: dict[str, str]):
        stem, header, data = table
        rows = _fixture_rows(rng, data)
        relpath = f"data/{stem}_{index:03d}.csv"
        files[relpath] = _csv_text(header, rows)
        prompt = f"Run the row-count check for {relpath} and submit the unit once it passes."
        return cls(file=relpath, expected=len(rows)), prompt

    def verdict(self, workspace: Workspace) -> tuple[bool, str]:
        _, rows = _read_rows(workspace, self.file)
        if len(rows) == self.expected:
            return True, "check passed"
        return False, f"row count check failed: expected {self.expected}, found {len(rows)}"


@dataclass(frozen=True)
class KeyPresent:
    file: str
    key: str
    expected_value: str

    kind: ClassVar[str] = "metadata_repair"
    tag: ClassVar[str] = "key_present"
    draws: ClassVar[str | None] = "fixtures"
    edit: ClassVar[type | None] = MetadataEdit
    missing: ClassVar[str] = _FILE_MISSING

    @classmethod
    def build(cls, rng, index: int, fixture: _SnapshotFixture, files: dict[str, str]):
        relpath = f"meta/{fixture.name}_{index:03d}.txt"
        lines = list(fixture.metadata_lines)
        target_line = rng.randrange(len(lines))
        key, value = (part.strip() for part in lines[target_line].split(":", 1))
        if rng.random() < 0.5:
            lines[target_line] = f"{key}: {value}x"
        else:
            del lines[target_line]
        files[relpath] = "\n".join(lines) + "\n"
        prompt = (
            f'Ensure metadata key "{key}" in {relpath} carries the verified value; '
            f"repair it if the check fails."
        )
        return cls(file=relpath, key=key, expected_value=value), prompt

    def verdict(self, workspace: Workspace) -> tuple[bool, str]:
        # The last `key: value` line of its key counts.
        actual = "<missing>"
        for line in workspace.read(self.file).splitlines():
            key, colon, value = line.partition(":")
            if colon and key.strip() == self.key:
                actual = value.strip()
        if actual == self.expected_value:
            return True, "check passed"
        return False, (
            f'metadata check failed: key "{self.key}" expected '
            f'"{self.expected_value}", actual "{actual}"'
        )

    @classmethod
    def repair(cls, prompt: str, detail: str) -> str:
        # The diagnostic quotes the key, then the expected value.
        return _payload(cls.edit(key=_quote(prompt, 0), value=_quote(detail, 1)))


@dataclass(frozen=True)
class AnswerEquals:
    file: str
    expected_normalized: str

    kind: ClassVar[str] = "consistency_answer"
    tag: ClassVar[str] = "answer_equals"
    draws: ClassVar[str | None] = None
    edit: ClassVar[type | None] = None
    missing: ClassVar[str] = "no answer recorded yet"

    @classmethod
    def build(cls, rng, index: int, source: None, files: dict[str, str]):
        token = f"tag-{rng.randrange(16 ** 8):08x}"
        prompt = (
            f'Record the consistency answer for this backlog: reply with the reference '
            f'token "{token}" exactly.'
        )
        checker = cls(file=f"answers/u{index:03d}.txt", expected_normalized=normalize_answer(token))
        return checker, prompt

    def verdict(self, workspace: Workspace) -> tuple[bool, str]:
        # The diagnostic never echoes the expected answer.
        stored = normalize_answer(workspace.read(self.file))
        if stored == self.expected_normalized:
            return True, "check passed"
        return False, "stored answer does not match the required value"

    @staticmethod
    def repair(prompt: str, detail: str) -> str:
        return _quote(prompt, -1)


@dataclass(frozen=True)
class FileDigest:
    file: str
    expected_digest: str

    kind: ClassVar[str] = "artifact_validation"
    tag: ClassVar[str] = "file_digest"
    draws: ClassVar[str | None] = "fixtures"
    edit: ClassVar[type | None] = None
    missing: ClassVar[str] = _FILE_MISSING

    @classmethod
    def build(cls, rng, index: int, fixture: _SnapshotFixture, files: dict[str, str]):
        basename, text = fixture.artifacts[rng.randrange(len(fixture.artifacts))]
        relpath = f"artifacts/{index:03d}_{basename}"
        files[relpath] = text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        prompt = f"Run the integrity check for {relpath} and submit the unit once the digest verifies."
        return cls(file=relpath, expected_digest=digest), prompt

    def verdict(self, workspace: Workspace) -> tuple[bool, str]:
        actual = hashlib.sha256(workspace.read(self.file).encode("utf-8")).hexdigest()
        if actual == self.expected_digest:
            return True, "check passed"
        return False, (
            f"digest check failed: expected {self.expected_digest[:12]}, "
            f"actual {actual[:12]}"
        )

    @staticmethod
    def repair(prompt: str, detail: str) -> str:
        # Its file starts right; the text it was built from is not public.
        return ""


CheckerSpec = Union[FieldEquals, RowCount, KeyPresent, AnswerEquals, FileDigest]

# Generation cycles through the kinds whose sources a manifest has, in this order.
CHECKER_TYPES = (FieldEquals, RowCount, KeyPresent, FileDigest, AnswerEquals)
CHECKERS = TaggedCodec("checker", "type", {cls.tag: cls for cls in CHECKER_TYPES}, ValueError)
# The checker class of each unit kind, which policies look a unit's repair up in.
UNIT_KINDS = {cls.kind: cls for cls in CHECKER_TYPES}


def normalize_answer(text: str) -> str:
    # Trim and collapse internal whitespace; comparisons stay case-sensitive.
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Units and workspace
# ---------------------------------------------------------------------------


@dataclass
class BacklogUnit:
    unit_id: str
    prompt: str
    artifact_path: str
    checker: CheckerSpec
    status: UnitStatus = UnitStatus.PENDING

    @property
    def kind(self) -> str:
        return self.checker.kind

    def mark_attempted(self) -> None:
        if self.status == UnitStatus.PENDING:
            self.status = UnitStatus.ATTEMPTED

    def feedback(self, passed: bool, detail: str) -> UnitFeedback:
        """An operation's answer, with the unit's status as the operation left it."""
        verdict = Verdict.PASS if passed else Verdict.FAIL
        return UnitFeedback(self.unit_id, verdict, detail, self.status)


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

    def copy(self) -> Workspace:
        """An independent workspace holding the same files."""
        other = Workspace()
        other._files = dict(self._files)
        other._dirs = set(self._dirs)
        return other

    def seed(self, files: dict[str, str]) -> None:
        """Write every file in path order; the error names a refused file."""
        for relpath, content in sorted(files.items()):
            try:
                self.write(relpath, content)
            except ConfigurationError as exc:
                raise ConfigurationError(f"file {relpath!r}: {exc}") from None

    @staticmethod
    def _key(relpath: str) -> str:
        key = posixpath.normpath(relpath)
        if key in (".", "..") or key.startswith(("/", "../")) or "\0" in key:
            raise ConfigurationError(f"not a file path inside the workspace: {relpath!r}")
        return key

    # A stored key is a `normpath` output that passed `_key`'s checks, and
    # `normpath` is idempotent, so `exists` and `read` look a stored key up as
    # it is and send every other path through `_key`.

    def exists(self, relpath: str) -> bool:
        return relpath in self._files or self._key(relpath) in self._files

    def read(self, relpath: str) -> str:
        text = self._files.get(relpath)
        if text is not None:
            return text
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
        if not content.isascii():
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


class CsvParseError(ValueError):
    """CSV text that the `csv` module refuses, such as a field longer than
    `csv.field_size_limit()`."""


def _csv_rows(lines: Iterable[str]) -> list[list[str]]:
    """The non-empty rows of CSV text."""
    reader = csv.reader(lines)
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise CsvParseError(f"line {reader.line_num}: {exc}") from exc


def _read_rows(workspace: Workspace, relpath: str) -> tuple[list[str], list[list[str]]]:
    """A workspace CSV file's header and data rows; text that an edit made
    unreadable raises CsvParseError, which fails the check or the edit."""
    rows = _csv_rows(io.StringIO(workspace.read(relpath)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def evaluate_checker(checker: CheckerSpec, workspace: Workspace) -> tuple[bool, str]:
    """Deterministic verdict plus a bounded diagnostic: the checker's rule,
    once its file exists.

    Diagnostics may describe expected-versus-actual shape, but never echo the
    expected value of an answer-style unit.
    """
    if not workspace.exists(checker.file):
        return False, checker.missing.format(checker.file)
    try:
        return checker.verdict(workspace)
    except CsvParseError as exc:
        return False, f"check failed: cannot parse {checker.file}: {exc}"


# ---------------------------------------------------------------------------
# Unit operations
# ---------------------------------------------------------------------------


def _unknown_unit(unit_id: str) -> UnitFeedback:
    return UnitFeedback(unit_id, Verdict.FAIL, f"unknown unit id: {unit_id}", UnitStatus.PENDING)


def inspect_unit(
    units: dict[str, BacklogUnit], workspace: Workspace, unit_id: str
) -> UnitFeedback:
    unit = units.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if workspace.exists(unit.artifact_path):
        excerpt = workspace.read(unit.artifact_path)[:200]
    else:
        excerpt = "<no artifact file>"
    return unit.feedback(True, f"{unit.prompt}\n---\n{excerpt}")


def apply_edit(
    units: dict[str, BacklogUnit], workspace: Workspace, unit_id: str, payload: str
) -> UnitFeedback:
    """Read the payload as the unit's checker class says; the checker is never run here.

    A CSV or metadata payload is a JSON object read as a `CsvEdit` or a
    `MetadataEdit`, with string fields; one that does not fit fails the step
    as a malformed edit payload, naming the field. Any other payload is the
    file's new text.
    """
    unit = units.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if unit.status == UnitStatus.PASSED:
        return unit.feedback(True, "unit already passed; edit ignored")
    unit.mark_attempted()
    error: str | None = None
    edit = unit.checker.edit
    try:
        if edit is None:
            workspace.write(unit.artifact_path, payload)
        else:
            record = _EDIT_SCHEMAS[edit].decode(json.loads(payload), "payload.")
            if not workspace.exists(unit.artifact_path):
                error = _FILE_MISSING.format(unit.artifact_path)
            else:
                error = record.apply(workspace, unit.artifact_path)
    except (json.JSONDecodeError, ConfigurationError) as exc:
        error = f"malformed edit payload: {exc}"
    except CsvParseError as exc:
        error = f"edit failed: cannot parse {unit.artifact_path}: {exc}"
    return unit.feedback(error is None, error or f"edit applied to {unit.artifact_path}")


def run_check(
    units: dict[str, BacklogUnit], workspace: Workspace, unit_id: str
) -> UnitFeedback:
    unit = units.get(unit_id)
    if unit is None:
        return _unknown_unit(unit_id)
    if unit.status == UnitStatus.PASSED:
        return unit.feedback(True, "unit already passed")
    passed, detail = evaluate_checker(unit.checker, workspace)
    if passed:
        unit.status = UnitStatus.PASSED
    else:
        unit.mark_attempted()
    return unit.feedback(passed, detail)


def submit_unit(units: dict[str, BacklogUnit], ledger: RunLedger, unit_id: str) -> SubmitFeedback:
    """Judge one unit submission and fold it into the ledger.

    A unit the ledger already counts is a duplicate; a unit whose checker has
    accepted it is counted; any other id, known or not, is rejected every time
    it is submitted. Unit ids match exactly, so a padded id is unknown.
    """
    unit = units.get(unit_id)
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
    """A backlog: its units and the files its runs start from. The files are
    checked once, by seeding `workspace`, which every run then copies."""

    spec: TaskSpec
    units: list[BacklogUnit]
    files: dict[str, str]
    workspace: Workspace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.workspace = Workspace()
        self.workspace.seed(self.files)


@dataclass
class DataopsManifest:
    metadata: dict
    tasks: list[DataopsTask]

    checks = "leak-freedom, solver-within-budget"

    def open(self) -> tuple[Callable[[DataopsTask], DataopsEnvironment], list]:
        """The factory of a task's environment; a backlog carries its files,
        so nothing is read and no snapshot can have changed."""

        def environment(task: DataopsTask) -> DataopsEnvironment:
            return DataopsEnvironment(task.spec, task.units, task.workspace)

        return environment, []

    def smoke_failures(self, environments: Sequence, public_text: str) -> list[str]:
        """No digest checker's value may appear in the text policies see, and
        the scripted solver must clear every backlog within budget; it runs in
        the environments, which smoke does not use again."""
        failures = []
        for task, env in zip(self.tasks, environments):
            for unit in task.units:
                checker = unit.checker
                if isinstance(checker, FileDigest) and checker.expected_digest in public_text:
                    failures.append(f"checker digest leaked: {task.spec.task_id}/{unit.unit_id}")
            try:
                _assert_solvable(env)
            except QgpError as exc:
                failures.append(f"solvability: {exc}")
        return failures


# A loaded CSV source: (file stem, header, data rows).
CsvTable = tuple[str, list[str], list[list[str]]]


def _load_csv_source(path: Path) -> CsvTable:
    with loading(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _csv_rows(fh)
    if len(rows) < 4:
        raise GenerationError(f"insufficient source rows in {path}")
    return path.stem, rows[0], rows[1:]


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
    lines = [
        f"name: {root.name}",
        f"artifacts: {len(corpus)}",
        f"revision: {snapshot.digest[:12]}",
    ]
    lines += [f"{kind}_count: {n}" for kind, n in sorted(Counter(corpus.kinds).items())]
    artifacts = [
        (relpath.replace("/", "_"), text[:2000])
        for relpath, text in zip(corpus.relpaths, corpus.texts)
        if text.strip()
    ]
    return _SnapshotFixture(name=root.name, metadata_lines=lines, artifacts=artifacts)


def _load_sources(sources: FixtureSources) -> tuple[list[CsvTable], list[_SnapshotFixture]]:
    """Read every CSV source and walk every snapshot root, once each, in order,
    after checking that every source path exists."""
    for path in (*sources.csv_paths, *sources.snapshot_roots):
        if not Path(path).exists():
            raise ConfigurationError(f"source path not found: {path}")
    tables = [_load_csv_source(Path(p)) for p in sources.csv_paths]
    fixtures = [_snapshot_fixture(Path(p)) for p in sources.snapshot_roots]
    return tables, fixtures


def generate_backlog(
    tables: Sequence[CsvTable],
    fixtures: Sequence[_SnapshotFixture],
    target_count: int,
    seed: int,
    task_id: str,
) -> DataopsTask:
    """Build one backlog of target_count + 2 mixed-kind units plus its task spec.

    The loaded tables and fixtures are shared by every backlog of a manifest;
    units copy what they take from them.
    """
    if target_count not in DATAOPS_BUDGETS:
        raise GenerationError(f"no budget configured for target {target_count}")
    if not tables and not fixtures:
        raise GenerationError("dataops generation needs at least one CSV or snapshot source")
    rng = stream(seed, "dataops-backlog")
    pools = {"tables": tables, "fixtures": fixtures}
    checker_types = [cls for cls in CHECKER_TYPES if cls.draws is None or pools[cls.draws]]
    rng.shuffle(checker_types)

    files: dict[str, str] = {}
    units = []
    for i in range(target_count + 2):
        cls = checker_types[i % len(checker_types)]
        pool = pools.get(cls.draws)
        source = pool[rng.randrange(len(pool))] if pool else None
        checker, prompt = cls.build(rng, i, source, files)
        units.append(BacklogUnit(f"u{i:03d}", prompt, checker.file, checker))
    spec = TaskSpec(
        task_id=task_id,
        family=Family.DATAOPS,
        objective_text=f"complete {target_count} verified work units from the backlog",
        target_count=target_count,
        budget=DATAOPS_BUDGETS[target_count],
        seed=seed,
    )
    return DataopsTask(spec=spec, units=units, files=files)


def generate_dataops_manifest(
    sources: FixtureSources,
    targets: Sequence[int] = (3, 5, 10, 20),
    instances_per_target: int = 6,
    seed: int = 0,
    workspace_root: str | None = None,
) -> DataopsManifest:
    """Generate and solve every backlog; each source is read once per call.

    `workspace_root` is ignored: workspaces are held in memory. It stays
    until ROADMAP item 3a moves the benchmark off it.
    """
    tables, fixtures = _load_sources(sources)
    tasks: list[DataopsTask] = []
    for target in targets:
        for idx in range(instances_per_target):
            task = generate_backlog(
                tables,
                fixtures,
                target,
                seed=derive_seed(seed, "dataops", target, idx),
                task_id=f"dataops-n{target}-b{idx}",
            )
            _assert_solvable(DataopsEnvironment(task.spec, task.units, task.workspace))
            tasks.append(task)
    metadata = {
        "seed": seed,
        "targets": list(targets),
        "instances_per_target": instances_per_target,
        "budget_map": {str(k): v for k, v in sorted(DATAOPS_BUDGETS.items())},
        "task_count": len(tasks),
        "sources": {
            "csv": [str(p) for p in sources.csv_paths],
            "snapshots": [str(p) for p in sources.snapshot_roots],
        },
    }
    return DataopsManifest(metadata=metadata, tasks=tasks)


def _assert_solvable(env: DataopsEnvironment) -> None:
    # The scripted solver must clear every generated backlog within budget.
    from .controllers import StandardController
    from .core import run_episode
    from .policies import SolverPolicy

    try:
        record = run_episode(env.task, env, StandardController(), SolverPolicy())
    finally:
        env.close()
    if record.outcome != Outcome.SUCCESS:
        raise GenerationError(
            f"backlog {env.task.task_id} not solvable within budget "
            f"(outcome={record.outcome.value}, valid={record.ledger.valid_count})"
        )


# ---------------------------------------------------------------------------
# Manifest file format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Hidden:  # a backlog's hidden section as the manifest file holds it
    checkers: dict
    files: dict[str, str]


@dataclass(frozen=True)
class _TaskFields:  # what a dataops manifest file adds to each task's spec
    units: tuple[UnitPublicView, ...]
    hidden: _Hidden


_TASK_FIELDS = Schema(_TaskFields)


def write_manifest(manifest: DataopsManifest, path: str | Path) -> str:
    """Write the manifest; returns the sha256 of the file."""
    tasks = []
    for t in manifest.tasks:
        checkers = {u.unit_id: CHECKERS.encode(u.checker) for u in t.units}
        fields = _TaskFields(PublicTaskView.of(t.spec, t.units).units, _Hidden(checkers, t.files))
        tasks.append((t.spec, _TASK_FIELDS.encode(fields)))
    return write_manifest_file(path, Family.DATAOPS, manifest.metadata, tasks)


def manifest_payload(obj: dict, specs: list[TaskSpec]) -> DataopsManifest:
    """Each task's units, each read as a UnitPublicView, and its hidden
    checkers and files. Each unit has a checker of the class that declares
    its kind. A task has at least one unit, unit ids are unique within it
    and neither start nor end with whitespace (feedback echoes submitted ids
    trimmed), every artifact path and checker file must be a file path
    inside the workspace, and a workspace must take every file."""
    tasks = []
    for spec, entry in zip(specs, obj["tasks"]):
        task = f"task {spec.task_id!r}"
        entry = _TASK_FIELDS.decode(entry, f"{task}: ")
        units = []
        for i, view in enumerate(entry.units):
            if view.unit_id != view.unit_id.strip():
                raise ValueError(
                    f"{task}: units[{i}].unit_id must not start or end with whitespace"
                )
            where = f"{task} unit {view.unit_id!r}"
            raw = entry.hidden.checkers.get(view.unit_id)
            if raw is None:
                raise ValueError(f"{where} has no checker")
            checker = CHECKERS.decode(raw, f"{where}: ")
            if type(checker).kind != view.kind:
                raise ValueError(f"{where}: kind {view.kind!r} is not checked by {raw['type']}")
            for relpath in (view.artifact_path, checker.file):
                try:
                    Workspace._key(relpath)
                except ConfigurationError as exc:
                    raise ValueError(f"{where}: {exc}") from None
            units.append(BacklogUnit(view.unit_id, view.prompt, view.artifact_path, checker))
        if not units:
            raise ValueError(f"{task} has no units")
        if len({u.unit_id for u in units}) < len(units):
            raise ValueError(f"{task} repeats a unit id")
        try:
            tasks.append(DataopsTask(spec, units, entry.hidden.files))
        except ConfigurationError as exc:
            raise ValueError(f"{task} {exc}") from None
    return DataopsManifest(metadata=obj["metadata"], tasks=tasks)


def load_manifest(path: str | Path) -> DataopsManifest:
    return read_manifest_file(path, {Family.DATAOPS: manifest_payload})


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class DataopsEnvironment:
    """Serves Inspect/Edit/RunCheck/SubmitUnit inside its own in-memory workspace."""

    family = Family.DATAOPS
    page_size = 10

    def __init__(
        self, task: TaskSpec, units: Sequence[BacklogUnit], workspace: Workspace
    ) -> None:
        self.task = task
        # Fresh unit state, keyed by unit id, and fresh files per run; manifests
        # are immutable.
        self.units = {
            u.unit_id: BacklogUnit(u.unit_id, u.prompt, u.artifact_path, u.checker)
            for u in units
        }
        self.workspace = workspace.copy()

    def public_view(self) -> PublicTaskView:
        return PublicTaskView.of(self.task, self.units.values())

    def execute(self, action: Action, ledger: RunLedger) -> Observation:
        if isinstance(action, Inspect):
            return inspect_unit(self.units, self.workspace, action.unit_id)
        if isinstance(action, Edit):
            return apply_edit(self.units, self.workspace, action.unit_id, action.payload)
        if isinstance(action, RunCheck):
            return run_check(self.units, self.workspace, action.unit_id)
        if isinstance(action, SubmitUnit):
            return submit_unit(self.units, ledger, action.unit_id)
        raise ConfigurationError(f"dataops cannot execute {action!r}")

    def close(self) -> None:
        """Nothing to release: the workspace lives in memory and goes with the
        environment. Kept so that callers close every environment alike."""
