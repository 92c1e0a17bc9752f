"""The in-memory dataops workspace against the on-disk one it replaced.

The on-disk `Workspace` is kept here verbatim as the reference: for every
sequence of seed/write/read/exists calls, the in-memory map must return what
the reference returns, and refuse with a `ConfigurationError` where the
reference raised. Runs, smoke and generation must create no file at all.
"""

from __future__ import annotations

import json
import posixpath
import random
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from qgp import cli, dataops
from qgp.actions import Edit, UnitStatus, Verdict
from qgp.controllers import ControllerConfig, ControllerKind
from qgp.core import RunLedger
from qgp.dataops import DataopsEnvironment, Workspace, apply_edit, run_check
from qgp.errors import ConfigurationError

from test_dataops import small_backlog

# ---------------------------------------------------------------------------
# Reference: the on-disk workspace
# ---------------------------------------------------------------------------


class ReferenceWorkspace:
    """Per-run scratch tree; all reads and writes stay under its root."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def seed(self, files: dict[str, str]) -> None:
        for relpath, content in sorted(files.items()):
            self.write(relpath, content)

    def _resolve(self, relpath: str) -> Path:
        path = (self.root / relpath).resolve()
        if self.root.resolve() not in path.parents and path != self.root.resolve():
            raise ConfigurationError(f"path escapes workspace: {relpath}")
        return path

    def exists(self, relpath: str) -> bool:
        return self._resolve(relpath).is_file()

    def read(self, relpath: str) -> str:
        return self._resolve(relpath).read_text(encoding="utf-8")

    def write(self, relpath: str, content: str) -> None:
        path = self._resolve(relpath)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# Equivalence under seeded-random call sequences
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "x", "data", "t.csv", "é", "中.txt", ".hidden")
_SPELLINGS = (
    "{p}",
    "./{p}",
    "{p}/",
    "x/../{p}",
    "{d}//{n}",
    "{d}/./{n}",
    "{d}/../../{n}",
    "../{p}",
    "/{p}",
    "//{p}",
    "{p}/..",
    "{p}/../..",
    "{p}\0z",
)
_FIXED_PATHS = ("", ".", "..", "/", "./", "x/..", "a/b/c", "a/b", "a")
_PIECES = ("line", "\n", "\r\n", "\r", "é", "中文", " ", ",", "\t", "\r\r\n", "ß\r")


def _random_path(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(_FIXED_PATHS)
    depth = rng.randrange(1, 4)
    parts = [rng.choice(_NAMES) for _ in range(depth)]
    path = "/".join(parts)
    return rng.choice(_SPELLINGS).format(
        p=path, d=posixpath.dirname(path) or "a", n=parts[-1]
    )


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 8)))


def _reference_outcome(call):
    # The disk refuses with ConfigurationError, an OSError, or a ValueError
    # for a NUL in a path.
    try:
        return ("ok", call())
    except (ConfigurationError, OSError, ValueError):
        return ("refused",)


def _memory_outcome(call):
    try:
        return ("ok", call())
    except ConfigurationError:
        return ("refused",)


def _names_root(path: str) -> bool:
    return posixpath.normpath(path) == "."


class TestEquivalence:
    def test_random_call_sequences_match_the_disk(self, tmp_path):
        rng = random.Random(4)
        checked = {"ok": 0, "refused": 0}
        for seq in range(60):
            reference = ReferenceWorkspace(tmp_path / f"ws{seq}")
            memory = Workspace()
            for _ in range(40):
                op = rng.choice(("seed", "write", "write", "read", "read", "exists", "exists"))
                path = _random_path(rng)
                if op == "seed":
                    files = {_random_path(rng): _random_text(rng) for _ in range(3)}
                    args: tuple = (files,)
                elif op == "write":
                    args = (path, _random_text(rng))
                else:
                    args = (path,)
                expected = _reference_outcome(lambda: getattr(reference, op)(*args))
                actual = _memory_outcome(lambda: getattr(memory, op)(*args))
                if op == "exists" and _names_root(path):
                    # The only departure: the disk answered "no file" for the
                    # workspace itself; the map refuses such a path outright.
                    assert expected == ("ok", False)
                    expected = ("refused",)
                assert actual == expected, (seq, op, args)
                checked[expected[0]] += 1
        # Both kinds of outcome were exercised, many times.
        assert min(checked.values()) > 300, checked

    @pytest.mark.parametrize(
        "spelling", ["a/b.txt", "a/./b.txt", "a//b.txt", "x/../a/b.txt", "./a/b.txt", "a/b.txt/"]
    )
    def test_spellings_name_one_file(self, spelling):
        ws = Workspace()
        ws.write("a/b.txt", "one\n")
        assert ws.exists(spelling)
        assert ws.read(spelling) == "one\n"
        ws.write(spelling, "two\n")
        assert ws.read("a/b.txt") == "two\n"

    @pytest.mark.parametrize(
        "path",
        ["a/b.txt", "./a/b.txt", "a//b.txt", "x/../a/b.txt", "a/b.txt/", "a", "..", "/a/b.txt"]
        + ["a/b\0.txt", "a/missing.txt"],
    )
    def test_stored_key_lookup_answers_as_the_key_does(self, path):
        # `exists` and `read` look a stored key up as it is; every answer,
        # value or error text, must be what normalising the path first gives.
        ws = Workspace()
        ws.write("a/b.txt", "one\n")

        def by_key(op):
            try:
                key = Workspace._key(path)
            except ConfigurationError as exc:
                return ("refused", str(exc))
            if op == "exists":
                return ("ok", key in ws._files)
            if key in ws._files:
                return ("ok", ws._files[key])
            return ("refused", f"no such workspace file: {path}")

        def answer(op):
            try:
                return ("ok", getattr(ws, op)(path))
            except ConfigurationError as exc:
                return ("refused", str(exc))

        for op in ("exists", "read"):
            assert answer(op) == by_key(op), op

    def test_text_reads_back_as_read_text_returns_it(self, tmp_path):
        reference = ReferenceWorkspace(tmp_path / "ws")
        memory = Workspace()
        text = "a\r\nb\rc\n\r\r\ndé中\r"
        reference.write("f.txt", text)
        memory.write("f.txt", text)
        assert memory.read("f.txt") == reference.read("f.txt") == "a\nb\nc\n\n\ndé中\n"

    @pytest.mark.parametrize(
        "path", ["", ".", "./", "a/..", "..", "../x", "x/../../b", "/etc/hosts", "//a", "a\0b"]
    )
    def test_refused_paths(self, path):
        ws = Workspace()
        for call in (lambda: ws.write(path, "x"), lambda: ws.read(path), lambda: ws.exists(path)):
            with pytest.raises(ConfigurationError):
                call()

    def test_file_and_directory_conflicts_are_refused(self):
        ws = Workspace()
        ws.write("a/b", "file")
        with pytest.raises(ConfigurationError):
            ws.write("a", "a is a directory")
        with pytest.raises(ConfigurationError):
            ws.write("a/b/c", "a/b is a file")
        with pytest.raises(ConfigurationError):
            ws.read("a")
        assert not ws.exists("a") and not ws.exists("a/b/c")
        assert ws.read("a/b") == "file"


# ---------------------------------------------------------------------------
# Text that is not encodable as UTF-8
# ---------------------------------------------------------------------------


class TestUnencodableText:
    def test_write_is_refused_and_keeps_the_old_text(self):
        ws = Workspace()
        ws.write("answers/u.txt", "old")
        with pytest.raises(ConfigurationError, match="not encodable as UTF-8"):
            ws.write("answers/u.txt", "x\ud800")
        assert ws.read("answers/u.txt") == "old"
        with pytest.raises(ConfigurationError):
            ws.seed({"new.txt": "\udfff"})
        assert not ws.exists("new.txt")

    @pytest.mark.parametrize(
        "unit_id, payload, reason",
        [
            ("u4", "\ud800", "not encodable as UTF-8"),
            (
                "u1",
                json.dumps({"row_key": "r1", "column": "score", "value": "\ud800"}),
                "not encodable as UTF-8",
            ),
            ("u3", json.dumps({"key": "license_tag", "value": "\udc80"}), "not encodable as UTF-8"),
            # Payload fields of another type are refused, never coerced.
            ("u3", json.dumps({"key": 5, "value": [1, 2]}), "payload.key must be a string"),
            ("u3", json.dumps({"key": "license_tag", "value": 7}), "payload.value must be a string"),
            (
                "u1",
                json.dumps({"row_key": "r1", "column": "score", "value": None}),
                "payload.value must be a string",
            ),
            ("u1", json.dumps({"row_key": "r1", "value": "6"}), "payload.column must be a string"),
            ("u1", json.dumps(["r1", "score", "6"]), "payload must be an object"),
        ],
    )
    def test_edit_fails_as_malformed_payload(self, unit_id, payload, reason):
        backlog, ws = small_backlog()

        def files():
            paths = {u.artifact_path for u in backlog.values()}
            return {path: ws.read(path) for path in paths if ws.exists(path)}

        before = files()
        fb = apply_edit(backlog, ws, unit_id, payload)
        assert fb.verdict == Verdict.FAIL
        assert fb.detail.startswith("malformed edit payload: ")
        assert reason in fb.detail
        assert fb.status_after == UnitStatus.ATTEMPTED
        assert files() == before
        assert run_check(backlog, ws, unit_id).verdict == Verdict.FAIL

    def test_environment_answers_with_feedback(self, dataops_loaded):
        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        ledger = RunLedger(target_count=task.spec.target_count, budget=task.spec.budget)
        for unit in task.units:
            fb = env.execute(Edit(unit_id=unit.unit_id, payload="\ud800"), ledger)
            assert fb.verdict == Verdict.FAIL
            assert fb.detail.startswith("malformed edit payload: ")

    def test_each_run_starts_from_the_task_files(self, dataops_loaded):
        task = dataops_loaded.tasks[0]
        expected = {path: task.workspace.read(path) for path in task.files}
        relpath = sorted(task.files)[0]
        fresh = [replace(unit, status=UnitStatus.PENDING) for unit in task.units]
        first = DataopsEnvironment(task.spec, task.units, task.workspace)
        first.workspace.write(relpath, "changed")
        first.workspace.write("new/file.txt", "x")
        for unit in first.units.values():
            unit.status = UnitStatus.PASSED
        second = DataopsEnvironment(task.spec, task.units, task.workspace)
        for ws in (task.workspace, second.workspace):
            assert {path: ws.read(path) for path in task.files} == expected
            assert not ws.exists("new/file.txt")
        assert list(second.units.values()) == fresh
        assert list(task.units) == fresh
        second.workspace.write("new", "a file where the first run made a directory")

    def test_adapter_edit_consumes_a_step_without_abort(
        self, fixture_sources, tmp_path, capsys
    ):
        manifest = dataops.generate_dataops_manifest(
            fixture_sources, targets=(3,), instances_per_target=2, seed=5
        )
        manifest_path = tmp_path / "dataops.json"
        dataops.write_manifest(manifest, manifest_path)
        # Step 1 sends an edit whose payload is a lone surrogate; step 2 asks
        # the user only if step 1 came back as a malformed-payload failure.
        script = tmp_path / "adapter.py"
        script.write_text(
            textwrap.dedent(
                """
                import json, sys
                for line in sys.stdin:
                    req = json.loads(line)
                    last = req.get("last_observation") or {}
                    if req["step"] == 1:
                        reply = '{"kind":"edit","unit_id":"u000","payload":"\\\\ud800"}'
                    elif last.get("verdict") == "fail" and last.get("detail", "").startswith(
                        "malformed edit payload: "
                    ):
                        reply = json.dumps({"kind": "ask_user", "message": "saw the failure"})
                    else:
                        reply = "unexpected"
                    sys.stdout.write(reply + "\\n")
                    sys.stdout.flush()
                """
            )
        )
        config = ControllerConfig(kind=ControllerKind.STANDARD)
        params = {"command": [sys.executable, str(script)], "timeout": 10.0}
        rows, aborts = cli.run_manifest(str(manifest_path), config, "external", params, seed=0)
        assert aborts == 0
        assert [(r["outcome"], r["steps_used"]) for r in rows] == [("premature_stop", 2)] * 2

        out = tmp_path / "records.jsonl"
        code = cli.main(
            [
                "run",
                "--manifest",
                str(manifest_path),
                "--policy",
                "external",
                "--policy-cmd",
                f"{sys.executable} {script}",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err and "error" not in captured.err
        assert out.read_text(encoding="utf-8").count("\n") == 2


# ---------------------------------------------------------------------------
# No files
# ---------------------------------------------------------------------------


class TestNoFiles:
    def test_run_smoke_and_generation_create_nothing(
        self, csv_sources, snapshot_roots, tmp_path, monkeypatch
    ):
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        root = tmp_path / "workspaces"
        monkeypatch.setenv(cli.WORKSPACE_ENV, str(root))
        manifest = tmp_path / "dataops.json"
        flag = ["--workspace-root", str(root)]
        sources = ["--csv", str(csv_sources[0]), "--snapshot", str(snapshot_roots[0])]
        records = str(tmp_path / "solver.jsonl")
        commands = [
            ["gen-dataops", *sources, "--targets", "3,5", "--instances", "1"]
            + ["--out", str(manifest)],
            ["smoke", "--manifest", str(manifest)],
            ["run", "--manifest", str(manifest), "--policy", "solver", "--jobs", "2"]
            + ["--out", records],
        ]
        for command in commands:
            for extra in ([], flag):
                assert cli.main(command + extra) == 0, command + extra
                assert not root.exists()
                assert list(temp.iterdir()) == []
        config = ControllerConfig(kind=ControllerKind.UNIT_QGP)
        rows, _ = cli.run_manifest(
            str(manifest), config, "no_submit_looper", {}, seed=0, workspace_root=str(root)
        )
        assert rows and not root.exists() and list(temp.iterdir()) == []
