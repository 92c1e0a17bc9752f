"""End-to-end command pipelines: gen, run, aggregate, delta, smoke."""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from qgp import cli, dataops, policies, reposcan
from qgp.actions import Family, Outcome
from qgp.cli import _write_records, main
from qgp.controllers import ControllerConfig, ControllerKind, VerifierGatedController
from qgp.core import RecordRow, TaskSpec, read_record_dicts, record_to_dict, run_episode
from qgp.metrics import aggregate, metrics_from_record_dict
from qgp.policies import ExternalAdapterPolicy
from qgp.reposcan import ReposcanEnvironment

from synth import build_snapshot, tiny_corpus
from test_policies import ECHO_ADAPTER, _running, _write_adapter

# The typed fields that lead every record line, in line order.
RECORD_FIELDS = tuple(f.name for f in fields(RecordRow))


@pytest.fixture(scope="module")
def mini_manifest(snapshot_roots, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "mini.json"
    code = main(
        [
            "gen-reposcan",
            "--snapshot",
            str(snapshot_roots[0]),
            "--targets",
            "10",
            "--instances",
            "3",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mini_dataops_manifest(csv_sources, snapshot_roots, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "mini-dataops.json"
    code = main(
        [
            "gen-dataops",
            "--csv",
            str(csv_sources[0]),
            "--snapshot",
            str(snapshot_roots[0]),
            "--targets",
            "3,5",
            "--instances",
            "2",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestDeterminismAcrossInterpreters:
    # String hashing, and so set and dict-of-set order, differs between these
    # interpreters.
    def _outputs_per_hash_seed(self, tmp_path, gen, run):
        """(manifest bytes, records bytes) of `gen` then `run` under each hash seed."""
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            manifest, records = tmp_path / f"m{hash_seed}.json", tmp_path / f"r{hash_seed}.jsonl"
            for argv in (gen + ["--out", str(manifest)], run(manifest, records)):
                done = subprocess.run(
                    [sys.executable, "-m", "qgp", *argv],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert done.returncode == 0, done.stderr
            outputs.append((manifest.read_bytes(), records.read_bytes()))
        return outputs

    def test_hash_seed_changes_no_output_byte(self, snapshot_roots, tmp_path):
        gen = ["gen-reposcan", "--snapshot", str(snapshot_roots[0]), "--targets", "10"]
        gen += ["--instances", "2", "--seed", "3"]

        def run(manifest, records):
            argv = ["run", "--manifest", str(manifest), "--controller", "state_qgp"]
            return argv + ["--policy", "duplicator", "--out", str(records)]

        outputs = self._outputs_per_hash_seed(tmp_path, gen, run)
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 2

    def test_hash_seed_changes_no_dataops_byte(self, csv_sources, snapshot_roots, tmp_path):
        # The backlog policies key their unit traces, and their cursor's
        # positions, by unit id.
        gen = ["gen-dataops", "--csv", str(csv_sources[0]), "--snapshot", str(snapshot_roots[0])]
        gen += ["--targets", "3,5", "--instances", "2", "--seed", "5"]

        def run(manifest, records):
            argv = ["run", "--manifest", str(manifest), "--controller", "unit_qgp"]
            return argv + ["--policy", "solver", "--out", str(records)]

        outputs = self._outputs_per_hash_seed(tmp_path, gen, run)
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 4


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["qgp", "qgp.cli"])
    def test_help_prints_usage(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: qgp ")
        assert "gen-reposcan" in done.stdout and done.stderr == ""


class TestGeneration:
    def test_same_invocation_same_digest(self, snapshot_roots, tmp_path, capsys):
        args = [
            "gen-reposcan",
            "--snapshot",
            str(snapshot_roots[0]),
            "--targets",
            "10",
            "--instances",
            "2",
            "--seed",
            "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        first = capsys.readouterr().out.split("digest=")[1].strip()
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        second = capsys.readouterr().out.split("digest=")[1].strip()
        assert first == second
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_snapshot_nonzero_exit(self, tmp_path, capsys):
        code = main(
            [
                "gen-reposcan",
                "--snapshot",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-reposcan", "gen-dataops"])
    def test_bad_targets_is_usage_error(self, command, snapshot_roots, tmp_path, capsys):
        out = tmp_path / "m.json"
        args = [command, "--snapshot", str(snapshot_roots[0]), "--targets", "10,x"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --targets" in err and "'10,x'" in err
        assert not out.exists()

    def test_missing_dataops_source_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "m.json"
        assert main(["gen-dataops", "--csv", str(missing), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: source path not found: {missing}\n"
        assert not out.exists()

    def test_gen_dataops_without_a_source_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen-dataops", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: dataops generation needs at least one CSV or snapshot source\n"
        )
        assert not out.exists()

    def test_unknown_dataops_target_is_one_error_line(self, csv_sources, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["gen-dataops", "--csv", str(csv_sources[0]), "--targets", "7", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: no budget configured for target 7\n"
        assert not out.exists()

    # The grid check refuses a target with no budget before either generator
    # reads a source or solves a backlog.
    @pytest.mark.parametrize(
        "command, targets", [("gen-reposcan", "10,7"), ("gen-dataops", "3,7")]
    )
    def test_target_with_no_budget_is_refused_before_any_work(
        self, command, targets, snapshot_roots, tmp_path, monkeypatch, capsys
    ):
        work = []
        monkeypatch.setattr(reposcan, "read_snapshot", lambda root: work.append(root))
        monkeypatch.setattr(dataops, "_assert_solvable", lambda env: work.append(env))
        out = tmp_path / "m.json"
        argv = [command, "--targets", targets, "--out", str(out)]
        argv += [arg for root in snapshot_roots for arg in ("--snapshot", str(root))]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: no budget configured for target 7\n"
        assert work == []
        assert not out.exists()

    def test_snapshots_sharing_a_basename_get_distinct_names(self, tmp_path, capsys):
        roots = [build_snapshot(tmp_path / side / "snap", offset=i) for i, side in enumerate("ab")]
        out = tmp_path / "m.json"
        argv = ["gen-reposcan", "--targets", "10", "--instances", "2", "--out", str(out)]
        assert main(argv + [arg for root in roots for arg in ("--snapshot", str(root))]) == 0
        capsys.readouterr()
        snapshots = json.loads(out.read_text())["snapshots"]
        assert [(s["name"], s["root"]) for s in snapshots] == [
            ("snap", str(roots[0])),
            ("snap_", str(roots[1])),
        ]
        assert main(["smoke", "--manifest", str(out)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    @pytest.mark.parametrize(
        "content, refusal",
        [
            (
                b"id,name\nr1,caf\xe9\nr2,b\nr3,c\nr4,d\n",
                "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 in position 14: "
                "invalid continuation byte",
            ),
            (
                b"id,name\nr1," + b"x" * 200_000 + b"\nr2,b\nr3,c\nr4,d\n",
                "CsvParseError: line 2: field larger than field limit (131072)",
            ),
        ],
        ids=["not-utf-8", "field-over-the-csv-limit"],
    )
    def test_csv_source_the_csv_module_refuses_is_named(self, content, refusal, tmp_path, capsys):
        source = tmp_path / "source.csv"
        source.write_bytes(content)
        out = tmp_path / "m.json"
        assert main(["gen-dataops", "--csv", str(source), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot load {source}: {refusal}\n"
        assert not out.exists()

    # A count below 1, and a grid whose manifest `run` would refuse for its
    # repeated task ids, are refused before any file is written.
    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (
                ["gen-reposcan", "--snapshot", "{snapshot}", "--instances", "-1"],
                "instances per target must be >= 1, got -1",
            ),
            (
                ["gen-reposcan", "--snapshot", "{snapshot}", "--instances", "0"],
                "instances per target must be >= 1, got 0",
            ),
            (
                ["gen-reposcan", "--snapshot", "{snapshot}", "--targets", ""],
                "at least one target is required",
            ),
            (
                ["gen-reposcan", "--snapshot", "{snapshot}", "--targets", "10,10"],
                "target 10 is given more than once",
            ),
            (
                ["gen-dataops", "--csv", "{csv}", "--instances", "0"],
                "instances per target must be >= 1, got 0",
            ),
            (
                ["gen-dataops", "--csv", "{csv}", "--targets", "3,3"],
                "target 3 is given more than once",
            ),
            (["run", "--manifest", "{manifest}", "--jobs", "0"], "jobs must be >= 1"),
            (
                ["run", "--config", "{config}"],
                "cannot load {config}: ValueError: jobs must be >= 1",
            ),
        ],
        ids=[
            "reposcan-instances-negative", "reposcan-instances-0", "reposcan-no-target",
            "reposcan-repeated-target", "dataops-instances-0", "dataops-repeated-target",
            "run-jobs-0", "run-config-jobs-0",
        ],
    )
    def test_a_count_below_one_is_one_error_line(
        self, argv, refusal, snapshot_roots, csv_sources, mini_manifest, tmp_path,
        monkeypatch, capsys,
    ):
        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        cli.RunConfig(
            manifest=str(mini_manifest), controller="standard", policy="greedy_oracle",
            out=str(out), jobs=0,
        ).save(config)
        paths = dict(
            snapshot=snapshot_roots[0], csv=csv_sources[0], manifest=mini_manifest, config=config
        )
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ([] if "--config" in argv else ["--out", str(out)])) == 2
        assert capsys.readouterr().err == f"error: {refusal.format(**paths)}\n"
        assert not out.exists()


class TestMissingSnapshotRoot:
    @pytest.mark.parametrize("command", ["run", "smoke", "gen-reposcan"])
    def test_one_error_line_naming_the_root(self, command, mini_manifest, tmp_path, capsys):
        missing = tmp_path / "gone"
        obj = json.loads(Path(mini_manifest).read_text())
        obj["snapshots"][0]["root"] = str(missing)
        manifest = tmp_path / "moved.json"
        manifest.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        argv = {
            "run": ["run", "--manifest", str(manifest), "--out", str(out)],
            "smoke": ["smoke", "--manifest", str(manifest)],
            "gen-reposcan": ["gen-reposcan", "--snapshot", str(missing), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert str(missing) in lines[0] and "not found" in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()


class TestUnreadableSnapshotFile:
    @pytest.mark.parametrize("command", ["run", "smoke", "gen-reposcan"])
    def test_one_error_line_naming_the_file(
        self, command, mini_manifest, snapshot_roots, tmp_path, opens, capsys
    ):
        # Refused at os.open: permission bits do not stop root. The first file
        # of a subdirectory in walk order, opened relative to its directory.
        root = snapshot_roots[0]
        refused = str(next(p for p in sorted(root.rglob("*")) if p.is_file() and p.parent != root))

        def deny(path, flags):
            if path == refused:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        opens.before = deny
        out = tmp_path / "out.json"
        argv = {
            "run": ["run", "--manifest", str(mini_manifest), "--out", str(out)],
            "smoke": ["smoke", "--manifest", str(mini_manifest)],
            "gen-reposcan": ["gen-reposcan", "--snapshot", str(root), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read snapshot file {refused}: {os.strerror(errno.EACCES)}\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestVanishedSnapshotDirectory:
    @pytest.mark.parametrize("command", ["run", "smoke", "gen-reposcan"])
    def test_one_error_line_naming_the_directory(
        self, command, snapshot_roots, tmp_path, opens, capsys
    ):
        root = tmp_path / "snap"
        shutil.copytree(snapshot_roots[0], root)
        manifest = tmp_path / "manifest.json"
        args = ["--snapshot", str(root), "--targets", "10", "--instances", "1"]
        assert main(["gen-reposcan", *args, "--out", str(manifest)]) == 0
        capsys.readouterr()
        vanishing = str(root / "src")

        def remove(path, flags):
            # Listed by its parent, then removed before it is opened.
            if path == vanishing and flags & os.O_DIRECTORY:
                opens.before = None  # once, and not for the removal's own opens
                shutil.rmtree(path)

        opens.before = remove
        out = tmp_path / "out.json"
        argv = {
            "run": ["run", "--manifest", str(manifest), "--out", str(out)],
            "smoke": ["smoke", "--manifest", str(manifest)],
            "gen-reposcan": ["gen-reposcan", *args, "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read snapshot directory {vanishing}: {os.strerror(errno.ENOENT)}\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestNonUtf8SnapshotName:
    @pytest.mark.parametrize("command", ["run", "smoke", "gen-reposcan"])
    def test_one_error_line_naming_the_file(self, command, snapshot_roots, tmp_path, capsys):
        root = tmp_path / "snap"
        shutil.copytree(snapshot_roots[0], root)
        manifest = tmp_path / "manifest.json"
        args = ["--snapshot", str(root), "--targets", "10", "--instances", "1"]
        assert main(["gen-reposcan", *args, "--out", str(manifest)]) == 0
        bad = os.path.join(os.fsencode(root), b"src", b"\xff.py")
        with open(bad, "wb") as fh:
            fh.write(b"print('x')\n")
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {
            "run": ["run", "--manifest", str(manifest), "--out", str(out)],
            "smoke": ["smoke", "--manifest", str(manifest)],
            "gen-reposcan": ["gen-reposcan", *args, "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: snapshot file name is not UTF-8: {bad!r}\n"
        assert captured.out == ""
        assert not out.exists()


def _no_tasks(*args, **kwargs):
    raise AssertionError("a task ran")


class TestUnwritableOutput:
    def test_run_refuses_a_missing_directory_before_any_task(
        self, mini_manifest, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "missing" / "dir" / "r.jsonl"
        assert main(["run", "--manifest", str(mini_manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: no directory {out.parent}\n"
        )
        assert not out.parent.exists()

    def test_run_refuses_a_missing_directory_from_a_saved_config(
        self, mini_manifest, tmp_path, monkeypatch, capsys
    ):
        from qgp.cli import RunConfig

        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "missing" / "r.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest), controller="standard", policy="duplicator", out=str(out)
        )
        config.save(tmp_path / "cfg.json")
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: no directory")

    @pytest.mark.parametrize("command", ["aggregate", "delta", "gen-reposcan", "gen-dataops"])
    def test_one_error_line_naming_the_output(
        self, command, record_files, snapshot_roots, csv_sources, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "out.csv"
        records = str(record_files["standard"])
        argv = {
            "aggregate": ["aggregate", "--records", records],
            "delta": ["delta", "--left", records, "--right", records, "--resamples", "10"],
            "gen-reposcan": [
                "gen-reposcan", "--snapshot", str(snapshot_roots[0]), "--targets", "10",
                "--instances", "1",
            ],
            "gen-dataops": [
                "gen-dataops", "--csv", str(csv_sources[0]), "--targets", "3", "--instances", "1",
            ],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""
        assert not out.parent.exists()


class TestPolicyParams:
    @pytest.mark.parametrize(
        "policy,flags,param",
        [
            ("greedy_oracle", ["--stop-step", "1"], "stop_step"),
            ("duplicator", ["--policy-cmd", "nonexistent-binary"], "command"),
            ("early_stopper", ["--claim-count", "4"], "claim_count"),
            ("solver", ["--adapter-timeout", "5"], "timeout"),
        ],
    )
    def test_flag_the_policy_does_not_take_is_refused(
        self, policy, flags, param, mini_manifest, tmp_path, capsys
    ):
        out = tmp_path / "refused.jsonl"
        argv = ["run", "--manifest", str(mini_manifest), "--policy", policy, "--out", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: policy {policy} does not take {param}\n"
        assert not out.exists()

    def test_saved_parameter_the_policy_does_not_take_is_refused(
        self, mini_manifest, tmp_path, capsys
    ):
        from qgp.cli import RunConfig

        out = tmp_path / "refused.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="standard",
            policy="greedy_oracle",
            out=str(out),
            policy_params={"stop_step": 1},
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(config_path) in err and "policy greedy_oracle does not take stop_step" in err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "86401"])
    def test_unusable_adapter_timeout_is_refused(self, timeout, mini_manifest, tmp_path, capsys):
        from qgp.cli import RunConfig

        out = tmp_path / "refused.jsonl"
        argv = ["run", "--manifest", str(mini_manifest), "--policy", "external"]
        argv += ["--policy-cmd", "python3 -c pass", "--adapter-timeout", timeout]
        assert main(argv + ["--out", str(out)]) == 2
        refusal = f"adapter timeout must be more than 0 and at most 86400 seconds, got {timeout}\n"
        assert capsys.readouterr().err == f"error: {refusal}"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="standard",
            policy="external",
            out=str(out),
            policy_params={"command": "python3 -c pass", "timeout": float(timeout)},
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot load {config_path}: ValueError: {refusal}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "policy, params, refusal",
        [
            ("early_stopper", {"stop_step": 2.7}, "stop_step must be a non-negative integer"),
            ("early_stopper", {"stop_step": "3"}, "stop_step must be a non-negative integer"),
            ("early_stopper", {"stop_step": True}, "stop_step must be a non-negative integer"),
            # A whole float is no integer here either, as in every other field.
            ("early_stopper", {"stop_step": 2.0}, "stop_step must be a non-negative integer"),
            ("false_completer", {"final_step": None}, "final_step must be a non-negative integer"),
            (
                "false_completer",
                {"claim_count": "4"},
                "claim_count must be a non-negative integer or null",
            ),
            (
                "false_completer",
                {"claim_count": -3},
                "claim_count must be a non-negative integer or null",
            ),
            (
                "redundant_searcher",
                {"submit_width": 1.5},
                "submit_width must be a non-negative integer",
            ),
            (
                "redundant_searcher",
                {"submits_per_search": False},
                "submits_per_search must be a non-negative integer",
            ),
            (
                "redundant_searcher",
                {"submits_per_search": -1},
                "submits_per_search must be a non-negative integer",
            ),
            ("external", {"timeout": True}, "timeout must be a number"),
            ("external", {"timeout": "5"}, "timeout must be a number"),
            (
                "external",
                {"command": ["python3", 5]},
                "command must be a string or a list of strings",
            ),
            ("no_submit_looper", {"loop_unit": 7}, "loop_unit must be a string or null"),
        ],
    )
    def test_saved_parameter_of_the_wrong_type_is_refused(
        self, policy, params, refusal, mini_manifest, tmp_path, monkeypatch, capsys
    ):
        from qgp.cli import RunConfig

        if policy == "external":
            params = {"command": "python3 -c pass", **params}
        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "refused.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="standard",
            policy=policy,
            out=str(out),
            policy_params=params,
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {config_path}: ValueError: policy parameter {refusal}\n"
        )
        assert not out.exists()

    # A flag value the field codec refuses, as it would in a saved `--config`.
    @pytest.mark.parametrize(
        "flags, refusal",
        [
            (
                ["--policy", "false_completer", "--claim-count", "-3"],
                "policy parameter claim_count must be a non-negative integer or null",
            ),
            (
                ["--policy", "redundant_searcher", "--submits-per-search", "-1"],
                "policy parameter submits_per_search must be a non-negative integer",
            ),
            (
                ["--policy", "early_stopper", "--stop-step", "-1"],
                "policy parameter stop_step must be a non-negative integer",
            ),
            (["--jobs", "-3"], "jobs must be a non-negative integer"),
            (["--no-progress-limit", "-1"], "no_progress_limit must be a non-negative integer"),
            (
                ["--policy", "external", "--policy-cmd", '"unclosed'],
                "cannot split adapter command: No closing quotation",
            ),
            (
                ["--policy", "external", "--policy-cmd", "   "],
                "external policy requires a command",
            ),
        ],
        ids=[
            "claim-count", "submits-per-search", "stop-step", "jobs", "no-progress-limit",
            "unclosed-quote", "blank-command",
        ],
    )
    def test_flag_the_codec_refuses_ends_before_any_task(
        self, flags, refusal, mini_manifest, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "refused.jsonl"
        argv = ["run", "--manifest", str(mini_manifest), "--out", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert not out.exists()

    # A command that splits to no word is refused before any task, as one left
    # out is; a saved policy must be one of the `--policy` choices.
    @pytest.mark.parametrize(
        "policy, params, refusal",
        [
            ("external", {"command": "  "}, "external policy requires a command"),
            ("external", {"command": []}, "external policy requires a command"),
            (
                "bogus",
                {},
                "policy must be one of duplicator, early_stopper, false_completer, "
                "no_submit_looper, greedy_oracle, solver, redundant_searcher, external",
            ),
        ],
        ids=["blank-string", "empty-list", "unknown-policy"],
    )
    def test_saved_policy_run_would_refuse_ends_before_any_task(
        self, policy, params, refusal, mini_manifest, tmp_path, monkeypatch, capsys
    ):
        from qgp.cli import RunConfig

        monkeypatch.setattr(cli, "run_manifest", _no_tasks)
        out = tmp_path / "refused.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="standard",
            policy=policy,
            out=str(out),
            policy_params=params,
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {config_path}: ValueError: {refusal}\n"
        )
        assert not out.exists()

    def test_a_number_parameter_takes_an_integer(self):
        from qgp.policies import build_policy

        policy = build_policy("external", command="python3 -c pass", timeout=5)
        assert policy.timeout == 5.0 and type(policy.timeout) is float
        assert policy.command == ["python3", "-c", "pass"]

    def test_each_policy_flag_reaches_its_parameter(self):
        parser = cli.build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        run = subcommands.choices["run"]
        # Every `run` flag but these sets a policy parameter.
        others = {"help", "config", "manifest", "controller", "ablation", "policy"}
        others |= {"no_progress_limit", "jobs", "out"}
        flags = {a.dest: a.option_strings[0] for a in run._actions if a.dest not in others}
        names = {f.name for cls in policies.POLICY_TYPES.values() for f in fields(cls) if f.init}
        assert flags.keys() == names
        for name, flag in flags.items():
            params = cli._policy_params(parser.parse_args(["run", flag, "7"]))
            assert params in ({name: 7}, {name: "7"}), flag

    @pytest.mark.parametrize("command", ["run", "gen-dataops"])
    def test_workspace_root_flag_is_a_usage_error(self, command, tmp_path, capsys):
        argv = [command, "--workspace-root", str(tmp_path / "ws"), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --workspace-root" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_is_a_usage_error(self, mini_manifest, tmp_path, capsys):
        # No policy draws a random number, so `run` has no seed to set.
        out = tmp_path / "records.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(mini_manifest), "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flags_the_policy_takes_are_kept(self, mini_manifest, tmp_path):
        out = tmp_path / "records.jsonl"
        argv = ["run", "--manifest", str(mini_manifest), "--out", str(out)]
        assert main(argv + ["--policy", "early_stopper", "--stop-step", "2"]) == 0
        assert all(r["steps_used"] == 2 for r in read_record_dicts(out))


class TestRun:
    def test_record_fields_bit_exact(self, mini_manifest, tmp_path):
        out = tmp_path / "records.jsonl"
        code = main(
            [
                "run",
                "--manifest",
                str(mini_manifest),
                "--controller",
                "state_qgp",
                "--policy",
                "duplicator",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_record_dicts(out)
        assert len(rows) == 3
        for row in rows:
            assert tuple(list(row)[: len(RECORD_FIELDS)]) == RECORD_FIELDS
            assert row["duplicate_occurrences"] == 0
            assert "intervention_log" in row

    def test_an_adapter_that_cannot_launch_aborts_every_run(self, mini_manifest, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "adapter"
        out = tmp_path / "records.jsonl"
        argv = ["run", "--manifest", str(mini_manifest), "--policy", "external"]
        assert main(argv + ["--policy-cmd", str(missing), "--out", str(out)]) == 1
        rows = read_record_dicts(out)
        assert len(rows) == 3
        for row in rows:
            assert row["outcome"] == Outcome.ABORTED.value
            assert row["abort_reason"].startswith(f"could not launch adapter ['{missing}']: ")
        assert capsys.readouterr().out == f"wrote {out} runs=3 aborts=3\n"

    def test_jobs_do_not_change_output(self, mini_manifest, tmp_path):
        outputs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"records-{jobs}.jsonl"
            code = main(
                [
                    "run",
                    "--manifest",
                    str(mini_manifest),
                    "--controller",
                    "verifier_gated",
                    "--policy",
                    "greedy_oracle",
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "manifest, controller, policy",
        [
            ("mini_manifest", "state_qgp", "greedy_oracle"),
            ("mini_dataops_manifest", "unit_qgp", "solver"),
        ],
    )
    def test_scripted_runs_take_no_thread_pool(
        self, request, monkeypatch, manifest, controller, policy
    ):
        # Scripted episodes hold the interpreter lock, so worker threads
        # would only take turns: every task runs on the calling thread.
        path = str(request.getfixturevalue(manifest))
        config = ControllerConfig(kind=ControllerKind(controller))
        serial, _ = cli.run_manifest(path, config, policy, {}, seed=4, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a scripted run built a thread pool")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        wide, _ = cli.run_manifest(path, config, policy, {}, seed=4, jobs=4)
        assert wide == serial

    def test_external_runs_overlap_and_leave_no_adapter(
        self, mini_manifest, tmp_path, monkeypatch
    ):
        started = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(policies.subprocess, "Popen", RecordingPopen)
        params = {"command": _write_adapter(tmp_path, ECHO_ADAPTER), "timeout": 10.0}
        config = ControllerConfig(kind=ControllerKind.STATE_QGP)
        lines = {}
        for jobs in (1, 3):
            rows, aborts = cli.run_manifest(
                str(mini_manifest), config, "external", params, seed=2, jobs=jobs
            )
            assert aborts == 0
            lines[jobs] = [json.dumps(row, separators=(",", ":")) for row in rows]
        assert lines[1] == lines[3]
        assert len(started) == 2 * len(lines[1])
        for process in started:
            assert process.returncode is not None
            assert not _running(process.pid)

    def test_solver_standard_full_success(self, mini_dataops_manifest, tmp_path):
        out = tmp_path / "solver.jsonl"
        code = main(
            [
                "run",
                "--manifest",
                str(mini_dataops_manifest),
                "--controller",
                "standard",
                "--policy",
                "solver",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_record_dicts(out)
        assert rows and all(r["outcome"] == "success" for r in rows)

    def test_false_completer_gating_contrast(self, mini_dataops_manifest, tmp_path):
        outcomes = {}
        for controller in ("standard", "verifier_gated", "unit_qgp"):
            out = tmp_path / f"fc-{controller}.jsonl"
            assert (
                main(
                    [
                        "run",
                        "--manifest",
                        str(mini_dataops_manifest),
                        "--controller",
                        controller,
                        "--policy",
                        "false_completer",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outcomes[controller] = [r["outcome"] for r in read_record_dicts(out)]
        assert all(o == "false_completion" for o in outcomes["standard"])
        assert all(o != "false_completion" for o in outcomes["verifier_gated"])
        assert all(o != "false_completion" for o in outcomes["unit_qgp"])

    def test_dead_adapter_aborts_with_nonzero_exit(self, mini_manifest, tmp_path):
        out = tmp_path / "abort.jsonl"
        code = main(
            [
                "run",
                "--manifest",
                str(mini_manifest),
                "--policy",
                "external",
                "--policy-cmd",
                f"{sys.executable} -c 'import sys; sys.exit(3)'",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        rows = read_record_dicts(out)
        assert all(r["outcome"] == "aborted" for r in rows)
        assert all("abort_reason" in r for r in rows)

    def test_aborted_row_bytes(self, tmp_path):
        # The adapter answers three steps, then exits on reading the fourth
        # request: the row keeps the ledger's counts at that point.
        replies = [
            {"kind": "submit", "ids": ["src/mod_0.py#source", "src/mod_1.py#source",
                                       "src/mod_2.py#source"]},
            {"kind": "final", "completion_claim": True, "reported_count": 5},
            {"kind": "submit", "ids": ["src/mod_0.py#source", "src/mod_3.py#source"]},
        ]
        script = tmp_path / "adapter.py"
        script.write_text(
            "import json, sys\n"
            f"for line, reply in zip(sys.stdin, {replies!r}):\n"
            "    print(json.dumps(reply), flush=True)\n"
        )
        task = TaskSpec("t1", Family.REPOSCAN, "zeta things", 5, 20, 3)
        corpus = tiny_corpus()
        env = ReposcanEnvironment(task, corpus, list(corpus.ids[:4]))
        policy = ExternalAdapterPolicy(command=[sys.executable, str(script)])
        try:
            record = run_episode(task, env, VerifierGatedController(), policy)
        finally:
            policy.close()
        row = record_to_dict(record)
        assert json.dumps(row, separators=(",", ":")) == (
            '{"task_id":"t1","family":"reposcan","target_count":5,"budget":20,'
            '"controller":"verifier_gated","policy":"external","outcome":"aborted",'
            '"valid_count":4,"steps_used":3,"duplicate_occurrences":1,'
            '"submission_occurrences":5,"reported_count":null,"intervention_count":1,'
            '"intervention_log":[{"step":2,"kind":"blocked_termination",'
            '"detail":"termination blocked: target not met, 2 of 5 still required"}],'
            '"abort_reason":"adapter closed its output stream"}'
        )
        assert list(row)[: len(RECORD_FIELDS)] == list(RECORD_FIELDS)

    @pytest.mark.parametrize("policy", ["solver", "no_submit_looper"])
    def test_backlog_policy_on_reposcan_is_refused(self, policy, mini_manifest, tmp_path, capsys):
        out = tmp_path / "refused.jsonl"
        code = main(["run", "--manifest", str(mini_manifest), "--policy", policy, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"policy {policy}" in err and "reposcan" in err
        assert not out.exists()

    def test_loop_unit_run_on_reposcan_keeps_its_records(self, mini_manifest, tmp_path):
        # A pure stall never reads the backlog, so it is not refused.
        out = tmp_path / "stall.jsonl"
        args = ["run", "--manifest", str(mini_manifest), "--out", str(out)]
        assert main(args + ["--policy", "no_submit_looper", "--loop-unit", "u000"]) == 0
        rows = read_record_dicts(out)
        assert all(r["outcome"] == "budget_exhausted" and r["valid_count"] == 0 for r in rows)

    def test_ablation_flag_needs_ablation_controller(self, mini_manifest, tmp_path, capsys):
        out = tmp_path / "refused.jsonl"
        args = ["run", "--manifest", str(mini_manifest), "--out", str(out)]
        code = main(args + ["--controller", "state_qgp", "--ablation", "dedupe_only"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestRunOutput:
    def test_replaces_existing_file_without_leftovers(self, mini_manifest, tmp_path):
        out = tmp_path / "records.jsonl"
        out.write_text("stale\n")
        argv = ["run", "--manifest", str(mini_manifest), "--policy", "duplicator"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_record_dicts(out)
        assert len(rows) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        out.write_text("previous\n")
        rows = [{"task_id": "t1"}, {"task_id": object()}]  # the second row cannot be encoded
        with pytest.raises(TypeError):
            _write_records(str(out), rows)
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

    def test_failed_run_keeps_previous_file(self, mini_manifest, tmp_path, monkeypatch, capsys):
        out = tmp_path / "records.jsonl"
        out.write_text("previous\n")
        real_dumps = json.dumps
        calls = []

        def failing_dumps(obj, **kwargs):
            calls.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(calls) == 2:  # the second record line: the temp file holds the first
                raise OSError("disk full")
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", failing_dumps)
        argv = ["run", "--manifest", str(mini_manifest), "--policy", "duplicator"]
        assert main(argv + ["--out", str(out)]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == f"error: cannot write {out}: disk full\n"
        assert len(calls) == 2
        assert len(calls[1]) == 2 and calls[1][1].endswith(".tmp")
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


@pytest.fixture(scope="module")
def record_files(mini_manifest, tmp_path_factory):
    base = tmp_path_factory.mktemp("analysis")
    files = {}
    for controller in ("standard", "state_qgp"):
        out = base / f"{controller}.jsonl"
        code = main(
            [
                "run",
                "--manifest",
                str(mini_manifest),
                "--controller",
                controller,
                "--policy",
                "duplicator",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        files[controller] = out
    return files


class TestAnalysis:
    def test_aggregate_csv(self, record_files, tmp_path):
        out = tmp_path / "agg.csv"
        code = main(
            [
                "aggregate",
                "--records",
                str(record_files["standard"]),
                "--records",
                str(record_files["state_qgp"]),
                "--group-by",
                "controller,policy",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "controller,policy,runs,success_rate,avg_valid_count,duplicate_submit_rate,"
            "valid_per_step,budget_exhausted_rate,premature_stop_rate,"
            "false_completion_rate,provider_error_rate"
        )
        assert len(lines) == 3

    @pytest.mark.parametrize("again", ["r.jsonl", "./r.jsonl", "link.jsonl"])
    def test_aggregate_refuses_a_records_file_given_twice(
        self, again, record_files, tmp_path, monkeypatch, capsys
    ):
        # Under any path, the same file twice would count each of its runs twice.
        shutil.copy(record_files["standard"], tmp_path / "r.jsonl")
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "r.jsonl")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "agg.csv"
        argv = ["aggregate", "--records", "r.jsonl", "--records", again, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: records file r.jsonl is given twice\n"
        assert not out.exists()

    def test_aggregate_sums_two_files_with_the_same_runs(self, record_files, tmp_path):
        copy = tmp_path / "copy.jsonl"
        shutil.copy(record_files["standard"], copy)
        out = tmp_path / "agg.csv"
        argv = ["aggregate", "--records", str(record_files["standard"]), "--records", str(copy)]
        assert main(argv + ["--out", str(out)]) == 0
        runs = len(read_record_dicts(copy))
        assert out.read_text().splitlines()[1].split(",")[2] == str(2 * runs)

    def test_delta_confidence_out_of_range_is_one_error_line(self, record_files, tmp_path, capsys):
        records = str(record_files["standard"])
        out = tmp_path / "delta.csv"
        argv = ["delta", "--left", records, "--right", records, "--confidence", "1.5"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: confidence must be in (0, 1), got 1.5\n"
        assert not out.exists()

    def test_delta_identical_files_zero(self, record_files, tmp_path):
        out = tmp_path / "delta.csv"
        code = main(
            [
                "delta",
                "--left",
                str(record_files["standard"]),
                "--right",
                str(record_files["standard"]),
                "--resamples",
                "500",
                "--seed",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "0.000000"  # success_delta
        assert row[4] == "0.000000" and row[5] == "0.000000"  # ci bounds

    def test_delta_seeded_twice_byte_identical(self, record_files, tmp_path):
        outputs = []
        for name in ("d1.csv", "d2.csv"):
            out = tmp_path / name
            code = main(
                [
                    "delta",
                    "--left",
                    str(record_files["state_qgp"]),
                    "--right",
                    str(record_files["standard"]),
                    "--resamples",
                    "1000",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_delta_notes_a_zero_width_interval(self, record_files, tmp_path, capsys):
        out = tmp_path / "delta.csv"
        records = str(record_files["standard"])
        argv = ["delta", "--left", records, "--right", records, "--resamples", "500"]
        assert main(argv + ["--seed", "6", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out} delta=0.000 ci=[0.000, 0.000]\n"
        assert captured.err == (
            "note: the interval has zero width over 3 paired tasks; "
            "it does not make the difference certain\n"
        )

    def test_delta_with_a_wide_interval_has_no_note(self, record_files, tmp_path, capsys):
        rows = [json.loads(line) for line in record_files["standard"].read_text().splitlines()]
        sides = {}
        # A budget-exhausted row is short of its target, or the reader refuses it.
        failure = {"outcome": "budget_exhausted", "valid_count": 0}
        for side, first in (("left", {"outcome": "success"}), ("right", failure)):
            edits = [first] + [{"outcome": "success"}] * (len(rows) - 1)
            sides[side] = tmp_path / f"{side}.jsonl"
            sides[side].write_text(
                "".join(json.dumps(row | edit) + "\n" for row, edit in zip(rows, edits))
            )
        out = tmp_path / "delta.csv"
        argv = ["delta", "--left", str(sides["left"]), "--right", str(sides["right"])]
        assert main(argv + ["--resamples", "1000", "--seed", "7", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) < float(row[5])  # ci_low < ci_high
        assert capsys.readouterr().err == ""

    def test_delta_labels_tell_two_external_agents_apart(self, record_files, tmp_path):
        # Two adapters both record as `standard/external`; only the flags name them.
        rows = [json.loads(line) for line in record_files["standard"].read_text().splitlines()]
        failure = {"outcome": "budget_exhausted", "valid_count": 0}
        sides = {}
        for side, first in (("left", {}), ("right", failure)):
            edits = [first] + [{}] * (len(rows) - 1)
            sides[side] = tmp_path / f"{side}.jsonl"
            sides[side].write_text(
                "".join(
                    json.dumps(row | {"policy": "external"} | edit) + "\n"
                    for row, edit in zip(rows, edits)
                )
            )
        argv = ["delta", "--left", str(sides["left"]), "--right", str(sides["right"])]
        argv += ["--resamples", "500", "--seed", "6"]
        tables = []
        for name, labels in (
            ("plain.csv", []),
            ("named.csv", ["--left-label", "claude", "--right-label", "codex"]),
        ):
            out = tmp_path / name
            assert main(argv + labels + ["--out", str(out)]) == 0
            header, row = out.read_text().splitlines()
            tables.append(dict(zip(header.split(","), row.split(","))))
        plain, named = tables
        assert (plain["left"], plain["right"]) == ("standard/external", "standard/external")
        assert (named["left"], named["right"]) == ("claude", "codex")
        assert plain | {"left": "claude", "right": "codex"} == named

    @pytest.mark.parametrize("resamples", ["0", "-3"])
    def test_delta_resamples_below_one_refused(self, record_files, tmp_path, capsys, resamples):
        out = tmp_path / "delta.csv"
        records = str(record_files["standard"])
        code = main(
            ["delta", "--left", records, "--right", records, "--resamples", resamples,
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: resamples must be at least 1, got {resamples}\n"
        assert not out.exists()

    def test_delta_no_common_tasks_nonzero(self, record_files, tmp_path, mini_dataops_manifest):
        other = tmp_path / "other.jsonl"
        code = main(
            [
                "run",
                "--manifest",
                str(mini_dataops_manifest),
                "--policy",
                "solver",
                "--out",
                str(other),
            ]
        )
        assert code == 0
        code = main(
            [
                "delta",
                "--left",
                str(record_files["standard"]),
                "--right",
                str(other),
                "--out",
                str(tmp_path / "nope.csv"),
            ]
        )
        assert code == 2


def _external_row(task_id: str, outcome: str, valid: int = 0) -> dict:
    """A record line of a target-3 run that took two steps and submitted its
    valid ids once each; an aborted one has its `abort_reason` last."""
    row = {
        "task_id": task_id, "family": "reposcan", "target_count": 3, "budget": 10,
        "controller": "standard", "policy": "external", "outcome": outcome,
        "valid_count": valid, "steps_used": 2, "duplicate_occurrences": 0,
        "submission_occurrences": valid, "reported_count": None, "intervention_count": 0,
        "intervention_log": [],
    }
    if outcome == "aborted":
        row["abort_reason"] = "adapter closed its output stream"
    return row


def _write_rows(path: Path, rows: list[dict]) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


# Reposcan runs whose adapter exits on reading a request for a task id of
# even CRC, and otherwise ends the run with a claim (a false completion) or
# without one (a premature stop), so groups mix aborted and other rows.
SOMETIMES_ABORTING_ADAPTER = """
    import json, sys, zlib
    for line in sys.stdin:
        crc = zlib.crc32(json.loads(line)["task_id"].encode())
        if crc % 2 == 0:
            sys.exit(0)
        claim = "true" if crc % 4 == 1 else "false"
        sys.stdout.write('{"kind": "final", "completion_claim": %s}\\n' % claim)
        sys.stdout.flush()
"""


class TestEveryRowCounts:
    """`aggregate` and `delta` count every record row: an aborted run is a
    provider error and a failure, and `delta` names what it could not pair."""

    def test_aggregate_counts_aborted_rows(self, tmp_path):
        rows = [_external_row("t0", "success", valid=3)]
        rows += [_external_row(f"t{i}", "aborted", valid=1) for i in (1, 2, 3)]
        records = _write_rows(tmp_path / "r.jsonl", rows)
        out = tmp_path / "agg.csv"
        assert main(["aggregate", "--records", records, "--out", str(out)]) == 0
        # valid_per_step: (3/2 + 3 * 1/2) / 4; the counts average over all four.
        assert out.read_text().splitlines()[1] == (
            "standard,external,4,0.250000,1.500000,0.000000,0.750000,"
            "0.000000,0.000000,0.000000,0.750000"
        )

    def test_delta_scores_an_aborted_task_as_a_failure(self, tmp_path, capsys):
        left = [_external_row(f"t{i}", "success", valid=3) for i in range(3)]
        left += [_external_row(f"t{i}", "aborted") for i in range(3, 9)]
        right = [_external_row(f"t{i}", "budget_exhausted", valid=1) for i in range(9)]
        out = tmp_path / "delta.csv"
        argv = ["delta", "--left", _write_rows(tmp_path / "l.jsonl", left)]
        argv += ["--right", _write_rows(tmp_path / "r.jsonl", right)]
        assert main(argv + ["--resamples", "1000", "--out", str(out)]) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert (row["paired_tasks"], row["success_delta"]) == ("9", "0.333333")
        assert capsys.readouterr().err == (
            "note: left has 6 aborted tasks (t3, t4, t5 and 3 more), "
            "each scored as a failure\n"
        )

    def test_delta_names_unpaired_tasks(self, tmp_path, capsys):
        left = [_external_row(f"t{i}", "success", valid=3) for i in range(3)]
        right = [_external_row(f"t{i}", "aborted") for i in range(1, 4)]
        out = tmp_path / "delta.csv"
        argv = ["delta", "--left", _write_rows(tmp_path / "l.jsonl", left)]
        argv += ["--right", _write_rows(tmp_path / "r.jsonl", right)]
        assert main(argv + ["--resamples", "1000", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[2:4] == ["2", "1.000000"]
        assert capsys.readouterr().err.splitlines() == [
            "note: left has 1 unpaired task (t0), not in the delta",
            "note: right has 2 aborted tasks (t1, t2), each scored as a failure",
            "note: right has 1 unpaired task (t3), not in the delta",
            "note: the interval has zero width over 2 paired tasks; "
            "it does not make the difference certain",
        ]

    def test_outcome_rates_sum_to_one_on_the_reference_pipelines(
        self, reposcan_manifest_path, dataops_manifest_path, tmp_path
    ):
        adapter = {"command": _write_adapter(tmp_path, SOMETIMES_ABORTING_ADAPTER)}
        cells = {
            reposcan_manifest_path: [
                ("standard", "duplicator", {}),
                ("verifier_gated", "false_completer", {}),
                ("state_qgp", "early_stopper", {}),
                ("state_qgp", "greedy_oracle", {}),
                ("standard", "external", adapter),
            ],
            dataops_manifest_path: [
                ("unit_qgp", "solver", {}),
                ("standard", "no_submit_looper", {}),
                ("standard", "false_completer", {}),
                ("standard", "early_stopper", {}),
            ],
        }
        rates = ("success_rate", "budget_exhausted_rate", "premature_stop_rate",
                 "false_completion_rate", "provider_error_rate")
        aborts = 0
        for path, runs in cells.items():
            rows = []
            for controller, policy, params in runs:
                config = ControllerConfig(kind=ControllerKind(controller))
                records, aborted = cli.run_manifest(str(path), config, policy, params, 0, jobs=2)
                rows += [metrics_from_record_dict(record) for record in records]
                aborts += aborted
            table = aggregate(rows, ["controller", "policy", "target_count"])
            assert sum(group.runs for group in table) == len(rows)
            for group in table:
                assert sum(getattr(group, rate) for rate in rates) == pytest.approx(1, abs=1e-9)
        assert 0 < aborts < 36


class TestRunConfig:
    def test_file_round_trip_lossless(self, tmp_path):
        from qgp.cli import RunConfig

        config = RunConfig(
            manifest="/abs/manifest.json",
            controller="unit_qgp",
            policy="no_submit_looper",
            out="/abs/records.jsonl",
            policy_params={"loop_unit": "u003"},
            no_progress_limit=4,
            jobs=3,
        )
        path = tmp_path / "run.json"
        config.save(path)
        assert RunConfig.load(path) == config

    def test_run_from_config_file(self, mini_manifest, tmp_path):
        from qgp.cli import RunConfig

        out = tmp_path / "via-config.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="state_qgp",
            policy="duplicator",
            out=str(out),
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 0
        direct = tmp_path / "direct.jsonl"
        assert main(
            [
                "run",
                "--manifest",
                str(mini_manifest),
                "--controller",
                "state_qgp",
                "--policy",
                "duplicator",
                "--out",
                str(direct),
            ]
        ) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_saved_ablation_flag_needs_ablation_controller(self, mini_manifest, tmp_path, capsys):
        from qgp.cli import RunConfig

        out = tmp_path / "refused.jsonl"
        config = RunConfig(
            manifest=str(mini_manifest),
            controller="state_qgp",
            policy="duplicator",
            out=str(out),
            ablation="dedupe_only",
        )
        config_path = tmp_path / "cfg.json"
        config.save(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and config_path.name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("jobs", "2", "a non-negative integer"),
            ("no_progress_limit", True, "a non-negative integer"),
            ("ablation", 3, "a string or null"),
            ("policy_params", [], "an object"),
        ],
    )
    def test_wrongly_typed_field_is_refused(
        self, field, value, expected, mini_manifest, tmp_path, capsys
    ):
        out = tmp_path / "refused.jsonl"
        saved = {"manifest": str(mini_manifest), "controller": "standard"}
        saved |= {"policy": "duplicator", "out": str(out), field: value}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(saved), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {config_path}: ValueError: {field} must be {expected}\n"
        )
        assert not out.exists()

    # `workspace_root` and `seed` are what a config saved by an older version holds.
    @pytest.mark.parametrize(
        "field, value", [("job", 2), ("workspace_root", "/abs/ws"), ("seed", 1)]
    )
    def test_unknown_field_is_refused(self, field, value, mini_manifest, tmp_path, capsys):
        saved = {"manifest": str(mini_manifest), "controller": "standard"}
        saved |= {"policy": "duplicator", "out": str(tmp_path / "r.jsonl"), field: value}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(saved), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {config_path}: ValueError: unknown field {field!r}\n"
        )
        assert not (tmp_path / "r.jsonl").exists()

    def test_run_without_manifest_errors(self, capsys):
        assert main(["run", "--policy", "duplicator"]) == 2
        assert "requires" in capsys.readouterr().err


class TestSmoke:
    def test_intact_manifests_pass(self, mini_manifest, mini_dataops_manifest, capsys):
        assert main(["smoke", "--manifest", str(mini_manifest)]) == 0
        assert "ok:" in capsys.readouterr().out
        assert main(["smoke", "--manifest", str(mini_dataops_manifest)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_backlog_the_solver_cannot_clear_fails_solvability(
        self, mini_dataops_manifest, tmp_path, capsys
    ):
        obj = json.loads(Path(mini_dataops_manifest).read_text())
        task = obj["tasks"][0]
        task["budget"] = 1
        short = tmp_path / "short.json"
        short.write_text(json.dumps(obj))
        assert main(["smoke", "--manifest", str(short)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL: solvability: backlog {task['task_id']} not solvable within budget "
            "(outcome=budget_exhausted, valid=0)\n"
        )

    def test_public_strings_that_name_hidden_sections_are_no_leak(
        self, mini_manifest, mini_dataops_manifest, tmp_path, capsys
    ):
        # The public views have fixed fields, so a value that reads like a
        # hidden section's key is only text.
        obj = json.loads(Path(mini_manifest).read_text())
        obj["tasks"][0]["objective_text"] = "hidden"
        reposcan_path = tmp_path / "reposcan.json"
        reposcan_path.write_text(json.dumps(obj))
        obj = json.loads(Path(mini_dataops_manifest).read_text())
        # A unit whose file starts right, so the solver never reads its prompt.
        unit = next(u for u in obj["tasks"][0]["units"] if u["kind"] == "csv_count_check")
        unit["prompt"] = "checkers"
        dataops_path = tmp_path / "dataops.json"
        dataops_path.write_text(json.dumps(obj))
        for path in (reposcan_path, dataops_path):
            assert main(["smoke", "--manifest", str(path)]) == 0
            assert capsys.readouterr().out.startswith("ok:")

    def test_injected_fault_detected(self, mini_manifest, tmp_path, capsys):
        obj = json.loads(Path(mini_manifest).read_text())
        obj["tasks"][0]["hidden"]["valid_ids"].pop()
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        assert main(["smoke", "--manifest", str(broken)]) == 1
        assert "hidden set mismatch" in capsys.readouterr().out

    def test_leaky_manifest_detected(self, mini_dataops_manifest, tmp_path, capsys):
        obj = json.loads(Path(mini_dataops_manifest).read_text())
        # Leak a checker's expected digest into a public prompt.
        task = obj["tasks"][0]
        for checker in task["hidden"]["checkers"].values():
            if checker["type"] == "file_digest":
                task["units"][0]["prompt"] += " " + checker["expected_digest"]
                break
        else:
            pytest.skip("no digest checker in first backlog")
        leaky = tmp_path / "leaky.json"
        leaky.write_text(json.dumps(obj))
        assert main(["smoke", "--manifest", str(leaky)]) == 1
        assert "leaked" in capsys.readouterr().out

    @pytest.mark.parametrize("shared", [False, True])
    def test_hidden_id_in_objective_text_is_a_leak(
        self, shared, mini_manifest, tmp_path, capsys
    ):
        obj = json.loads(Path(mini_manifest).read_text())
        task = obj["tasks"][0]
        # An id of this task that no other task counts, or that exactly one
        # other task counts: each task that counts it reports the leak.
        counts = Counter(i for t in obj["tasks"] for i in t["hidden"]["valid_ids"])
        holders = 2 if shared else 1
        leaked = min(i for i in task["hidden"]["valid_ids"] if counts[i] == holders)
        task["objective_text"] += " " + leaked
        leaky = tmp_path / "leaky.json"
        leaky.write_text(json.dumps(obj))
        assert main(["smoke", "--manifest", str(leaky)]) == 1
        flagged = [t["task_id"] for t in obj["tasks"] if leaked in t["hidden"]["valid_ids"]]
        assert len(flagged) == holders and flagged[0] == task["task_id"]
        assert capsys.readouterr().out == "".join(
            f"FAIL: hidden id leaked: {task_id}\n" for task_id in flagged
        )

    @pytest.mark.parametrize("name", ["café0.md", 'q"0.md', "b\\0.md"])
    def test_hidden_id_that_json_escapes_is_a_leak(self, name, tmp_path, capsys):
        # JSON writes a non-ASCII character, a quote or a backslash escaped,
        # and smoke must still find the id that a policy reads.
        docs = tmp_path / "snap" / "docs"
        docs.mkdir(parents=True)
        for i in range(12):
            (docs / (name if i == 0 else f"d{i}.md")).write_text("gadget")
            (docs.parent / f"m{i}.py").write_text("widget")
        manifest = tmp_path / "escaped.json"
        args = ["--targets", "10", "--instances", "3", "--out", str(manifest)]
        assert main(["gen-reposcan", "--snapshot", str(docs.parent), *args]) == 0
        assert main(["smoke", "--manifest", str(manifest)]) == 0
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        leaked = f"docs/{name}#documentation"
        flagged = [t["task_id"] for t in obj["tasks"] if leaked in t["hidden"]["valid_ids"]]
        assert flagged
        task = next(t for t in obj["tasks"] if t["task_id"] == flagged[0])
        task["objective_text"] += " " + leaked
        manifest.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["smoke", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().out == "".join(
            f"FAIL: hidden id leaked: {task_id}\n" for task_id in flagged
        )

    def test_target_above_hidden_set_size(self, mini_manifest, tmp_path, capsys):
        obj = json.loads(Path(mini_manifest).read_text())
        task = obj["tasks"][0]
        task["target_count"] = len(task["hidden"]["valid_ids"]) + 1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        assert main(["smoke", "--manifest", str(broken)]) == 1
        out = capsys.readouterr().out
        assert out == f"FAIL: hidden set smaller than target: {task['task_id']}\n"


class TestSnapshotChecks:
    """`run` and `smoke` read each snapshot of a manifest once and compare
    its digest with the one recorded at generation."""

    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_each_snapshot_read_once(
        self, command, reposcan_manifest_path, tmp_path, monkeypatch
    ):
        reads = []
        real_read_snapshot = reposcan.read_snapshot

        def counting(root):
            reads.append(str(root))
            return real_read_snapshot(root)

        monkeypatch.setattr(reposcan, "read_snapshot", counting)
        argv = {
            "run": ["run", "--out", str(tmp_path / "records.jsonl")],
            "smoke": ["smoke"],
        }[command]
        assert main(argv + ["--manifest", str(reposcan_manifest_path)]) == 0
        snapshots = json.loads(Path(reposcan_manifest_path).read_text())["snapshots"]
        assert len(snapshots) == 3
        assert sorted(reads) == sorted(s["root"] for s in snapshots)

    @pytest.fixture
    def drifted_manifest(self, snapshot_roots, tmp_path) -> tuple[Path, str]:
        """A manifest over a copied snapshot whose file changed after generation,
        and the error line `run` reports for it."""
        root = tmp_path / "alpha_repo"
        shutil.copytree(snapshot_roots[0], root)
        manifest = tmp_path / "manifest.json"
        argv = ["gen-reposcan", "--snapshot", str(root), "--targets", "10", "--instances", "1"]
        assert main(argv + ["--out", str(manifest)]) == 0
        recorded = json.loads(manifest.read_text())["snapshots"][0]["digest"]
        edited = next(p for p in sorted(root.rglob("*")) if p.is_file())
        edited.write_text(edited.read_text() + "\nedited\n")
        found = reposcan.read_snapshot(root).digest
        assert found != recorded
        error = (
            f"error: snapshot alpha_repo changed since generation "
            f"(digest {found[:12]} != {recorded[:12]})\n"
        )
        return manifest, error

    def test_run_refuses_a_changed_snapshot(self, drifted_manifest, tmp_path, capsys):
        manifest, error = drifted_manifest
        capsys.readouterr()
        out = tmp_path / "records.jsonl"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()

    def test_smoke_reports_a_changed_snapshot(self, drifted_manifest, capsys):
        manifest, _ = drifted_manifest
        capsys.readouterr()
        assert main(["smoke", "--manifest", str(manifest)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL: snapshot digest drift: alpha_repo"


def _manifest_text(family: str, tasks: list, version: int = 1, **payload) -> str:
    obj = {"format": "qgp-manifest", "family": family, "version": version, "metadata": {}}
    return json.dumps(obj | payload | {"tasks": tasks}) + "\n"


def _task(family: str, **payload) -> dict:
    public = {"task_id": "t1", "objective_text": "o", "target_count": 1, "budget": 5, "seed": 0}
    return public | {"family": family} | payload


_SNAPSHOT = {"name": "s", "root": "no-such-root", "digest": "0" * 64, "artifact_count": 1}
_HIDDEN = {"predicate": {"type": "test_or_documentation", "kinds": ["test"]}, "valid_ids": ["a"]}
_ESCAPING_UNIT = {
    "units": [
        {"unit_id": "u0", "kind": "consistency_answer", "prompt": "p", "artifact_path": "../a.txt"}
    ],
    "hidden": {
        "checkers": {
            "u0": {"type": "answer_equals", "file": "../a.txt", "expected_normalized": "x"}
        },
        "files": {},
    },
}

_REPEATED_UNIT = {
    "units": [
        {"unit_id": "u0", "kind": "consistency_answer", "prompt": "p", "artifact_path": "a.txt"}
    ]
    * 2,
    "hidden": {
        "checkers": {"u0": {"type": "answer_equals", "file": "a.txt", "expected_normalized": "x"}},
        "files": {},
    },
}

_PADDED_UNIT = {
    "units": [
        {"unit_id": " u0", "kind": "consistency_answer", "prompt": "p", "artifact_path": "a.txt"}
    ],
    "hidden": {
        "checkers": {
            " u0": {"type": "answer_equals", "file": "a.txt", "expected_normalized": "x"}
        },
        "files": {},
    },
}

_NO_UNITS = {"units": [], "hidden": {"checkers": {}, "files": {}}}

_ESCAPING_FILE = {
    "units": [
        {"unit_id": "u0", "kind": "consistency_answer", "prompt": "p", "artifact_path": "a.txt"}
    ],
    "hidden": {
        "checkers": {"u0": {"type": "answer_equals", "file": "a.txt", "expected_normalized": "x"}},
        "files": {"../x": "x"},
    },
}

_UNIT = {"unit_id": "u0", "kind": "consistency_answer", "prompt": "p", "artifact_path": "a.txt"}
_ONE_UNIT = {
    "units": [_UNIT],
    "hidden": {
        "checkers": {"u0": {"type": "answer_equals", "file": "a.txt", "expected_normalized": "x"}},
        "files": {},
    },
}

MALFORMED_INPUTS = {
    "reposcan-without-snapshots": '{"format": "qgp-manifest", "family": "reposcan"}\n',
    "reposcan-task-naming-unknown-snapshot": _manifest_text(
        "reposcan",
        [_task("reposcan", snapshot="nope", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "reposcan-version-99": _manifest_text("reposcan", [], version=99, snapshots=[]),
    "task-family-differs-from-envelope": _manifest_text(
        "reposcan", [_task("dataops", snapshot="s", hidden=_HIDDEN)], snapshots=[_SNAPSHOT]
    ),
    "dataops-unit-path-outside-workspace": _manifest_text(
        "dataops", [_task("dataops", **_ESCAPING_UNIT)]
    ),
    "dataops-task-repeating-a-unit-id": _manifest_text(
        "dataops", [_task("dataops", **_REPEATED_UNIT)]
    ),
    "dataops-task-without-units": _manifest_text("dataops", [_task("dataops", **_NO_UNITS)]),
    "dataops-unit-id-with-surrounding-whitespace": _manifest_text(
        "dataops", [_task("dataops", **_PADDED_UNIT)]
    ),
    "dataops-task-with-file-outside-workspace": _manifest_text(
        "dataops", [_task("dataops", **_ESCAPING_FILE)]
    ),
    "dataops-without-tasks": '{"format": "qgp-manifest", "family": "dataops"}\n',
    "reposcan-task-with-target-count-0": _manifest_text(
        "reposcan",
        [_task("reposcan", target_count=0, snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "dataops-task-with-budget-0": _manifest_text("dataops", [_task("dataops", budget=0)]),
    "reposcan-task-with-valid-ids-a-string": _manifest_text(
        "reposcan",
        [_task("reposcan", snapshot="s", hidden=_HIDDEN | {"valid_ids": "abc"})],
        snapshots=[_SNAPSHOT],
    ),
    "reposcan-task-with-a-valid-id-not-a-string": _manifest_text(
        "reposcan",
        [_task("reposcan", snapshot="s", hidden=_HIDDEN | {"valid_ids": [7, "x"]})],
        snapshots=[_SNAPSHOT],
    ),
    "not-json": "this is not json\n",
    "not-an-object": "[1, 2]\n",
    "config-with-unknown-controller": json.dumps(
        {"manifest": "m.json", "controller": "bogus", "policy": "solver", "out": "o.jsonl"}
    )
    + "\n",
    "record-with-unknown-outcome": json.dumps(
        {field: 1 for field in RECORD_FIELDS} | {"outcome": "won"}
    )
    + "\n",
    # Mistyped fields; FIELD_ERRORS holds what loading says of each.
    "reposcan-task-with-objective-text-7": _manifest_text(
        "reposcan",
        [_task("reposcan", objective_text=7, snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "reposcan-snapshot-with-root-5": _manifest_text(
        "reposcan",
        [_task("reposcan", snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT | {"root": 5}],
    ),
    "reposcan-task-with-target-count-true": _manifest_text(
        "reposcan",
        [_task("reposcan", target_count=True, snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "reposcan-task-with-target-count-1.5": _manifest_text(
        "reposcan",
        [_task("reposcan", target_count=1.5, snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "dataops-task-with-budget-30.5": _manifest_text("dataops", [_task("dataops", budget=30.5)]),
    "reposcan-task-with-task-id-7": _manifest_text(
        "reposcan",
        [_task("reposcan", task_id=7, snapshot="s", hidden=_HIDDEN)],
        snapshots=[_SNAPSHOT],
    ),
    "dataops-with-tasks-an-object": _manifest_text("dataops", {}),
    "reposcan-task-without-snapshot": _manifest_text(
        "reposcan", [_task("reposcan", hidden=_HIDDEN)], snapshots=[_SNAPSHOT]
    ),
    "reposcan-task-without-hidden": _manifest_text(
        "reposcan", [_task("reposcan", snapshot="s")], snapshots=[_SNAPSHOT]
    ),
    "reposcan-with-snapshots-5": _manifest_text(
        "reposcan", [_task("reposcan", snapshot="s", hidden=_HIDDEN)], snapshots=5
    ),
    "dataops-task-without-units-field": _manifest_text(
        "dataops", [_task("dataops", hidden=_ONE_UNIT["hidden"])]
    ),
    "dataops-task-with-units-3": _manifest_text(
        "dataops", [_task("dataops", **_ONE_UNIT | {"units": 3})]
    ),
    "dataops-task-without-hidden": _manifest_text(
        "dataops", [_task("dataops", units=_ONE_UNIT["units"])]
    ),
    # A nested record is named by its whole path.
    "reposcan-snapshot-not-an-object": _manifest_text(
        "reposcan", [_task("reposcan", snapshot="s", hidden=_HIDDEN)], snapshots=[5]
    ),
    "dataops-unit-not-an-object": _manifest_text(
        "dataops", [_task("dataops", **_ONE_UNIT | {"units": [5]})]
    ),
    "dataops-unit-with-prompt-7": _manifest_text(
        "dataops", [_task("dataops", **_ONE_UNIT | {"units": [_UNIT | {"prompt": 7}]})]
    ),
    # A unit whose checker is missing, or whose kind is unknown or names
    # another checker type; TASK_ERRORS holds what loading says of each.
    "dataops-unit-without-checker": _manifest_text(
        "dataops", [_task("dataops", **_ONE_UNIT | {"hidden": {"checkers": {}, "files": {}}})]
    ),
    "dataops-unit-of-unknown-kind": _manifest_text(
        "dataops", [_task("dataops", **_ONE_UNIT | {"units": [_UNIT | {"kind": "no_such_kind"}]})]
    ),
    "dataops-unit-kind-naming-another-checker": _manifest_text(
        "dataops",
        [_task("dataops", **_ONE_UNIT | {"units": [_UNIT | {"kind": "csv_count_check"}]})],
    ),
}
# The whole error line that loading gives for each mistyped manifest field,
# after "error: cannot load PATH: ".
FIELD_ERRORS = {
    "reposcan-task-with-objective-text-7": "task 't1': objective_text must be a string",
    "reposcan-snapshot-with-root-5": "snapshots[0].root must be a string",
    "reposcan-task-with-target-count-true": (
        "task 't1': target_count must be a non-negative integer"
    ),
    "reposcan-task-with-target-count-1.5": (
        "task 't1': target_count must be a non-negative integer"
    ),
    "dataops-task-with-budget-30.5": "task 't1': budget must be a non-negative integer",
    "reposcan-task-with-task-id-7": "tasks[0]: task_id must be a string",
    "dataops-with-tasks-an-object": "tasks must be a list of items each an object",
    "reposcan-task-with-valid-ids-a-string": (
        "task 't1': hidden.valid_ids must be a list of strings"
    ),
    "reposcan-task-without-snapshot": "task 't1': snapshot must be a string",
    "reposcan-task-without-hidden": "task 't1': hidden must be an object",
    "reposcan-with-snapshots-5": "snapshots must be a list of items each an object",
    "dataops-task-without-units-field": "task 't1': units must be a list of items each an object",
    "dataops-task-with-units-3": "task 't1': units must be a list of items each an object",
    "dataops-task-without-hidden": "task 't1': hidden must be an object",
    "reposcan-snapshot-not-an-object": "snapshots[0] must be an object",
    "dataops-unit-not-an-object": "task 't1': units[0] must be an object",
    "dataops-unit-with-prompt-7": "task 't1': units[0].prompt must be a string",
}
# What loading says of the one task of each malformed manifest.
TASK_ERRORS = {
    "reposcan-task-with-target-count-0": "must be >= 1, got 0",
    "dataops-task-with-budget-0": "must be >= 1, got 0",
    "dataops-task-without-units": "has no units",
    "dataops-unit-id-with-surrounding-whitespace": (
        "units[0].unit_id must not start or end with whitespace"
    ),
    "dataops-task-with-file-outside-workspace": "file '../x': not a file path inside",
    "reposcan-task-with-valid-ids-a-string": "valid_ids must be a list of strings",
    "reposcan-task-with-a-valid-id-not-a-string": "valid_ids must be a list of strings",
    "dataops-unit-without-checker": "task 't1' unit 'u0' has no checker",
    "dataops-unit-of-unknown-kind": (
        "task 't1' unit 'u0': kind 'no_such_kind' is not checked by answer_equals"
    ),
    "dataops-unit-kind-naming-another-checker": (
        "task 't1' unit 'u0': kind 'csv_count_check' is not checked by answer_equals"
    ),
}
COMMANDS = {
    "run": lambda path, out: ["run", "--manifest", path, "--out", out],
    "run-config": lambda path, out: ["run", "--config", path],
    "smoke": lambda path, out: ["smoke", "--manifest", path],
    "aggregate": lambda path, out: ["aggregate", "--records", path, "--out", out],
}


def _record_row(task_id: str) -> dict:
    return {
        "task_id": task_id,
        "family": "reposcan",
        "target_count": 10,
        "budget": 30,
        "controller": "standard",
        "policy": "greedy_oracle",
        "outcome": "success",
        "valid_count": 10,
        "steps_used": 4,
        "duplicate_occurrences": 0,
        "submission_occurrences": 10,
        "reported_count": None,
        "intervention_count": 0,
        "intervention_log": [],
    }


# One mistyped field of the second row of a two-row records file, and the
# whole error line that loading gives for it, after "error: cannot load PATH: ".
RECORD_FIELD_ERRORS = {
    "controller-a-list": (
        {"controller": ["x"]},
        "task 't2' on line 2: controller must be a string",
    ),
    "valid-count-a-string": (
        {"valid_count": "3"},
        "task 't2' on line 2: valid_count must be a non-negative integer",
    ),
    "steps-used-true": (
        {"steps_used": True},
        "task 't2' on line 2: steps_used must be a non-negative integer",
    ),
    "reported-count-a-float": (
        {"reported_count": 4.0},
        "task 't2' on line 2: reported_count must be a non-negative integer or null",
    ),
    "task-id-missing": ({"task_id": None}, "record on line 2: task_id must be a string"),
}

# One rule every run keeps, broken by the second row of a two-row records
# file whose first row is task 't1', and the whole error line that loading
# gives for it, after "error: cannot load PATH: ".
RECORD_RULE_ERRORS = {
    "task-repeated": ({"task_id": "t1"}, "task 't1' on line 2: repeats line 1"),
    "valid-count-99-of-10-submissions": (
        {"valid_count": 99},
        "task 't2' on line 2: valid_count 99 exceeds the 10 non-duplicates",
    ),
    "duplicates-over-submissions": (
        {"duplicate_occurrences": 11},
        "task 't2' on line 2: duplicate_occurrences 11 exceeds submission_occurrences 10",
    ),
    "valid-count-over-non-duplicates": (
        {"duplicate_occurrences": 1},
        "task 't2' on line 2: valid_count 10 exceeds the 9 non-duplicates",
    ),
    "steps-over-budget": (
        {"steps_used": 31},
        "task 't2' on line 2: steps_used 31 exceeds budget 30",
    ),
    "success-short-of-target": (
        {"valid_count": 9},
        "task 't2' on line 2: outcome success with valid_count 9 of target 10",
    ),
    "failure-at-target": (
        {"outcome": "budget_exhausted"},
        "task 't2' on line 2: outcome budget_exhausted with valid_count 10 of target 10",
    ),
    # The log is checked for its type and length only, not entry by entry.
    "intervention-count-over-the-log": (
        {"intervention_count": 5},
        "task 't2' on line 2: intervention_count 5 with 0 intervention_log entries",
    ),
    "intervention-log-over-the-count": (
        {"intervention_log": [{}]},
        "task 't2' on line 2: intervention_count 0 with 1 intervention_log entries",
    ),
    "intervention-log-a-string": (
        {"intervention_log": "[]"},
        "task 't2' on line 2: intervention_log must be a list",
    ),
    "intervention-log-null": (
        {"intervention_log": None},
        "task 't2' on line 2: intervention_log must be a list",
    ),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("content", sorted(FIELD_ERRORS))
    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_mistyped_field_is_one_error_line(self, command, content, tmp_path, capsys):
        path = tmp_path / f"{content}.json"
        path.write_text(MALFORMED_INPUTS[content], encoding="utf-8")
        assert main(COMMANDS[command](str(path), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load ") and err.count("\n") == 1
        assert err.endswith(f"{path.name}: ValueError: {FIELD_ERRORS[content]}\n")

    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_repeated_task_id_is_one_error_line(self, command, mini_manifest, tmp_path, capsys):
        obj = json.loads(Path(mini_manifest).read_text())
        obj["tasks"][1]["task_id"] = obj["tasks"][0]["task_id"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.jsonl"
        assert main(COMMANDS[command](str(path), str(out))) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {path}: ValueError: duplicate task ids\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(RECORD_FIELD_ERRORS))
    @pytest.mark.parametrize("command", ["aggregate", "delta"])
    def test_mistyped_record_field_is_one_error_line(self, command, case, tmp_path, capsys):
        mutation, message = RECORD_FIELD_ERRORS[case]
        path = tmp_path / "records.jsonl"
        rows = [_record_row("t1"), _record_row("t2") | mutation]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = {
            "aggregate": ["aggregate", "--records", str(path)],
            "delta": ["delta", "--left", str(path), "--right", str(path), "--resamples", "10"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot load {path}: ValueError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(RECORD_RULE_ERRORS))
    @pytest.mark.parametrize("command", ["aggregate", "delta"])
    def test_record_breaking_a_run_rule_is_one_error_line(self, command, case, tmp_path, capsys):
        mutation, message = RECORD_RULE_ERRORS[case]
        path = tmp_path / "records.jsonl"
        rows = [_record_row("t1"), _record_row("t2") | mutation]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = {
            "aggregate": ["aggregate", "--records", str(path)],
            "delta": ["delta", "--left", str(path), "--right", str(path), "--resamples", "10"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot load {path}: ValueError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "run-config", "smoke", "aggregate", "delta"])
    def test_json_nested_too_deep_is_one_error_line(self, command, tmp_path, capsys):
        # Well-formed JSON nested deeper than the decoder recurses, read as a
        # manifest, a saved config or a records file.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        out = tmp_path / "out"
        if command == "delta":
            argv = ["delta", "--left", str(path), "--right", str(path), "--out", str(out)]
        else:
            argv = COMMANDS[command](str(path), str(out))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load ") and err.count("\n") == 1
        assert f"{path.name}: RecursionError: maximum recursion depth exceeded" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", RECORD_FIELDS)
    def test_record_without_a_field_is_refused(self, field, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        rows = [_record_row("t1"), _record_row("t2")]
        del rows[1][field]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert main(["aggregate", "--records", str(path), "--out", str(tmp_path / "a.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}: ValueError: ")
        assert f" on line 2: {field} must be " in err and err.count("\n") == 1

    def test_well_typed_records_file_is_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        rows = [_record_row("t1"), _record_row("t2") | {"reported_count": 7}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert read_record_dicts(path) == rows
        assert main(["aggregate", "--records", str(path), "--out", str(tmp_path / "a.csv")]) == 0

    @pytest.mark.parametrize("content", sorted(MALFORMED_INPUTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_error_exit_not_traceback(self, command, content, tmp_path, capsys):
        path = tmp_path / f"{content}.json"
        path.write_text(MALFORMED_INPUTS[content], encoding="utf-8")
        code = main(COMMANDS[command](str(path), str(tmp_path / "out")))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert path.name in err

    def test_unknown_group_by_key(self, record_files, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        argv = ["aggregate", "--records", str(record_files["standard"])]
        assert main(argv + ["--group-by", "controller,nosuch", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot group by 'nosuch': not a run metric field; ")
        assert "task_id, family, controller, policy, target_count" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", sorted(TASK_ERRORS))
    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_task_field_error_names_the_task(self, command, content, tmp_path, capsys):
        path = tmp_path / f"{content}.json"
        path.write_text(MALFORMED_INPUTS[content], encoding="utf-8")
        assert main(COMMANDS[command](str(path), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert "task 't1'" in err and TASK_ERRORS[content] in err

    @pytest.mark.parametrize(
        "files, refused",
        [
            ({"../x": "x"}, "../x"),
            ({"a": "x", "a/b": "y"}, "a/b"),
            ({"a.txt": "lone \ud800 surrogate"}, "a.txt"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_hidden_file_a_workspace_refuses(self, command, files, refused, tmp_path, capsys):
        hidden = _ESCAPING_FILE["hidden"] | {"files": files}
        path = tmp_path / "manifest.json"
        path.write_text(
            _manifest_text("dataops", [_task("dataops", **_ESCAPING_FILE | {"hidden": hidden})]),
            encoding="utf-8",
        )
        assert main(COMMANDS[command](str(path), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}: ValueError: task 't1' file {refused!r}: ")

    # A unit's artifact path and checker file must be paths its seeded
    # workspace can write, or the policy's first well-formed edit would fail.
    @pytest.mark.parametrize(
        "artifact, checked, files, refusal",
        [
            ("a/b", "a/b", {"a": "x"}, "path conflicts with a file or directory: a/b"),
            ("a.txt", "d", {"d/e": "x"}, "path conflicts with a file or directory: d"),
            ("../a.txt", "a.txt", {}, "not a file path inside the workspace: '../a.txt'"),
        ],
        ids=["under-a-file", "checker-file-a-directory", "outside-the-workspace"],
    )
    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_unit_path_its_workspace_cannot_hold_is_refused(
        self, command, artifact, checked, files, refusal, tmp_path, capsys
    ):
        checker = {"type": "answer_equals", "file": checked, "expected_normalized": "x"}
        backlog = {
            "units": [_UNIT | {"artifact_path": artifact}],
            "hidden": {"checkers": {"u0": checker}, "files": files},
        }
        path = tmp_path / "manifest.json"
        text = _manifest_text("dataops", [_task("dataops", **backlog)])
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(COMMANDS[command](str(path), str(out))) == 2
        assert capsys.readouterr().err == (
            f"error: cannot load {path}: ValueError: task 't1' unit 'u0': {refusal}\n"
        )
        assert not out.exists()
