"""The product holds only the product.

Every top-level function and class in `src/qgp`, and every name a
module-level assignment binds (dunders aside), must be referred to by name
from the package itself (outside its own definition) or from `bench/`. A name
that only tests keep alive belongs in `tests/`, as the per-record corpus
oracles in `tests/oracle.py` do.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest

from qgp import core, dataops, policies, reposcan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgp"
BENCH = ROOT / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    """Every name `node` refers to: a bare name, an attribute, or a string
    that equals one, as `bench/tracing.py` patches by name."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.add(child.value)
    return found


def _bound(target: ast.expr) -> list[str]:
    """The names an assignment target binds: a name, or those of a tuple or list."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _bound(element)]
    return []


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines, dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        names = [name for target in node.targets for name in _bound(target)]
    elif isinstance(node, ast.AnnAssign):
        names = _bound(node.target)
    else:
        return []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_definition_is_used():
    # The names each top-level statement of each module refers to.
    statements = {
        path: [(node, _names(node)) for node in _parse(path).body] for path in SRC.glob("*.py")
    }
    outside = set().union(*(_names(_parse(path)) for path in BENCH.glob("*.py")))
    unused = []
    for path, body in sorted(statements.items()):
        elsewhere = outside.union(
            *(names for other, rest in statements.items() if other != path for _, names in rest)
        )
        for node, _ in body:
            here = set().union(*(names for other, names in body if other is not node))
            for name in _defined(node):
                if name not in elsewhere and name not in here:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "referred to by nothing outside tests: " + ", ".join(unused)


def test_product_imports_only_itself_and_the_standard_library():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {top}" for top in tops if top not in sys.stdlib_module_names]
    assert not foreign


def test_corpus_has_no_record_form():
    for name in ("ArtifactRecord", "evaluate_predicate", "classify_kind", "_as_corpus"):
        assert not hasattr(reposcan, name), name
    assert not issubclass(reposcan.Corpus, Sequence)
    for name in ("__getitem__", "__iter__"):
        assert not hasattr(reposcan.Corpus, name), name


# Names that read a class's annotations. Only the field codec in `actions.py`
# may use them, so that one checker decides what a loaded field may hold.
ANNOTATION_WALKS = {
    "get_type_hints", "get_annotations", "__annotations__", "get_args", "get_origin"
}


def test_only_the_field_codec_reads_annotations():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "actions.py":
            continue
        tree = _parse(path)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        names = _names(tree).union(alias.name for node in imports for alias in node.names)
        found += [f"{path.name}: {name}" for name in sorted(names & ANNOTATION_WALKS)]
    assert not found, "annotations read outside the field codec: " + ", ".join(found)


# Each kind's name and the class that declares it, per module: a dataops unit
# kind on its checker class, a reposcan predicate type on its predicate class,
# and a policy's label on its policy class.
KIND_DECLARATIONS = {
    "dataops.py": {
        "csv_field_check": "FieldEquals",
        "csv_count_check": "RowCount",
        "metadata_repair": "KeyPresent",
        "consistency_answer": "AnswerEquals",
        "artifact_validation": "FileDigest",
    },
    "reposcan.py": {
        "keyword_or_pattern": "KeywordOrPattern",
        "path_and_content": "PathAndContent",
        "test_or_documentation": "TestOrDocumentation",
    },
    "policies.py": {
        "duplicator": "DuplicatorPolicy",
        "early_stopper": "EarlyStopperPolicy",
        "false_completer": "FalseCompleterPolicy",
        "no_submit_looper": "NoSubmitLooperPolicy",
        "greedy_oracle": "GreedyOraclePolicy",
        "solver": "SolverPolicy",
        "redundant_searcher": "RedundantSearcherPolicy",
        "external": "ExternalAdapterPolicy",
    },
}


@pytest.mark.parametrize("module", sorted(KIND_DECLARATIONS))
def test_each_unit_kind_is_written_once_on_its_checker_class(module):
    declared = KIND_DECLARATIONS[module]
    # Every string literal equal to a kind name, with its module and the
    # innermost class it sits in.
    found: dict[str, list] = {kind: [] for kind in declared}
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in found:
                found[node.value].append((path.name, owner.get(id(node))))
    assert found == {kind: [(module, cls)] for kind, cls in declared.items()}


def test_only_dataops_knows_the_checker_classes():
    # A unit kind's rules all sit on its checker class: no other module
    # imports or names a checker class or an edit record, and policies read a
    # unit's `kind` only to look its class up in `UNIT_KINDS`.
    classes = set(KIND_DECLARATIONS["dataops.py"].values())
    edits = {getattr(dataops, name).edit for name in classes}
    classes |= {edit.__name__ for edit in edits if edit is not None}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "dataops.py":
            continue
        tree = _parse(path)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        names = _names(tree).union(alias.name for node in imports for alias in node.names)
        found += [f"{path.name}: {name}" for name in sorted(names & classes)]
    assert not found, "checker classes named outside dataops.py: " + ", ".join(found)
    tree = _parse(SRC / "policies.py")
    lookups = {
        id(node.slice)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and _names(node.value) == {"UNIT_KINDS"}
    }
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "kind" and id(node) not in lookups
    ]
    assert not reads, f"policies.py branches on a unit kind at lines {reads}"


def test_every_policy_decides_from_the_view_and_history_alone():
    # A parameter that no policy reads, as the run seed was, cannot come back
    # on one policy alone.
    def shape(method):
        return [(p.name, p.kind) for p in inspect.signature(method).parameters.values()]

    expected = shape(core.Policy.decide)
    assert [name for name, _ in expected] == ["self", "view", "history"]
    for cls in policies.POLICY_TYPES.values():
        assert shape(cls.decide) == expected, cls.__name__


# Run in a fresh interpreter, so that no earlier test has filled a table: the
# length of every module-level dict, list and set of each `qgp` module before
# and after whole commands run, written as JSON to the file named first.
MODULE_STATE_PROBE = """
import importlib, json, pkgutil, sys
import qgp
from qgp.cli import main

def lengths():
    names = [f"qgp.{m.name}" for m in pkgutil.iter_modules(qgp.__path__)]
    modules = [importlib.import_module(name) for name in names]
    return {
        f"{module.__name__}.{name}": len(value)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }

out, commands = sys.argv[1], json.loads(sys.argv[2])
before = lengths()
for argv in commands:
    assert main(argv) == 0, argv
with open(out, "w") as f:
    json.dump([before, lengths()], f)
"""


def test_no_module_level_table_grows_while_commands_run(snapshot_roots, csv_sources, tmp_path):
    # Whatever a run builds lives on the objects it builds, as a corpus owns
    # its memos: a module-level table would carry state from one run, or one
    # manifest, into the next.
    repo, backlog = tmp_path / "reposcan.json", tmp_path / "dataops.json"
    gen = ["gen-reposcan", "--targets", "10,25", "--instances", "3", "--seed", "7"]
    gen += [arg for root in snapshot_roots for arg in ("--snapshot", str(root))]
    gen_dataops = ["gen-dataops", "--targets", "3,5", "--instances", "2", "--seed", "7"]
    gen_dataops += [arg for path in csv_sources for arg in ("--csv", str(path))]
    commands = [
        gen + ["--out", str(repo)],
        ["smoke", "--manifest", str(repo)],
        ["run", "--manifest", str(repo), "--controller", "state_qgp", "--policy", "greedy_oracle"]
        + ["--out", str(tmp_path / "reposcan.jsonl")],
        gen_dataops + ["--out", str(backlog)],
        ["run", "--manifest", str(backlog), "--controller", "unit_qgp", "--policy", "solver"]
        + ["--out", str(tmp_path / "dataops.jsonl")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    lengths = tmp_path / "lengths.json"
    done = subprocess.run(
        [sys.executable, "-c", MODULE_STATE_PROBE, str(lengths), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after = json.loads(lengths.read_text())
    assert "qgp.reposcan.REPOSCAN_BUDGETS" in before and "qgp.policies.POLICY_TYPES" in before
    assert {name: n for name, n in after.items() if before.get(name) != n} == {}
    assert after.keys() == before.keys()
