"""The table-driven codec and the shared manifest envelope against their old forms.

The hand-written wire codecs of `actions.py`, the predicate and checker
codecs, and the two families' manifest readers and writers that the codec
and the envelope replaced are kept here verbatim as references (each family's
functions carry a `reference_<family>_` prefix, so the calls between them do
too). The new code must encode the same bytes, decode to the same records or
reject the same inputs, and read and write the same manifests.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from qgp import dataops, reposcan
from qgp.actions import (
    Action,
    AskUser,
    Candidate,
    ControllerNotice,
    Edit,
    Family,
    Final,
    Inspect,
    Observation,
    Outcome,
    RunCheck,
    Search,
    SearchResults,
    Submit,
    SubmitFeedback,
    SubmitUnit,
    Terminal,
    UnitFeedback,
    UnitStatus,
    Verdict,
    action_from_dict,
    action_to_dict,
    observation_to_dict,
)
from qgp.cli import main
from qgp.core import TaskSpec, read_manifest_file
from qgp.dataops import (
    AnswerEquals,
    BacklogUnit,
    CheckerSpec,
    DataopsManifest,
    DataopsTask,
    FieldEquals,
    FileDigest,
    KeyPresent,
    RowCount,
)
from qgp.errors import ActionParseError, ConfigurationError, loading
from qgp.reposcan import (
    KeywordOrPattern,
    PathAndContent,
    Predicate,
    ReposcanManifest,
    ReposcanTask,
    SnapshotInfo,
    TestOrDocumentation,
)

# ---------------------------------------------------------------------------
# References: the hand-written wire codec
# ---------------------------------------------------------------------------


def reference_action_to_dict(action: Action) -> dict:
    if isinstance(action, Search):
        return {"kind": "search", "query": action.query, "page": action.page}
    if isinstance(action, Submit):
        return {"kind": "submit", "ids": list(action.ids)}
    if isinstance(action, Inspect):
        return {"kind": "inspect", "unit_id": action.unit_id}
    if isinstance(action, Edit):
        return {"kind": "edit", "unit_id": action.unit_id, "payload": action.payload}
    if isinstance(action, RunCheck):
        return {"kind": "run_check", "unit_id": action.unit_id}
    if isinstance(action, SubmitUnit):
        return {"kind": "submit_unit", "unit_id": action.unit_id}
    if isinstance(action, Final):
        return {
            "kind": "final",
            "completion_claim": action.completion_claim,
            "reported_count": action.reported_count,
        }
    if isinstance(action, AskUser):
        return {"kind": "ask_user", "message": action.message}
    raise ActionParseError(f"not an action: {action!r}")


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ActionParseError(f"field {key!r} must be a string")
    return value


def reference_action_from_dict(obj: object) -> Action:
    """Decode one action record; raises ActionParseError on any shape violation."""
    if not isinstance(obj, dict):
        raise ActionParseError("action record must be an object")
    kind = obj.get("kind")
    if kind == "search":
        page = obj.get("page", 0)
        if not isinstance(page, int) or isinstance(page, bool) or page < 0:
            raise ActionParseError("search.page must be a non-negative integer")
        return Search(query=_require_str(obj, "query"), page=page)
    if kind == "submit":
        ids = obj.get("ids")
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise ActionParseError("submit.ids must be a list of strings")
        return Submit(ids=tuple(ids))
    if kind == "inspect":
        return Inspect(unit_id=_require_str(obj, "unit_id"))
    if kind == "edit":
        return Edit(unit_id=_require_str(obj, "unit_id"), payload=_require_str(obj, "payload"))
    if kind == "run_check":
        return RunCheck(unit_id=_require_str(obj, "unit_id"))
    if kind == "submit_unit":
        return SubmitUnit(unit_id=_require_str(obj, "unit_id"))
    if kind == "final":
        claim = obj.get("completion_claim")
        if not isinstance(claim, bool):
            raise ActionParseError("final.completion_claim must be a boolean")
        reported = obj.get("reported_count")
        if reported is not None and (
            not isinstance(reported, int) or isinstance(reported, bool) or reported < 0
        ):
            raise ActionParseError("final.reported_count must be a non-negative integer or null")
        return Final(completion_claim=claim, reported_count=reported)
    if kind == "ask_user":
        return AskUser(message=_require_str(obj, "message"))
    raise ActionParseError(f"unknown action kind: {kind!r}")


def reference_observation_to_dict(obs: Observation) -> dict:
    if isinstance(obs, SearchResults):
        return {
            "kind": "search_results",
            "query": obs.query,
            "page": obs.page,
            "candidates": [
                {"artifact_id": c.artifact_id, "preview": c.preview} for c in obs.candidates
            ],
        }
    if isinstance(obs, SubmitFeedback):
        return {
            "kind": "submit_feedback",
            "accepted": list(obs.accepted),
            "rejected": list(obs.rejected),
            "duplicates": list(obs.duplicates),
            "valid_count": obs.valid_count,
            "remaining": obs.remaining,
        }
    if isinstance(obs, UnitFeedback):
        return {
            "kind": "unit_feedback",
            "unit_id": obs.unit_id,
            "verdict": obs.verdict.value,
            "detail": obs.detail,
            "status_after": obs.status_after.value,
        }
    if isinstance(obs, ControllerNotice):
        return {
            "kind": "controller_notice",
            "reason": obs.reason,
            "valid_count": obs.valid_count,
            "remaining": obs.remaining,
        }
    if isinstance(obs, Terminal):
        return {"kind": "terminal", "outcome": obs.outcome.value}
    raise ActionParseError(f"not an observation: {obs!r}")


# ---------------------------------------------------------------------------
# References: the predicate and checker codecs
# ---------------------------------------------------------------------------


def predicate_to_dict(predicate: Predicate) -> dict:
    if isinstance(predicate, KeywordOrPattern):
        return {
            "type": "keyword_or_pattern",
            "keywords": list(predicate.keywords),
            "patterns": list(predicate.patterns),
        }
    if isinstance(predicate, PathAndContent):
        return {
            "type": "path_and_content",
            "path_substring": predicate.path_substring,
            "content_substring": predicate.content_substring,
        }
    if isinstance(predicate, TestOrDocumentation):
        return {"type": "test_or_documentation", "kinds": list(predicate.kinds)}
    raise ConfigurationError(f"unknown predicate: {predicate!r}")


def predicate_from_dict(obj: dict) -> Predicate:
    ptype = obj.get("type")
    if ptype == "keyword_or_pattern":
        return KeywordOrPattern(
            keywords=tuple(obj["keywords"]), patterns=tuple(obj.get("patterns", []))
        )
    if ptype == "path_and_content":
        return PathAndContent(
            path_substring=obj["path_substring"],
            content_substring=obj["content_substring"],
        )
    if ptype == "test_or_documentation":
        return TestOrDocumentation(kinds=tuple(obj["kinds"]))
    raise ConfigurationError(f"unknown predicate type: {ptype!r}")


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


# ---------------------------------------------------------------------------
# References: the reposcan manifest reader and writer
# ---------------------------------------------------------------------------

PUBLIC_TASK_FIELDS = ("task_id", "family", "objective_text", "target_count", "budget", "seed")


def reference_reposcan_manifest_to_dict(manifest: ReposcanManifest) -> dict:
    return {
        "format": "qgp-manifest",
        "family": Family.REPOSCAN.value,
        "version": 1,
        "metadata": manifest.metadata,
        "snapshots": [
            {
                "name": s.name,
                "root": s.root,
                "digest": s.digest,
                "artifact_count": s.artifact_count,
            }
            for s in manifest.snapshots
        ],
        "tasks": [
            {
                "task_id": t.spec.task_id,
                "family": Family.REPOSCAN.value,
                "objective_text": t.spec.objective_text,
                "target_count": t.spec.target_count,
                "budget": t.spec.budget,
                "seed": t.spec.seed,
                "snapshot": t.snapshot,
                "hidden": {
                    "predicate": predicate_to_dict(t.predicate),
                    "valid_ids": list(t.valid_ids),
                },
            }
            for t in manifest.tasks
        ],
    }


def reference_reposcan_write_manifest(manifest: ReposcanManifest, path: str | Path) -> str:
    payload = json.dumps(reference_reposcan_manifest_to_dict(manifest), sort_keys=True, indent=1)
    Path(path).write_text(payload + "\n", encoding="utf-8")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference_reposcan_task_from_dict(obj: dict) -> ReposcanTask:
    spec = TaskSpec(
        task_id=obj["task_id"],
        family=Family(obj["family"]),
        objective_text=obj["objective_text"],
        target_count=obj["target_count"],
        budget=obj["budget"],
        seed=obj["seed"],
    )
    hidden = obj["hidden"]
    return ReposcanTask(
        spec=spec,
        snapshot=obj["snapshot"],
        predicate=predicate_from_dict(hidden["predicate"]),
        valid_ids=tuple(hidden["valid_ids"]),
    )


def reference_reposcan_load_manifest(path: str | Path) -> ReposcanManifest:
    with loading(path):
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if obj.get("format") != "qgp-manifest" or obj.get("family") != Family.REPOSCAN.value:
            raise ConfigurationError(f"not a reposcan manifest: {path}")
        snapshots = [SnapshotInfo(**s) for s in obj["snapshots"]]
        tasks = [reference_reposcan_task_from_dict(t) for t in obj["tasks"]]
        metadata = obj["metadata"]
    ids = [t.spec.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate task ids in manifest: {path}")
    return ReposcanManifest(metadata=metadata, snapshots=snapshots, tasks=tasks)


def reference_reposcan_load_public_tasks(path: str | Path) -> list[dict]:
    """Policy-facing loader: hidden sections are never materialized."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = []
    for task in obj.get("tasks", []):
        rows.append({k: task[k] for k in PUBLIC_TASK_FIELDS if k in task})
    return rows


# ---------------------------------------------------------------------------
# References: the dataops manifest reader and writer
# ---------------------------------------------------------------------------

PUBLIC_UNIT_FIELDS = ("unit_id", "kind", "prompt", "artifact_path")


def reference_dataops_manifest_to_dict(manifest: DataopsManifest) -> dict:
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


def reference_dataops_write_manifest(manifest: DataopsManifest, path: str | Path) -> str:
    payload = json.dumps(reference_dataops_manifest_to_dict(manifest), sort_keys=True, indent=1)
    Path(path).write_text(payload + "\n", encoding="utf-8")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference_dataops_load_manifest(path: str | Path) -> DataopsManifest:
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
            )
            checkers = entry["hidden"]["checkers"]
            units = [
                BacklogUnit(
                    unit_id=u["unit_id"],
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


def reference_dataops_load_public_tasks(path: str | Path) -> list[dict]:
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
# Encoding
# ---------------------------------------------------------------------------

ACTIONS = [
    Search(query="session cookie", page=2),
    Search(query="", page=0),
    Submit(ids=("a#source", "a#source", " b#test")),
    Submit(ids=()),
    Inspect(unit_id="u001"),
    Edit(unit_id="u001", payload='{"key": "k", "value": "v"}'),
    RunCheck(unit_id="u001"),
    SubmitUnit(unit_id="u001"),
    Final(completion_claim=True, reported_count=12),
    Final(completion_claim=False),
    AskUser(message="still going? é\n"),
]
OBSERVATIONS = [
    SearchResults(
        query="q",
        page=3,
        candidates=tuple(Candidate(f"src/m{i}.py#source", f"text {i}\n") for i in range(10)),
    ),
    SearchResults(query="q", page=0, candidates=()),
    SubmitFeedback(("a",), ("b", "c"), ("a",), valid_count=1, remaining=9),
    SubmitFeedback((), (), (), valid_count=0, remaining=0),
    UnitFeedback("u1", Verdict.FAIL, "detail", UnitStatus.ATTEMPTED),
    UnitFeedback("u1", Verdict.PASS, "ok", UnitStatus.PASSED),
    UnitFeedback("u1", Verdict.PASS, "", UnitStatus.PENDING),
    ControllerNotice("parse_error", 0, 10),
] + [Terminal(outcome=outcome) for outcome in Outcome]


class TestEncoding:
    @pytest.mark.parametrize("action", ACTIONS, ids=repr)
    def test_action_bytes_equal_reference(self, action):
        assert json.dumps(action_to_dict(action)) == json.dumps(reference_action_to_dict(action))

    @pytest.mark.parametrize("obs", OBSERVATIONS, ids=repr)
    def test_observation_bytes_equal_reference(self, obs):
        expected = json.dumps(reference_observation_to_dict(obs))
        assert json.dumps(observation_to_dict(obs)) == expected

    def test_every_kind_covered(self):
        assert {type(a) for a in ACTIONS} == {
            Search, Submit, Inspect, Edit, RunCheck, SubmitUnit, Final, AskUser
        }
        assert {type(o) for o in OBSERVATIONS} == {
            SearchResults, SubmitFeedback, UnitFeedback, ControllerNotice, Terminal
        }

    @pytest.mark.parametrize("record", [object(), Candidate("a", "b"), None])
    def test_unknown_record_rejected(self, record):
        with pytest.raises(ActionParseError):
            action_to_dict(record)
        with pytest.raises(ActionParseError):
            observation_to_dict(record)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

# Each kind's fields with a well-formed value generator.
_GOOD = {
    "search": {
        "query": lambda r: r.choice(["q", "", "two words"]),
        "page": lambda r: r.randrange(5),
    },
    "submit": {"ids": lambda r: [r.choice("abc") for _ in range(r.randrange(4))]},
    "inspect": {"unit_id": lambda r: f"u{r.randrange(3)}"},
    "edit": {"unit_id": lambda r: "u1", "payload": lambda r: r.choice(["", "{}", "x"])},
    "run_check": {"unit_id": lambda r: "u2"},
    "submit_unit": {"unit_id": lambda r: "u3"},
    "final": {
        "completion_claim": lambda r: r.random() < 0.5,
        "reported_count": lambda r: r.choice([None, 0, r.randrange(50)]),
    },
    "ask_user": {"message": lambda r: "m"},
}
_ANY = ["x", "", 0, 3, -1, 2.5, True, False, None, [], ["a", "b"], ["a", 1], {"k": "v"}]
_ODD_TAGS = ["warp", "", None, 3, True, ["search"], {"kind": "search"}, "Search"]


def _random_record(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(["not a dict", 7, None, ["kind", "search"]])
    obj: dict = {}
    if roll < 0.12:
        obj["kind"] = rng.choice(_ODD_TAGS)
        kind_fields = _GOOD[rng.choice(sorted(_GOOD))]
    else:
        kind = rng.choice(sorted(_GOOD))
        obj["kind"] = kind
        kind_fields = _GOOD[kind]
    for name, good in kind_fields.items():
        choice = rng.random()
        if choice < 0.6:
            obj[name] = good(rng)
        elif choice < 0.9:
            obj[name] = rng.choice(_ANY)
        # else: the field is missing
    if rng.random() < 0.3:
        obj[rng.choice(["extra", "page", "ids", "note"])] = rng.choice(_ANY)
    return obj


def _decoded(decode, obj):
    try:
        return decode(obj)
    except ActionParseError as exc:
        return ("error", str(exc))


class TestDecoding:
    def test_random_records_decode_alike(self):
        rng = random.Random(20261018)
        decoded = errors = 0
        for _ in range(600):
            obj = _random_record(rng)
            new = _decoded(action_from_dict, obj)
            ref = _decoded(reference_action_from_dict, obj)
            if isinstance(ref, tuple):
                assert isinstance(new, tuple), (obj, new, ref)
                errors += 1
                kind = obj.get("kind") if isinstance(obj, dict) else None
                if isinstance(kind, str) and kind in _GOOD:
                    # Errors keep naming the kind and one of its fields.
                    named = new[1].split(" must be ")[0]
                    assert named.split(".")[0] == kind and named.split(".")[1] in _GOOD[kind]
            else:
                assert new == ref, obj
                decoded += 1
        assert decoded > 100 and errors > 100

    @pytest.mark.parametrize(
        "obj,message",
        [
            (
                {"kind": "search", "query": "x", "page": -1},
                "search.page must be a non-negative integer",
            ),
            ({"kind": "search", "query": 3}, "search.query must be a string"),
            ({"kind": "submit", "ids": [1]}, "submit.ids must be a list of strings"),
            (
                {"kind": "final", "completion_claim": "yes"},
                "final.completion_claim must be a boolean",
            ),
            (
                {"kind": "final", "completion_claim": True, "reported_count": True},
                "final.reported_count must be a non-negative integer or null",
            ),
            ({"kind": "edit", "unit_id": "u1"}, "edit.payload must be a string"),
            ({"kind": ["search"]}, "unknown action kind: ['search']"),
            ("text", "action record must be an object"),
        ],
    )
    def test_messages_name_kind_and_field(self, obj, message):
        with pytest.raises(ActionParseError) as excinfo:
            action_from_dict(obj)
        assert str(excinfo.value) == message

    def test_defaults_fill_missing_fields(self):
        assert action_from_dict({"kind": "search", "query": "q"}) == Search("q", 0)
        assert action_from_dict({"kind": "final", "completion_claim": False}) == Final(False, None)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

# sha256 of the canonical JSON of each conftest manifest's task list; task
# lists hold no absolute paths, so the value does not depend on the tmp dir.
PINNED_TASK_DIGESTS = {
    "reposcan": "89d314b14a40abaa7e17e5679ebe9084722281d5f9480562f1a99cf4dab8a02b",
    "dataops": "0c4bde8083e90521f0473406c5e080efb5f71eb9bf4c773b7aae738f9eab69b2",
}

# The same digest of the task list that reposcan generation gives over the
# conftest snapshots at other seeds and target lists. Every one of these
# manifests rejects some sampled predicates first, so the retries are pinned.
PINNED_GENERATION_DIGESTS = {
    (4, (10, 25, 50, 100)): "19a9fcec7fd5cbdb742bc96b1b3cd56885a4b232865c51ca0aed0d1375350be6",
    (12, (10, 25, 50, 100)): "5db62f39641bf071ef78de19fe88296fd1603ed1a5c49b22106f9bed411c966f",
    (5, (10, 25)): "d1a4baa24eba0dad29d133399afa881c5479b34e4ef3a2a7cdf809986ec95d2f",
}


@pytest.mark.parametrize("seed, targets", sorted(PINNED_GENERATION_DIGESTS))
def test_generated_task_digest_is_pinned(seed, targets, snapshot_roots, tmp_path):
    manifest = reposcan.generate_manifest(snapshot_roots, targets=targets, seed=seed)
    reposcan.write_manifest(manifest, tmp_path / "manifest.json")
    tasks = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["tasks"]
    digest = hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_GENERATION_DIGESTS[seed, targets]


FAMILIES = {
    "reposcan": (
        reposcan,
        reference_reposcan_load_manifest,
        reference_reposcan_write_manifest,
        reference_reposcan_load_public_tasks,
    ),
    "dataops": (
        dataops,
        reference_dataops_load_manifest,
        reference_dataops_write_manifest,
        reference_dataops_load_public_tasks,
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestManifests:
    def test_load_equals_reference(self, family, request):
        module, ref_load, _, _ = FAMILIES[family]
        path = request.getfixturevalue(f"{family}_manifest_path")
        assert module.load_manifest(path) == ref_load(path)

    def test_rewrite_gives_identical_bytes_and_digest(self, family, request, tmp_path):
        module, ref_load, ref_write, _ = FAMILIES[family]
        path = request.getfixturevalue(f"{family}_manifest_path")
        new_digest = module.write_manifest(module.load_manifest(path), tmp_path / "new.json")
        ref_digest = ref_write(ref_load(path), tmp_path / "ref.json")
        assert new_digest == ref_digest
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "new.json").read_bytes() == Path(path).read_bytes()
        assert new_digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_reference_task_digest_is_pinned(self, family, request):
        path = request.getfixturevalue(f"{family}_manifest_path")
        tasks = json.loads(Path(path).read_text(encoding="utf-8"))["tasks"]
        digest = hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_TASK_DIGESTS[family]

    def test_public_views_equal_reference(self, family, request):
        ref_public = FAMILIES[family][3]
        path = request.getfixturevalue(f"{family}_manifest_path")
        module = FAMILIES[family][0]
        manifest = read_manifest_file(path, {Family(family): module.manifest_payload})
        assert manifest == module.load_manifest(path)
        environment, _ = manifest.open()
        # As JSON, the form smoke scans; a reposcan view's units are None.
        views = json.loads(
            json.dumps([asdict(environment(task).public_view()) for task in manifest.tasks])
        )
        views = [{k: v for k, v in view.items() if v is not None} for view in views]
        # A view has no seed: the loop hands policies the run seed.
        reference = [{k: v for k, v in row.items() if k != "seed"} for row in ref_public(path)]
        assert views == reference

    @pytest.mark.parametrize("command", ["run", "smoke"])
    def test_one_read_per_command(self, family, command, request, tmp_path, monkeypatch):
        path = os.path.abspath(request.getfixturevalue(f"{family}_manifest_path"))
        reads = []
        real_open = io.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == path:
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy)
        monkeypatch.setattr(builtins, "open", spy)
        argv = {
            "run": ["run", "--manifest", path, "--out", str(tmp_path / "records.jsonl")],
            "smoke": ["smoke", "--manifest", path],
        }[command]
        if family == "dataops":
            argv += ["--policy", "solver"] if command == "run" else []
        assert main(argv) == 0
        assert len(reads) == 1
