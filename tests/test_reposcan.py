"""Snapshot indexing, predicates, deterministic search, manifest generation."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from qgp.errors import GenerationError
from qgp.reposcan import (
    PREDICATE_TYPES,
    KeywordOrPattern,
    PathAndContent,
    TestOrDocumentation,
    build_token_table,
    generate_manifest,
    index_snapshot,
    load_manifest,
    read_snapshot,
    search,
    snapshot_digest,
    write_manifest,
)

from oracle import build_corpus, evaluate_predicate, record, records_of
from synth import tiny_corpus


class TestIndexing:
    def test_kind_mapping(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "docs" / "index.rst").write_text("docs body\n")
        (tmp_path / "src" / "app.py").write_text("print('hi')\n")
        corpus = index_snapshot(tmp_path)
        assert list(zip(corpus.relpaths, corpus.kinds)) == [
            ("docs/index.rst", "documentation"),
            ("src/app.py", "source"),
        ]
        assert corpus.ids[0] == "docs/index.rst#documentation"

    @pytest.mark.parametrize(
        "relpath,kind",
        [
            ("tests/test_x.py", "test"),
            ("test/helper.py", "test"),
            ("README.md", "documentation"),
            ("docs/conf.py", "documentation"),
            ("settings.toml", "configuration"),
            ("pkg/deep/module.py", "source"),
            ("tests/data.md", "test"),  # test directory wins over extension
        ],
    )
    def test_classify_kind(self, relpath, kind, tmp_path):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("body\n")
        assert read_snapshot(tmp_path).corpus.kinds == (kind,)

    def test_empty_directory(self, tmp_path):
        assert records_of(index_snapshot(tmp_path)) == []

    def test_reindex_is_identical(self, tmp_path):
        (tmp_path / "a.py").write_text("alpha\n")
        (tmp_path / "b.md").write_text("beta\n")
        first = index_snapshot(tmp_path)
        second = index_snapshot(tmp_path)
        assert records_of(first) == records_of(second)

    def test_binary_skipped_and_git_ignored(self, tmp_path):
        (tmp_path / "bin.dat").write_bytes(b"abc\0def")
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "config").write_text("[core]\n")
        (tmp_path / "ok.py").write_text("fine\n")
        assert index_snapshot(tmp_path).relpaths == ("ok.py",)

    def test_snapshot_digest_tracks_content(self, tmp_path):
        (tmp_path / "a.py").write_text("one\n")
        d1 = snapshot_digest(tmp_path)
        assert d1 == snapshot_digest(tmp_path)
        (tmp_path / "a.py").write_text("two\n")
        assert snapshot_digest(tmp_path) != d1


class TestPredicates:
    """Each predicate type on one artifact: the corpus and the per-record
    oracle must give the same verdict."""

    def _selects(self, artifact, predicate) -> bool:
        verdict = evaluate_predicate(artifact, predicate)
        expected = (artifact.artifact_id,) if verdict else ()
        assert build_corpus([artifact]).matching(predicate) == expected
        return verdict

    def test_keyword_match(self):
        artifact = record("src/a.py", "opens a session here")
        assert self._selects(artifact, KeywordOrPattern(keywords=("session",)))

    def test_path_mismatch_short_circuits(self):
        artifact = record("src/a.py", "assert something")
        predicate = PathAndContent(path_substring="tests/", content_substring="assert")
        assert not self._selects(artifact, predicate)

    def test_test_or_documentation_excludes_configuration(self):
        artifact = record("opts.toml", "x = 1")
        assert artifact.kind == "configuration"
        assert not self._selects(artifact, TestOrDocumentation())

    def test_pattern_route(self):
        artifact = record("src/a.py", "def make_widget():")
        predicate = KeywordOrPattern(keywords=("nothere",), patterns=(r"make_\w+",))
        assert self._selects(artifact, predicate)

    def test_invalid_pattern_is_generation_error(self):
        predicate = KeywordOrPattern(keywords=(), patterns=("[",))
        with pytest.raises(GenerationError):
            evaluate_predicate(record("src/a.py", "plain"), predicate)
        with pytest.raises(GenerationError):
            build_corpus([record("src/a.py", "plain")]).matching(predicate)


class TestSearch:
    def test_deterministic_repeat(self):
        corpus = tiny_corpus(valid=7, total=20)
        first = search(corpus, "zeta", 0, 5)
        second = search(corpus, "zeta", 0, 5)
        assert first == second

    def test_pagination_arithmetic(self):
        corpus = tiny_corpus(valid=7, total=20)
        page0 = search(corpus, "zeta", 0, 5)
        page1 = search(corpus, "zeta", 1, 5)
        page2 = search(corpus, "zeta", 2, 5)
        assert len(page0.candidates) == 5
        assert len(page1.candidates) == 2
        assert page2.candidates == ()

    def test_no_match_empty_page_zero(self):
        corpus = tiny_corpus()
        assert search(corpus, "nonexistenttoken", 0).candidates == ()

    def test_ranking_and_tiebreak(self):
        corpus = tiny_corpus(valid=4, total=8)
        results = search(corpus, "zeta module", 0)
        # Artifacts containing both tokens outrank token-one-only matches;
        # ties resolve on ascending artifact id.
        ids = [c.artifact_id for c in results.candidates]
        assert ids[:4] == sorted(corpus.ids[:4])
        assert ids[4:] == sorted(corpus.ids[4:])

    def test_results_carry_only_id_and_preview(self):
        corpus = tiny_corpus(valid=2)
        results = search(corpus, "zeta", 0)
        candidate = results.candidates[0]
        assert set(vars(candidate)) == {"artifact_id", "preview"}


class TestManifest:
    def test_reference_shape(self, reposcan_loaded):
        manifest, _ = reposcan_loaded
        assert len(manifest.tasks) == 36
        budgets = {10: 30, 25: 60, 50: 100, 100: 180}
        per_target: dict[int, int] = {}
        for task in manifest.tasks:
            per_target[task.spec.target_count] = per_target.get(task.spec.target_count, 0) + 1
            assert task.spec.budget == budgets[task.spec.target_count]
            assert len(task.valid_ids) >= task.spec.target_count
        assert per_target == {10: 9, 25: 9, 50: 9, 100: 9}

    def test_generation_deterministic(self, snapshot_roots, tmp_path):
        m1 = generate_manifest(snapshot_roots, targets=(10,), instances_per_target=3, seed=4)
        m2 = generate_manifest(snapshot_roots, targets=(10,), instances_per_target=3, seed=4)
        d1 = write_manifest(m1, tmp_path / "m1.json")
        d2 = write_manifest(m2, tmp_path / "m2.json")
        assert d1 == d2

    def test_hidden_set_consistency(self, reposcan_loaded):
        manifest, corpora = reposcan_loaded
        for task in manifest.tasks:
            corpus = corpora[task.snapshot]
            recomputed = sorted(
                a.artifact_id for a in records_of(corpus) if evaluate_predicate(a, task.predicate)
            )
            assert recomputed == sorted(task.valid_ids)

    def test_search_totality_desk_scale(self, reposcan_loaded):
        # Every hidden-valid artifact is reachable through some (query, page):
        # a keyword from the predicate, or the artifact's own relpath.
        manifest, corpora = reposcan_loaded
        small = [t for t in manifest.tasks if t.spec.target_count == 10][:3]
        for task in small:
            corpus = corpora[task.snapshot]
            for hidden_id in task.valid_ids:
                relpath = hidden_id.rsplit("#", 1)[0]
                queries = [relpath]
                if isinstance(task.predicate, KeywordOrPattern):
                    queries = list(task.predicate.keywords) + queries
                elif isinstance(task.predicate, PathAndContent):
                    queries = [task.predicate.content_substring] + queries
                found = False
                for query in queries:
                    page = 0
                    while not found:
                        results = search(corpus, query, page)
                        if not results.candidates:
                            break
                        if any(c.artifact_id == hidden_id for c in results.candidates):
                            found = True
                        page += 1
                    if found:
                        break
                assert found, f"{hidden_id} unreachable in {task.spec.task_id}"

    def test_roundtrip(self, reposcan_manifest_path, reposcan_loaded):
        manifest, _ = reposcan_loaded
        reloaded = load_manifest(reposcan_manifest_path)
        assert [t.spec for t in reloaded.tasks] == [t.spec for t in manifest.tasks]
        assert [t.valid_ids for t in reloaded.tasks] == [t.valid_ids for t in manifest.tasks]

    def test_public_views_hide_everything_hidden(self, reposcan_loaded):
        manifest, _ = reposcan_loaded
        environment, _ = manifest.open()
        views = [asdict(environment(task).public_view()) for task in manifest.tasks]
        assert len(views) == 36
        text = json.dumps(views)
        assert "hidden" not in text
        assert "valid_ids" not in text
        assert "predicate" not in text
        for task in manifest.tasks:
            for hidden_id in task.valid_ids:
                assert hidden_id not in text
        assert set(views[0]) == {
            "task_id",
            "family",
            "objective_text",
            "target_count",
            "budget",
            "units",
        }
        assert views[0]["units"] is None

    def test_unknown_target_budget_rejected(self, snapshot_roots):
        with pytest.raises(GenerationError):
            generate_manifest(snapshot_roots, targets=(17,), instances_per_target=1, seed=0)

    def test_infeasible_target_errors_with_context(self, tmp_path):
        root = tmp_path / "mini"
        (root / "src").mkdir(parents=True)
        for i in range(4):
            (root / "src" / f"m{i}.py").write_text(f"tiny {i}\n")
        with pytest.raises(GenerationError):
            generate_manifest([root], targets=(100,), instances_per_target=1, seed=0)


class TestTokenTable:
    def test_document_frequency(self):
        corpus = tiny_corpus(valid=3, total=10)
        table = build_token_table(corpus)
        assert table["zeta"] == 3
        assert table["module"] == 10


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    """The README's reposcan bullet says what the predicate classes declare."""

    def test_each_predicate_type_is_named_with_its_class_and_fields(self):
        text = " ".join(README.read_text(encoding="utf-8").split())
        bullet = text.split("- **reposcan**: a top-level", 1)[1].split("- **dataops**:", 1)[0]
        assert "Each predicate `type` is declared by one class in `qgp.reposcan`" in bullet
        # Each clause: `tag` is `Class`, then what it selects, naming its fields.
        clauses = re.findall(r"`(\w+)` is `(\w+)`, an artifact ([^;]*)", bullet)
        stated = [(tag, name, re.findall(r"`(\w+)`", rule)) for tag, name, rule in clauses]
        assert stated == [
            (cls.tag, cls.__name__, [f.name for f in fields(cls)]) for cls in PREDICATE_TYPES
        ]
