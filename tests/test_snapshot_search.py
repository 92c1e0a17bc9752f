"""One-pass snapshot reading and memoised search against their old forms.

The two-walk `index_snapshot`/`snapshot_digest` over `Path.rglob`, the split-path
`classify_kind` and the linear `search` that `read_snapshot` and the
per-corpus memo replaced are kept here verbatim as references: the new code
must give the same digest, the same records in the same order, and the same
result for every (query, page).
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import os
import random
import re
import shutil
import sys
import threading
from pathlib import Path

import pytest

from qgp import cli, reposcan
from qgp.actions import Candidate, SearchResults
from qgp.controllers import AblationFlag, ControllerConfig, ControllerKind
from qgp.errors import ConfigurationError, GenerationError
from qgp.reposcan import (
    PAGE_SIZE,
    TEXT_TRUNCATE_BYTES,
    ArtifactRecord,
    Corpus,
    KeywordOrPattern,
    PathAndContent,
    TestOrDocumentation,
    build_token_table,
    classify_kind,
    evaluate_predicate,
    index_snapshot,
    read_snapshot,
    search,
    snapshot_digest,
)

# ---------------------------------------------------------------------------
# References: the two-walk reader and the linear search
# ---------------------------------------------------------------------------


def _reference_walk_files(root: Path) -> list[Path]:
    files = []
    for path in sorted(root.rglob("*")):
        if path.is_file() and ".git" not in path.relative_to(root).parts:
            files.append(path)
    return files


def reference_classify_kind(relpath: str) -> str:
    parts = relpath.split("/")
    dirs = parts[:-1]
    name = parts[-1]
    suffix = ("." + name.rsplit(".", 1)[1]) if "." in name else ""
    if any(d in ("test", "tests") for d in dirs):
        return "test"
    if suffix in {".rst", ".md"} or "docs" in dirs:
        return "documentation"
    if suffix in {".cfg", ".toml", ".ini", ".yaml"}:
        return "configuration"
    return "source"


def reference_index_snapshot(root) -> list[ArtifactRecord]:
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"snapshot root not readable: {root}")
    records = []
    for path in _reference_walk_files(root):
        data = path.read_bytes()
        if b"\0" in data[:8192]:
            continue
        text = data[:TEXT_TRUNCATE_BYTES].decode("utf-8", errors="replace")
        relpath = path.relative_to(root).as_posix()
        kind = reference_classify_kind(relpath)
        records.append(
            ArtifactRecord(
                artifact_id=f"{relpath}#{kind}",
                relpath=relpath,
                kind=kind,
                text=text,
                preview=text[:200],
            )
        )
    records.sort(key=lambda r: (r.relpath, r.kind))
    return records


def reference_snapshot_digest(root) -> str:
    root = Path(root)
    h = hashlib.sha256()
    for path in _reference_walk_files(root):
        relpath = path.relative_to(root).as_posix()
        data = path.read_bytes()
        h.update(relpath.encode("utf-8"))
        h.update(b"\0")
        h.update(str(len(data)).encode("ascii"))
        h.update(b"\0")
        h.update(data)
    return h.hexdigest()


def reference_search(corpus, query: str, page: int, page_size: int = PAGE_SIZE) -> SearchResults:
    if page < 0 or page_size < 1:
        raise ConfigurationError("page must be >= 0 and page_size >= 1")
    tokens = [t for t in dict.fromkeys(query.lower().split()) if t]
    scored = []
    for artifact in corpus:
        score = sum(1 for t in tokens if t in artifact.blob)
        if score > 0:
            scored.append((-score, artifact.artifact_id, artifact))
    scored.sort(key=lambda item: (item[0], item[1]))
    window = scored[page * page_size : (page + 1) * page_size]
    candidates = tuple(
        Candidate(artifact_id=a.artifact_id, preview=a.preview) for _, _, a in window
    )
    return SearchResults(query=query, page=page, candidates=candidates)


def _fields(records) -> list[tuple]:
    return [(r.artifact_id, r.relpath, r.kind, r.text, r.preview, r.blob) for r in records]


def _assert_reads_as(corpus: Corpus, expected: list[ArtifactRecord]) -> None:
    """A corpus read by length, iteration, index and slice gives these records."""
    assert len(corpus) == len(expected)
    assert list(corpus) == expected
    assert _fields(corpus) == _fields(expected)
    # Every index from -len to len - 1, so corpus[-1] among them.
    assert _fields(corpus[i] for i in range(-len(corpus), len(corpus))) == _fields(expected * 2)
    assert _fields(corpus[1:4]) == _fields(expected[1:4])
    assert _fields(corpus[::-2]) == _fields(expected[::-2])


# ---------------------------------------------------------------------------
# One pass per snapshot
# ---------------------------------------------------------------------------

# Siblings whose string order differs from their path-component order.
SIBLINGS = ("a b", "a!x", "a#b", "a-b", "a.b", "A")


@pytest.fixture
def adversarial_tree(tmp_path) -> Path:
    root = tmp_path / "tree"
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "target.py").write_text("reached through a link\n")

    def write(relpath: str, data: bytes | str) -> None:
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            data = data.encode("utf-8")
        path.write_bytes(data)

    write("a/b", "inside directory a\n")
    for name in SIBLINGS:
        write(name, f"sibling {name}\n")
    write(".git/config", "[core]\n")
    write(".git/objects/ab/cdef", b"\0binary object")
    write("pkg/.git/HEAD", "ref: refs/heads/main\n")
    write("pkg/deep/.git/info/exclude", "*.tmp\n")
    write("vendor/lib/.git", "gitdir: ../../.git/modules/lib\n")  # a submodule's .git file
    write("vendor/lib/code.py", "def vendored():\n    pass\n")
    write(".env", "SECRET=1\n")
    write(".hidden/tool.py", "hidden tool\n")
    write("src/.dotfile", "dot\n")
    write("src/app.py", "def app():\n    return 'app'\n")
    write("tests/test_app.py", "def test_app():\n    assert True\n")
    write("docs/guide.md", "# Guide\n")
    write("setup.cfg", "[metadata]\n")
    write("bin/early_nul.dat", b"head\0tail")
    write("bin/late_nul.txt", b"x" * 9000 + b"\0after the first 8 KiB")
    # A two-byte character straddles the 64 KiB truncation point.
    write("big/large.txt", "a" + "é" * 40_000)
    write("ünïcode.py", "café = 1\n")
    write("日本/テスト.md", "テスト\n")
    (root / "empty").mkdir()
    (root / "nested" / "empty").mkdir(parents=True)
    os.symlink(outside / "target.py", root / "src" / "linked_file.py")
    os.symlink(outside, root / "linked_dir")
    os.symlink(root / "does-not-exist", root / "broken_link")
    os.symlink(root / "src" / "loop", root / "src" / "loop")
    return root


class TestReadSnapshot:
    def test_matches_two_walk_reference(self, adversarial_tree):
        snapshot = read_snapshot(adversarial_tree)
        assert snapshot.digest == reference_snapshot_digest(adversarial_tree)
        _assert_reads_as(snapshot.corpus, reference_index_snapshot(adversarial_tree))

    def test_adversarial_selection_and_order(self, adversarial_tree):
        relpaths = [r.relpath for r in read_snapshot(adversarial_tree).corpus]
        assert relpaths == sorted(relpaths)  # records stay in string order
        assert "src/linked_file.py" in relpaths
        assert "bin/late_nul.txt" in relpaths
        assert "bin/early_nul.dat" not in relpaths
        assert not any(p.startswith("linked_dir") or p == "broken_link" for p in relpaths)
        assert "src/loop" not in relpaths
        assert not any(".git" in p.split("/") for p in relpaths)
        assert {"a/b", *SIBLINGS} <= set(relpaths)

    def test_walk_order_is_path_component_order(self, adversarial_tree, opens):
        # The walk itself opens a/b before its sibling "a b".
        read_snapshot(adversarial_tree)
        walked = [Path(path).relative_to(adversarial_tree).as_posix() for path in opens.files]
        assert walked.index("a/b") < walked.index("a b")
        assert walked == [
            p.relative_to(adversarial_tree).as_posix()
            for p in _reference_walk_files(adversarial_tree)
        ]

    @pytest.mark.parametrize(
        "relpath",
        [
            "a.py", "tests", "tests/x.py", "a/test/b.py", "a/tests.py", "a/test_x/b.py",
            "testsuite/b.md", "docs", "docs/a.py", "a/docs/b/c.cfg", "docsx/a.py",
            "a.md", ".md", "x.", "a.b.toml", "a/b.rst/c", "a.tar.gz", "b/c.yaml.bak",
        ],
    )
    def test_kind_matches_reference(self, relpath):
        assert classify_kind(relpath) == reference_classify_kind(relpath)

    def test_truncation_and_binary_heuristic(self, adversarial_tree):
        by_path = {r.relpath: r for r in read_snapshot(adversarial_tree).corpus}
        assert len(by_path["big/large.txt"].text.encode("utf-8")) <= TEXT_TRUNCATE_BYTES + 3
        assert by_path["big/large.txt"].text.endswith("�")
        assert "\0" in by_path["bin/late_nul.txt"].text

    def test_wrappers_match_reference(self, adversarial_tree):
        assert snapshot_digest(adversarial_tree) == reference_snapshot_digest(adversarial_tree)
        assert _fields(index_snapshot(adversarial_tree)) == _fields(
            reference_index_snapshot(adversarial_tree)
        )

    def test_synth_snapshots_match_reference(self, snapshot_roots):
        for root in snapshot_roots:
            snapshot = read_snapshot(root)
            assert snapshot.digest == reference_snapshot_digest(root)
            _assert_reads_as(snapshot.corpus, reference_index_snapshot(root))

    def test_product_path_builds_no_records(
        self, snapshot_roots, reposcan_manifest_path, monkeypatch, capsys
    ):
        built = []
        real_post_init = ArtifactRecord.__post_init__

        def counting(record):
            built.append(record.artifact_id)
            real_post_init(record)

        monkeypatch.setattr(ArtifactRecord, "__post_init__", counting)
        read_snapshot(snapshot_roots[0])
        reposcan.load_manifest(reposcan_manifest_path).open()
        config = ControllerConfig(kind=ControllerKind("standard"))
        rows, aborts = cli.run_manifest(
            str(reposcan_manifest_path), config, "greedy_oracle", {}, seed=5
        )
        assert aborts == 0 and len(rows) == 36
        reposcan.generate_manifest(snapshot_roots, seed=11)
        assert cli.main(["smoke", "--manifest", str(reposcan_manifest_path)]) == 0
        assert built == []
        # Reading a record is what builds one.
        assert read_snapshot(snapshot_roots[0]).corpus[0].artifact_id == built[0]
        assert len(built) == 1

    def test_missing_or_file_root_is_configuration_error(self, tmp_path):
        (tmp_path / "file.txt").write_text("not a directory\n")
        for root in (tmp_path / "missing", tmp_path / "file.txt"):
            with pytest.raises(ConfigurationError, match="not found or not a directory"):
                read_snapshot(root)
            with pytest.raises(ConfigurationError):
                snapshot_digest(root)

    def test_empty_root_differs_from_missing(self, tmp_path):
        assert read_snapshot(tmp_path).digest == hashlib.sha256().hexdigest()
        corpus = read_snapshot(tmp_path).corpus
        _assert_reads_as(corpus, [])
        for index in (0, -1):
            with pytest.raises(IndexError):
                corpus[index]

    def test_root_that_is_a_symlink_reads(self, adversarial_tree, tmp_path):
        link = tmp_path / "link"
        os.symlink(adversarial_tree, link)
        through_link, direct = read_snapshot(link), read_snapshot(adversarial_tree)
        assert through_link.digest == direct.digest
        assert _fields(through_link.corpus) == _fields(direct.corpus)

    @pytest.mark.parametrize("replacement", ["symlink", "file"])
    def test_directory_replaced_when_opened_is_not_entered(
        self, replacement, adversarial_tree, tmp_path, opens
    ):
        # Listed as a directory, then swapped for a symlink to a tree outside
        # the snapshot, or for a file, just before the walk opens it.
        swapped = adversarial_tree / "src"
        outside = tmp_path / "outside"

        def swap(path, flags):
            if path == str(swapped) and flags & os.O_DIRECTORY:
                opens.before = None  # once, and not for the removal's own opens
                shutil.rmtree(swapped)
                if replacement == "symlink":
                    os.symlink(outside, swapped)
                else:
                    swapped.write_text("a file now\n")

        opens.before = swap
        snapshot = read_snapshot(adversarial_tree)
        assert opens.before is None
        assert not any(p.startswith(str(swapped) + "/") for p in opens.files + opens.directories)
        assert not any(r.relpath.startswith("src") for r in snapshot.corpus)
        # The snapshot is the tree without the swapped entry.
        swapped.unlink()
        assert snapshot.digest == reference_snapshot_digest(adversarial_tree)
        _assert_reads_as(snapshot.corpus, reference_index_snapshot(adversarial_tree))

    def test_unreadable_directory_is_skipped(self, adversarial_tree, opens):
        # Refused at os.open: permission bits do not stop root.
        refused = str(adversarial_tree / "vendor")

        def deny(path, flags):
            if path == refused:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        opens.before = deny
        snapshot = read_snapshot(adversarial_tree)
        opens.before = None
        shutil.rmtree(refused)
        assert snapshot.digest == reference_snapshot_digest(adversarial_tree)
        _assert_reads_as(snapshot.corpus, reference_index_snapshot(adversarial_tree))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("failing", ["open", "read"])
    def test_failed_read_in_a_nested_directory_closes_every_descriptor(
        self, failing, adversarial_tree, opens, monkeypatch
    ):
        target = str(adversarial_tree / "vendor" / "lib" / "code.py")
        failure = OSError(errno.EIO, os.strerror(errno.EIO))

        def fail_open(path, flags):
            if path == target:
                raise failure

        real_read = os.read

        def fail_read(fd, size):
            if opens.paths.get(fd) == target:
                raise failure
            return real_read(fd, size)

        if failing == "open":
            opens.before = fail_open
        else:
            monkeypatch.setattr(os, "read", fail_read)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(ConfigurationError) as raised:
            read_snapshot(adversarial_tree)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert str(raised.value) == f"cannot read snapshot file {target}: {os.strerror(errno.EIO)}"
        # The walk got as far as the file's directory, two below the root.
        assert opens.directories[-1] == str(adversarial_tree / "vendor" / "lib")


# ---------------------------------------------------------------------------
# Memoised search
# ---------------------------------------------------------------------------


def _random_queries(rng: random.Random, corpus, count: int) -> list[str]:
    vocabulary = sorted(build_token_table(corpus))
    vocabulary += ["src/", "mod_0", "def", "test_", ".md", "_"]
    absent = ["zzqqxx", "nonexistenttoken", "ééé"]
    queries = ["", "   ", "\t"]
    while len(queries) < count:
        tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            tokens.append(rng.choice(tokens))  # a repeated token
        if rng.random() < 0.3:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(absent))
        if rng.random() < 0.4:
            tokens = ["".join(c.upper() if rng.random() < 0.5 else c for c in t) for t in tokens]
        queries.append((" " if rng.random() < 0.8 else "  ").join(tokens))
    return queries


def _matching_or_error(corpus: Corpus, predicate):
    try:
        return corpus.matching(predicate)
    except GenerationError:
        return GenerationError


class TestMemoisedSearch:
    @pytest.mark.parametrize("name", ["alpha_repo", "beta_repo", "gamma_repo", "adversarial"])
    def test_random_queries_match_reference(self, name, reposcan_loaded, adversarial_tree):
        # The corpus as read, by column, and the same records passed to Corpus.
        manifest, _ = reposcan_loaded
        roots = {info.name: info.root for info in manifest.snapshots}
        read = read_snapshot(roots.get(name, adversarial_tree)).corpus
        records = list(read)
        rebuilt = Corpus(records)
        rng = random.Random(20260418)
        requests = []
        for query in _random_queries(rng, records, 520):
            last = len(reference_search(records, query, 0, 10**6).candidates) // PAGE_SIZE
            for page in {0, rng.randint(0, last + 1), last + 1, last + 3}:
                requests.append((query, page))
        requests *= 2  # every request twice, so each is seen both cold and memoised
        rng.shuffle(requests)
        for query, page in requests:
            expected = reference_search(records, query, page)
            assert search(read, query, page) == expected
            assert search(rebuilt, query, page) == expected
        assert len(requests) >= 2 * 520
        for needle in [*build_token_table(records), *UNICODE_NEEDLES, "", "\n", "/"]:
            assert rebuilt.containing(needle) == read.containing(needle)
        predicates = _random_predicates(rng, records, 150) + [t.predicate for t in manifest.tasks]
        for predicate in predicates:
            assert _matching_or_error(rebuilt, predicate) == _matching_or_error(read, predicate)

    def test_page_sizes_and_invalid_pages(self, reposcan_loaded):
        _, corpora = reposcan_loaded
        shared = Corpus(corpora["beta_repo"])
        for page_size in (1, 3, 10, 25):
            for page in range(6):
                assert search(shared, "treacle saffron", page, page_size) == reference_search(
                    list(shared), "treacle saffron", page, page_size
                )
        for page, page_size in ((-1, 10), (0, 0)):
            with pytest.raises(ConfigurationError):
                search(shared, "treacle", page, page_size)

    @pytest.mark.parametrize("policy", ["greedy_oracle", "duplicator", "redundant_searcher"])
    @pytest.mark.parametrize("controller", ["standard", "state_qgp"])
    def test_every_policy_request_matches_reference(
        self, policy, controller, reposcan_manifest_path, monkeypatch
    ):
        original = reposcan.search
        seen = []

        def checked(corpus, query, page, page_size=PAGE_SIZE):
            result = original(corpus, query, page, page_size)
            assert isinstance(corpus, Corpus)
            assert result == reference_search(list(corpus), query, page, page_size)
            seen.append((query, page))
            return result

        monkeypatch.setattr(reposcan, "search", checked)
        rows, aborts = cli.run_manifest(
            str(reposcan_manifest_path),
            ControllerConfig(kind=ControllerKind(controller)),
            policy,
            {},
            seed=5,
        )
        assert aborts == 0 and len(rows) == 36
        assert sum(row["steps_used"] for row in rows) >= len(seen) > 0

    def test_tie_break_by_id_not_corpus_order(self):
        # Corpus order: a, a b, a!x, a#b, a-b, a.b; id order puts "a#source"
        # after "a#b#source". Neither ids nor previews derive from the
        # relpath and text, and search returns them as given.
        records = [
            ArtifactRecord(
                artifact_id=f"{name}#source",
                relpath=f"src/m{i}.py",
                kind="source",
                text="same token",
                preview=f"preview {i}",
            )
            for i, name in enumerate(("a", "a b", "a!x", "a#b", "a-b", "a.b"))
        ]
        corpus = Corpus(records)
        candidates = search(corpus, "token", 0).candidates
        ids = [c.artifact_id for c in candidates]
        assert ids == sorted(r.artifact_id for r in records)
        assert ids != [r.artifact_id for r in records]
        assert candidates == reference_search(records, "token", 0).candidates
        assert {c.preview: c.artifact_id for c in candidates} == {
            r.preview: r.artifact_id for r in records
        }
        assert [c.artifact_id for c in search(corpus, "token", 1, 4).candidates] == ids[4:]
        assert list(corpus) == records

    def test_equal_score_and_id_keep_corpus_order(self):
        texts = ("beta gamma", "beta", "gamma beta", "beta", "alpha")
        records = [
            ArtifactRecord("dup#source", "dup", "source", text, f"#{i}")
            for i, text in enumerate(texts)
        ]
        corpus = Corpus(records)
        for query in ("beta", "gamma beta", "alpha beta gamma"):
            ranking = [c.preview for c in search(corpus, query, 0).candidates]
            assert ranking == [c.preview for c in reference_search(records, query, 0).candidates]

    def test_ranking_computed_once_per_token_set(self):
        corpus = Corpus(
            ArtifactRecord(f"f{i}#source", f"f{i}", "source", f"alpha {i}", "") for i in range(5)
        )
        first = corpus.ranked(("alpha",))
        assert corpus.ranked(("alpha",)) is first
        # Case and repeated tokens normalise to the same memo entry.
        assert search(corpus, "ALPHA alpha", 0).candidates == search(corpus, "alpha", 0).candidates
        assert corpus.ranked(("alpha",)) is first

    def test_corpus_cannot_change_after_search(self):
        records = [
            ArtifactRecord(f"f{i}#source", f"f{i}", "source", f"beta {i}", f"beta {i}")
            for i in range(3)
        ]
        corpus = Corpus(records)
        before = search(corpus, "beta", 0)
        records.append(ArtifactRecord("g#source", "g", "source", "beta", "beta"))
        assert len(corpus) == 3
        with pytest.raises(TypeError):
            corpus[0] = records[-1]
        with pytest.raises(TypeError):
            del corpus[0]
        assert not hasattr(corpus, "append")
        with pytest.raises(AttributeError):
            corpus.extra = 1
        with pytest.raises(AttributeError):
            corpus.texts = ("gamma",) * 3
        with pytest.raises(AttributeError):
            del corpus.ids
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus[0].text = "gamma"
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus[0].blob = "gamma"
        assert search(corpus, "beta", 0) == before

    def test_environment_shares_the_corpus(self, reposcan_loaded):
        manifest, corpora = reposcan_loaded
        task = manifest.tasks[0]
        corpus = corpora[task.snapshot]
        first = reposcan.ReposcanEnvironment(task.spec, corpus, task.valid_ids)
        second = reposcan.ReposcanEnvironment(task.spec, corpus, task.valid_ids)
        assert first.corpus is corpus and second.corpus is corpus
        plain = reposcan.ReposcanEnvironment(task.spec, list(corpus), task.valid_ids)
        assert isinstance(plain.corpus, Corpus) and tuple(plain.corpus) == tuple(corpus)

    def test_threads_share_one_ranking_per_query(self, reposcan_loaded):
        _, corpora = reposcan_loaded
        records = list(corpora["gamma_repo"])
        queries = _random_queries(random.Random(7), records, 60)
        expected = {q: reference_search(records, q, 0) for q in queries}
        shared = Corpus(records)
        workers = (os.cpu_count() or 2) + 2  # more threads than cores
        results: list[dict] = [{} for _ in range(workers)]
        errors = []

        def work(index: int) -> None:
            try:
                order = list(queries)
                random.Random(index).shuffle(order)
                for query in order:
                    assert search(shared, query, 0) == expected[query]
                    tokens = tuple(dict.fromkeys(query.lower().split()))
                    results[index][tokens] = shared.ranked(tokens)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        for tokens, ranking in results[0].items():
            assert all(r[tokens] is ranking for r in results)


# ---------------------------------------------------------------------------
# One match memo per corpus: predicates and search against the scan
# ---------------------------------------------------------------------------


def reference_matches(records, predicate) -> tuple[str, ...]:
    """The record-by-record scan that defines a predicate's hidden set."""
    return tuple(a.artifact_id for a in records if evaluate_predicate(a, predicate))


def _record(relpath: str, text: str) -> ArtifactRecord:
    kind = classify_kind(relpath)
    return ArtifactRecord(f"{relpath}#{kind}", relpath, kind, text, text[:200])


# Characters whose case mapping is not one character to one character, or
# which a case-insensitive pattern matches across: the long s, the Kelvin
# sign, the dotted capital I (which lowers to two characters) and the final
# sigma (which lowers by context).
UNICODE_NEEDLES = (
    "ſ", "s", "S", "\u212a", "k", "K", "İ", "i̇", "i", "Σ", "σ", "ς", "ß", "ss",
)
UNICODE_RECORDS = sorted(
    (
        _record("src/long_s.py", "claſs Parſer:\n    ſelf.ſeſſion = 1\n"),
        _record("src/kelvin.py", "temperature = 300  # \u212a\nKELVIN = 'k'\n"),
        _record("docs/istanbul.md", "İstanbul İNDEX\n"),
        _record("tests/test_sigma.py", "ΟΔΟΣ"),
        _record("tests/test_sigma_quote.py", "ΟΔΟΣ'"),
        _record("ΣΟΦΟΣ/readme.md", "Σ"),
        _record("Σ.py", "ΑΣ ΣΑ σς Straße STRASSE"),
        _record("src/empty.py", ""),
        _record("setup.cfg", "[metadata]\nname = ſ\n"),
    ),
    key=lambda r: r.relpath,
)
# Valid patterns with regex metacharacters, and invalid ones.
PATTERNS = (
    r"def \w+_\d+", r"^\s*#", r"[ſs]e", "k", "s", "İ", "ς$", r"\bσ", "(x|y)z*", ".", "$",
    "[", "(", "a{2", "*x", "(?P<n>",
)


def _random_predicates(rng: random.Random, records, count: int) -> list:
    vocabulary = sorted(build_token_table(records)) or ["token"]
    blobs = [r.blob for r in records] or ["empty"]

    def short() -> str:  # a substring under 3 characters, possibly upper-cased
        blob = rng.choice(blobs)
        start = rng.randrange(len(blob))
        piece = blob[start : start + rng.randint(1, 2)]
        return piece.upper() if rng.random() < 0.3 else piece

    def needle() -> str:
        pick = rng.random()
        if pick < 0.4:
            return rng.choice(vocabulary)
        if pick < 0.7:
            return short()
        if pick < 0.9:
            return rng.choice(UNICODE_NEEDLES)
        return rng.choice(("", "\n", "zzqqxx", ".py", "/"))

    dirs = sorted({r.relpath.split("/", 1)[0] + "/" for r in records if "/" in r.relpath})
    kinds = ("source", "test", "documentation", "configuration")
    predicates = []
    while len(predicates) < count:
        family = rng.random()
        if family < 0.55:
            keywords = tuple(needle() for _ in range(rng.randint(0, 3)))
            patterns = tuple(
                re.escape(rng.choice(vocabulary)) if rng.random() < 0.4 else rng.choice(PATTERNS)
                for _ in range(rng.randint(0, 2))
            )
            predicates.append(KeywordOrPattern(keywords=keywords, patterns=patterns))
        elif family < 0.9:
            path = rng.choice(dirs + ["", "/", ".py", "tests/", "src/mod_0", "ſ", "Σ"])
            predicates.append(PathAndContent(path_substring=path, content_substring=needle()))
        else:
            chosen = tuple(k for k in kinds if rng.random() < 0.5)
            default = rng.random() < 0.3
            predicates.append(TestOrDocumentation() if default else TestOrDocumentation(chosen))
    return predicates


def _assert_memo_equals_scan(corpus: Corpus, predicates) -> None:
    records = list(corpus)
    for predicate in predicates:
        try:
            expected = reference_matches(records, predicate)
        except GenerationError:
            with pytest.raises(GenerationError):
                corpus.matching(predicate)
        else:
            assert corpus.matching(predicate) == expected, predicate


def _raises(records, predicate) -> bool:
    try:
        reference_matches(records, predicate)
    except GenerationError:
        return True
    return False


def _memo_corpora(reposcan_loaded, adversarial_tree) -> dict[str, Corpus]:
    _, corpora = reposcan_loaded
    return {
        **{name: Corpus(corpus) for name, corpus in corpora.items()},
        "adversarial": read_snapshot(adversarial_tree).corpus,
        "unicode": Corpus(UNICODE_RECORDS),
        "empty": Corpus(()),
    }


def reference_found_by(texts, pattern: str) -> tuple[int, ...]:
    """Every text tried: the positions a case-insensitive pattern finds."""
    return tuple(i for i, text in enumerate(texts) if re.search(pattern, text, re.IGNORECASE))


# (pattern, texts) rows for `Corpus.found_by`. The first three are escaped
# ASCII literals that some text matches only through a Unicode case fold
# that `lower()` does not make.
FOUND_BY_ROWS = (
    (re.escape("class"), ("claſs Parſer:", "class x", "CLASS", "klass", "cla-ss")),
    (re.escape("index"), ("İNDEX", "index.md", "INDEKS", "i̇ndex")),
    (re.escape("sigma"), ("ſigma", "SIGMA", "Sigma\n", "sig ma", "ſ")),
    # A pattern that looks literal but is not: `.` matches any character, and
    # the escaped form matches only the dot.
    ("a.b", ("a.b", "aXb", "a\\.b", "ab", "AſB")),
    (re.escape("a.b"), ("a.b", "aXb", "a\\.b", "A.B", "a.b.ſ")),
    # Escaped literals with a character outside ASCII.
    (re.escape("straße"), ("STRASSE", "Straße", "STRAẞE", "strasse", "ſtraße")),
    (re.escape("ſ"), ("s", "S", "ſ", "x")),
    (re.escape("\u212a"), ("k", "K", "\u212a", "x")),
    # Escaped ASCII with capitals, metacharacters, whitespace and a backslash.
    (re.escape("CamelCase"), ("camelcase", "CAMELCASE x", "Camel Case", "ſ")),
    (re.escape("a+b (c)\t\\d"), ("A+B (C)\t\\D", "a+b (c) \\d", "aab c\t\\d", "ſ")),
    ("", ("", "x", "ſ")),
)


class TestMatchMemo:
    @pytest.mark.parametrize("row", range(len(FOUND_BY_ROWS)))
    def test_found_by_equals_the_full_scan(self, row):
        pattern, texts = FOUND_BY_ROWS[row]
        records = [_record(f"src/m{i}.py", text) for i, text in enumerate(texts)]
        corpus = Corpus(records + list(UNICODE_RECORDS))
        assert corpus.found_by(pattern) == reference_found_by(corpus.texts, pattern)
        predicate = KeywordOrPattern(keywords=(), patterns=(pattern,))
        assert corpus.matching(predicate) == reference_matches(list(corpus), predicate)

    def test_fold_rows_need_the_non_ascii_texts(self):
        # Each fold row has a match that the lowered-literal memo cannot see.
        for pattern, texts in FOUND_BY_ROWS[:3]:
            corpus = Corpus([_record(f"src/m{i}.py", text) for i, text in enumerate(texts)])
            literal = re.sub(r"\\(.)", r"\1", pattern).lower()
            assert set(corpus.found_by(pattern)) - set(corpus.containing(literal))

    def test_escaped_literal_searches_only_its_candidates(self, reposcan_loaded, monkeypatch):
        searched = []

        class CountingPattern:
            def __init__(self, compiled: re.Pattern) -> None:
                self.compiled = compiled

            def search(self, text: str):
                searched.append(text)
                return self.compiled.search(text)

        real_compiled = reposcan._compiled
        monkeypatch.setattr(reposcan, "_compiled", lambda p: CountingPattern(real_compiled(p)))
        _, corpora = reposcan_loaded
        for read in corpora.values():
            corpus = Corpus(read)  # fresh memos
            non_ascii = sum(not text.isascii() for text in corpus.texts)
            tokens = sorted(build_token_table(corpus))
            assert tokens
            for token in tokens:
                searched.clear()
                found = corpus.found_by(re.escape(token))
                assert len(searched) <= len(corpus.containing(token)) + non_ascii
                assert found == reference_found_by(corpus.texts, re.escape(token))

    def test_random_predicates_match_the_scan(self, reposcan_loaded, adversarial_tree):
        manifest, _ = reposcan_loaded
        generated = [task.predicate for task in manifest.tasks]
        for name, corpus in _memo_corpora(reposcan_loaded, adversarial_tree).items():
            rng = random.Random(f"match-memo-{name}")
            predicates = _random_predicates(rng, list(corpus), 150) + generated
            predicates *= 2  # every predicate twice, so each is seen both cold and memoised
            rng.shuffle(predicates)
            _assert_memo_equals_scan(corpus, predicates)

    def test_search_matches_the_scan_on_every_corpus(self, reposcan_loaded, adversarial_tree):
        for name, corpus in _memo_corpora(reposcan_loaded, adversarial_tree).items():
            records = list(corpus)
            rng = random.Random(f"search-memo-{name}")
            queries = _random_queries(rng, records, 80)
            queries += [" ".join(rng.sample(UNICODE_NEEDLES, 3)) for _ in range(20)]
            queries += [" ".join(r.blob[:2] for r in rng.sample(records, min(3, len(records))))]
            for query in queries * 2:
                for page in (0, 1):
                    assert search(corpus, query, page) == reference_search(records, query, page)

    def test_text_lower_is_a_prefix_of_the_blob(self, reposcan_loaded, adversarial_tree):
        # PathAndContent reads the blob positions of its content substring
        # before it checks `text.lower()`, which is sound only because of this.
        for corpus in _memo_corpora(reposcan_loaded, adversarial_tree).values():
            for record in corpus:
                assert record.blob == (record.text + "\n" + record.relpath).lower()
                assert record.blob.startswith(record.text.lower())
        # A text ending in a capital sigma lowers to a final sigma on its own
        # and inside the blob alike: the newline after it is no cased letter.
        sigma = _record("Βeta/x.py", "ΟΔΟΣ")
        assert sigma.text.lower() == "οδος" and sigma.blob.startswith("οδος\n")
        with pytest.raises(TypeError):
            ArtifactRecord("a#source", "a", "source", "Text", "Text", blob="other")

    def test_invalid_pattern_raises_exactly_when_the_scan_does(self):
        corpus = Corpus(UNICODE_RECORDS)
        cases = {
            # Every blob holds the newline between text and path, so no record is left.
            KeywordOrPattern(keywords=("\n",), patterns=("[",)): False,
            KeywordOrPattern(keywords=("",), patterns=("(",)): False,
            # A later pattern is tried only on records that the earlier ones left.
            KeywordOrPattern(keywords=("zzqq",), patterns=("|", "[")): False,
            KeywordOrPattern(keywords=("zzqq",), patterns=(".", "[")): True,  # the empty text
            KeywordOrPattern(keywords=("zzqq",), patterns=("[",)): True,
            KeywordOrPattern(keywords=("straße",), patterns=("zzqq", "a{2")): False,
            KeywordOrPattern(keywords=(), patterns=("ſ", "(?P<n>")): True,
        }
        for predicate, raises in cases.items():
            with pytest.raises(GenerationError) if raises else contextlib.nullcontext():
                reference_matches(list(corpus), predicate)
            with pytest.raises(GenerationError) if raises else contextlib.nullcontext():
                corpus.matching(predicate)
        empty = Corpus(())
        assert empty.matching(KeywordOrPattern(keywords=(), patterns=("[",))) == ()

    def test_threads_share_one_match_list_per_predicate(self, reposcan_loaded):
        manifest, corpora = reposcan_loaded
        records = list(corpora["gamma_repo"])
        predicates = _random_predicates(random.Random(11), records, 60)
        predicates = [p for p in predicates if not _raises(records, p)]
        predicates += [t.predicate for t in manifest.tasks if t.snapshot == "gamma_repo"]
        expected = {p: reference_matches(records, p) for p in predicates}
        shared = Corpus(records)
        workers = (os.cpu_count() or 2) + 2  # more threads than cores
        results: list[dict] = [{} for _ in range(workers)]
        errors = []

        def work(index: int) -> None:
            try:
                order = list(expected)
                random.Random(index).shuffle(order)
                for predicate in order:
                    found = shared.matching(predicate)
                    assert found == expected[predicate]
                    results[index][predicate] = found
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        for predicate, ids in results[0].items():
            assert all(r[predicate] is ids for r in results)


# ---------------------------------------------------------------------------
# No stat data is trusted: every read opens every file and sees every byte
# ---------------------------------------------------------------------------


def _same_size_rewrite(path: Path, token: bytes) -> None:
    """Put `token` at the start of the file, keeping its size and its times."""
    before = os.stat(path)
    data = path.read_bytes()
    assert len(data) > len(token) + 1
    path.write_bytes(token + b" " + data[len(token) + 1 :])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


class TestEveryReadSeesTheBytes:
    def test_every_read_opens_every_file_once(self, adversarial_tree, opens):
        # Each directory once too, the root by its path and the rest relative
        # to their parent's descriptor.
        files = sorted(str(p) for p in _reference_walk_files(adversarial_tree))
        directories = sorted(
            [str(adversarial_tree)]
            + [
                str(p)
                for p in adversarial_tree.rglob("*")
                if p.is_dir() and not p.is_symlink()
                and ".git" not in p.relative_to(adversarial_tree).parts
            ]
        )
        assert len(directories) > 10
        for _ in range(2):
            read_snapshot(adversarial_tree)
            assert sorted(opens.files) == files
            assert sorted(opens.directories) == directories
            opens.files.clear()
            opens.directories.clear()

    def test_same_size_same_mtime_edit_is_seen(self, snapshot_roots, tmp_path, capsys):
        root = tmp_path / "alpha_repo"
        shutil.copytree(snapshot_roots[0], root)
        manifest = tmp_path / "manifest.json"
        argv = ["gen-reposcan", "--snapshot", str(root), "--targets", "10", "--instances", "1"]
        assert cli.main(argv + ["--out", str(manifest)]) == 0
        before = read_snapshot(root)
        assert search(before.corpus, "qqzzedited", 0).candidates == ()
        edited = next(p for p in sorted(root.rglob("*.py")) if p.stat().st_size > 40)
        _same_size_rewrite(edited, b"qqzzedited")

        after = read_snapshot(root)
        assert after.digest != before.digest
        assert after.digest == reference_snapshot_digest(root)
        assert _fields(after.corpus) == _fields(reference_index_snapshot(root))
        relpath = edited.relative_to(root).as_posix()
        found = [c.artifact_id for c in search(after.corpus, "qqzzedited", 0).candidates]
        assert found == [f"{relpath}#{classify_kind(relpath)}"]

        capsys.readouterr()
        out = tmp_path / "records.jsonl"
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: snapshot alpha_repo changed since generation (digest "
        )
        assert not out.exists()

    # Pairs whose policies search and submit differently.
    PAIRS = (
        ("standard", None, "greedy_oracle"),
        ("state_qgp", None, "duplicator"),
        ("standard", None, "redundant_searcher"),
        ("verifier_gated", None, "early_stopper"),
        ("ablation", "dedupe_only", "redundant_searcher"),
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_do_not_depend_on_pair_order(self, jobs, reposcan_manifest_path):
        def run(pair) -> list[dict]:
            controller, flag, policy = pair
            config = ControllerConfig(
                kind=ControllerKind(controller),
                ablation_flags=AblationFlag(flag) if flag else None,
            )
            rows, aborts = cli.run_manifest(
                str(reposcan_manifest_path), config, policy, {}, seed=5, jobs=jobs
            )
            assert aborts == 0
            return rows

        in_order = {pair: run(pair) for pair in self.PAIRS}
        reversed_order = {pair: run(pair) for pair in reversed(self.PAIRS)}
        assert reversed_order == in_order
