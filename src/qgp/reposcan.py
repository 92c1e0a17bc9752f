"""Repository-scan task family: artifact indexing, predicates, search, manifests,
and opening and smoke-checking a manifest.

A snapshot is a local directory tree. Reading it once yields its content
digest and an immutable corpus; every read reads and hashes every byte. A
corpus is only its columns, the four read from disk (ids, relpaths, kinds and
texts) and the blobs derived from them, and every rule here reads them. A
predicate over the corpus defines a hidden valid set; search is deterministic
ranked pagination over the same corpus, and a result's preview is the first
200 characters of its text. One memo per corpus, from a lowercase
needle to the artifacts whose text and path contain it, serves search
rankings, predicate sampling, each task's valid ids and smoke's
recomputation of them.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import ClassVar, NamedTuple, Union

from .actions import (
    PAGE_SIZE,
    Action,
    Candidate,
    Family,
    Observation,
    Schema,
    Search,
    SearchResults,
    Submit,
    TaggedCodec,
)
from .core import (
    PublicTaskView,
    RunLedger,
    TaskSpec,
    check_generation_grid,
    read_manifest_file,
    record_submission,
    write_manifest_file,
)
from .errors import ConfigurationError, GenerationError
from .seeding import derive_seed, stream
from .verifier import judge_ids, normalize_id

TEXT_TRUNCATE_BYTES = 64 * 1024
_READ_CHUNK = 64 * 1024
REPOSCAN_BUDGETS = {10: 30, 25: 60, 50: 100, 100: 180}

KIND_SOURCE = "source"
KIND_TEST = "test"
KIND_DOCUMENTATION = "documentation"
KIND_CONFIGURATION = "configuration"

_SUFFIX_KINDS = {
    ".rst": KIND_DOCUMENTATION,
    ".md": KIND_DOCUMENTATION,
    ".cfg": KIND_CONFIGURATION,
    ".toml": KIND_CONFIGURATION,
    ".ini": KIND_CONFIGURATION,
    ".yaml": KIND_CONFIGURATION,
}
# The root may be a symlink to a directory; below it, `O_NOFOLLOW` refuses
# a symlink (ELOOP) and `O_DIRECTORY` a file (ENOTDIR) put in a listed
# directory's place, and the walk skips either, as it skips symlinks.
_ROOT_FLAGS = os.O_RDONLY | os.O_DIRECTORY
_SUBDIRECTORY_FLAGS = _ROOT_FLAGS | os.O_NOFOLLOW
_SKIPPED_DIRECTORY_ERRORS = frozenset({errno.ELOOP, errno.ENOTDIR})
_BY_NAME = attrgetter("name")
_BY_RELPATH = itemgetter(0)
_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]{3,}")


def _blob(text: str, relpath: str) -> str:
    # What search and keywords match: `text.lower()` is its prefix.
    return (text + "\n" + relpath).lower()


# Not slotted: on Python 3.11 a slotted frozen dataclass raises TypeError, not
# AttributeError, when a name that is no field is set or deleted.
@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """An immutable, ordered corpus of artifacts, stored by column.

    The i-th artifact has the i-th value of each tuple: the four columns read
    from disk, `ids`, `relpaths`, `kinds` and `texts`, and `blobs`, the
    lowercase text-plus-path that search and keywords match, derived from them.

    It owns the memos that search and predicates read, so they live exactly
    as long as the corpus and are shared by every task and worker thread
    that uses it: the positions of the artifacts whose blob contains a needle,
    the positions that a predicate pattern finds, the ranking of each token
    set and the ids that each predicate selects. Each value is computed once
    per key and published with `dict.setdefault`, which is atomic, so
    threads racing on one key share one value. The positions of the
    non-ASCII texts are built on first use; threads racing on them may each
    build them, and every build is equal.
    """

    ids: tuple[str, ...]
    relpaths: tuple[str, ...]
    kinds: tuple[str, ...]
    texts: tuple[str, ...]
    blobs: tuple[str, ...] = field(init=False)
    _containing: dict[str, tuple[int, ...]] = field(init=False, default_factory=dict)
    _found_by: dict[str, tuple[int, ...]] = field(init=False, default_factory=dict)
    _ranked: dict[tuple[str, ...], tuple[int, ...]] = field(init=False, default_factory=dict)
    _matching: dict[Predicate, tuple[str, ...]] = field(init=False, default_factory=dict)
    _non_ascii: tuple[int, ...] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blobs", tuple(map(_blob, self.texts, self.relpaths)))

    def __len__(self) -> int:
        return len(self.ids)

    def containing(self, needle: str) -> tuple[int, ...]:
        """Positions of the artifacts whose blob contains `needle`, ascending."""
        found = self._containing.get(needle)
        if found is None:
            hits = tuple([i for i, blob in enumerate(self.blobs) if needle in blob])
            found = self._containing.setdefault(needle, hits)
        return found

    def found_by(self, pattern: str) -> tuple[int, ...]:
        """Positions of the artifacts whose text a predicate pattern finds,
        ascending; raises GenerationError if the pattern does not compile.

        A pattern that is `re.escape` of an ASCII literal is tried only on
        the artifacts whose blob contains the lowered literal and on the
        non-ASCII texts; any other pattern is tried on every text.
        """
        found = self._found_by.get(pattern)
        if found is None:
            search_text = _compiled(pattern).search
            texts = self.texts
            literal = _escaped_ascii_literal(pattern)
            if literal is None:
                candidates = range(len(texts))
            else:
                # On ASCII text a case-insensitive ASCII literal matches exactly
                # where its lowered form is in `text.lower()`, the blob's
                # prefix. The folds that `lower()` misses (ſ to s, İ to i)
                # need a non-ASCII text, and those are always tried.
                candidates = self.containing(literal.lower())
                non_ascii = self._non_ascii_positions()
                if non_ascii:
                    candidates = sorted(set(candidates).union(non_ascii))
            hits = tuple([i for i in candidates if search_text(texts[i])])
            found = self._found_by.setdefault(pattern, hits)
        return found

    def _non_ascii_positions(self) -> tuple[int, ...]:
        found = self._non_ascii
        if found is None:
            found = tuple([i for i, text in enumerate(self.texts) if not text.isascii()])
            object.__setattr__(self, "_non_ascii", found)
        return found

    def ranked(self, tokens: tuple[str, ...]) -> tuple[int, ...]:
        """Positions of the artifacts matching any token, by descending match
        count, then id, then position."""
        found = self._ranked.get(tokens)
        if found is None:
            ids = self.ids
            scores: Counter[int] = Counter()
            for t in tokens:
                scores.update(self.containing(t))
            order = tuple(sorted(scores, key=lambda i: (-scores[i], ids[i], i)))
            found = self._ranked.setdefault(tokens, order)
        return found

    def matching(self, predicate: Predicate) -> tuple[str, ...]:
        """Ids of the artifacts that satisfy the predicate, in corpus order."""
        found = self._matching.get(predicate)
        if found is None:
            ids = self.ids
            found = self._matching.setdefault(
                predicate, tuple([ids[i] for i in predicate.select(self)])
            )
        return found


@dataclass(frozen=True)
class Snapshot:
    digest: str
    corpus: Corpus


def _directory_kind(outer: str | None, name: str) -> str | None:
    """The kind that directory `name`, inside a directory of kind `outer`,
    gives every file below it: test below a `test` or `tests` directory,
    else documentation below a `docs` directory, else None."""
    if outer == KIND_TEST or name == "test" or name == "tests":
        return KIND_TEST
    if outer is not None or name == "docs":
        return KIND_DOCUMENTATION
    return None


def _file_kind(directory: str | None, name: str) -> str:
    """The kind of file `name` in a directory of kind `directory`: the
    directory's kind if it has one, else its suffix's kind."""
    if directory is not None:
        return directory
    # Every suffix in the table starts with ".", so a name without one, whose
    # slice is then its last character, finds none.
    return _SUFFIX_KINDS.get(name[name.rfind(".") :], KIND_SOURCE)


def _directory_error(top: str, relpath: str, exc: OSError) -> ConfigurationError:
    path = os.path.join(top, relpath) if relpath else top
    return ConfigurationError(f"cannot read snapshot directory {path}: {exc.strerror or exc}")


def _open_directory(name: str, dir_fd: int, top: str, relpath: str) -> int | None:
    """A descriptor for subdirectory `name` of the open directory `dir_fd`, or
    None for one that the walk skips: one it may not read, or one that a
    symlink or a file has replaced since it was listed."""
    try:
        return os.open(name, _SUBDIRECTORY_FLAGS, dir_fd=dir_fd)
    except PermissionError:
        return None
    except OSError as exc:
        if exc.errno in _SKIPPED_DIRECTORY_ERRORS:
            return None
        raise _directory_error(top, relpath, exc) from exc


def _read_directory(
    fd: int,
    prefix: str,
    kind: str | None,
    top: str,
    update: Callable[[bytes], None],
    found: list[tuple[str, str, str]],
) -> None:
    """Hash every file below the open directory `fd`, whose relpath is
    `prefix` and whose kind is `kind`, in walk order, add (relpath, kind,
    text) for each text file to `found`, and close `fd`.

    The walk is pre-order with siblings sorted by name. Each file and each
    subdirectory is opened relative to `fd`, so no path string is built
    outside the error paths. `.git` entries are skipped, symlinked
    directories are not entered, symlinked files are followed and broken or
    looping symlinks skipped.
    """
    try:
        try:
            with os.scandir(fd) as it:
                entries = sorted(it, key=_BY_NAME)
        except OSError as exc:
            raise _directory_error(top, prefix[:-1], exc) from exc
        for entry in entries:
            name = entry.name
            if name == ".git":
                continue
            if entry.is_dir(follow_symlinks=False):
                relpath = prefix + name
                sub = _open_directory(name, fd, top, relpath)
                if sub is not None:
                    _read_directory(
                        sub, relpath + "/", _directory_kind(kind, name), top, update, found
                    )
                continue
            try:
                if not entry.is_file():
                    continue
            except OSError:  # a looping symlink is not a file
                continue
            relpath = prefix + name
            try:
                encoded = relpath.encode("utf-8")
            except UnicodeEncodeError:
                path = os.fsencode(os.path.join(top, relpath))
                raise ConfigurationError(f"snapshot file name is not UTF-8: {path!r}") from None
            # Read until a read returns no bytes: one may return fewer bytes
            # than asked before the end on some file systems. A file that
            # ends within its first read keeps no list of chunks.
            try:
                file_fd = os.open(name, os.O_RDONLY, dir_fd=fd)
                try:
                    head = os.read(file_fd, _READ_CHUNK)
                    rest = ()
                    if head and (chunk := os.read(file_fd, _READ_CHUNK)):
                        rest = [chunk]
                        while chunk := os.read(file_fd, _READ_CHUNK):
                            rest.append(chunk)
                finally:
                    os.close(file_fd)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read snapshot file {os.path.join(top, relpath)}: "
                    f"{exc.strerror or exc}"
                ) from exc
            if rest:
                # The size is hashed before the bytes, so the whole file is
                # held once, but never joined into a second copy.
                update(b"%s\0%d\0" % (encoded, len(head) + sum(map(len, rest))))
                update(head)
                for chunk in rest:
                    if len(head) < TEXT_TRUNCATE_BYTES:  # a short first read
                        head += chunk[: TEXT_TRUNCATE_BYTES - len(head)]
                    update(chunk)
            else:
                update(b"%s\0%d\0" % (encoded, len(head)))
                update(head)
            if head.find(b"\0", 0, 8192) < 0:
                text = head[:TEXT_TRUNCATE_BYTES].decode("utf-8", errors="replace")
                found.append((relpath, _file_kind(kind, name), text))
    finally:
        os.close(fd)


def read_snapshot(root: str | Path) -> Snapshot:
    """Read a snapshot once: its content digest and its indexed corpus.

    Every call walks the tree and reads and hashes every byte of every file,
    holding one file's bytes at a time; no stat data is trusted, since an
    edit can keep a file's size and mtime. Each directory is opened once,
    relative to its parent and without following a symlink, so a directory
    swapped for a symlink during the walk is not entered; each file is
    opened relative to its directory and costs one open, reads until one
    returns no bytes, and one close. An unreadable directory below the root
    is skipped. The digest is a sha256 over (relpath, size, bytes) of every
    file in walk order. Artifacts are ordered by relpath then kind; binary
    files are skipped via a null-byte heuristic and text is truncated to the
    first 64 KiB, so indexing stays bounded and deterministic. A file that
    cannot be read, or whose name is not UTF-8, raises ConfigurationError
    naming it, and so does a root that cannot be opened, or a directory
    below it that cannot be opened for another reason than its permissions,
    such as one removed during the walk.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"snapshot root not found or not a directory: {root}")
    top = str(root)
    h = hashlib.sha256()
    found: list[tuple[str, str, str]] = []
    try:
        fd = os.open(top, _ROOT_FLAGS)
    except OSError as exc:
        raise _directory_error(top, "", exc) from exc
    _read_directory(fd, "", None, top, h.update, found)
    # Relpaths are unique, so this is the order by relpath then kind.
    found.sort(key=_BY_RELPATH)
    relpaths, kinds, texts = zip(*found) if found else ((), (), ())
    ids = tuple([f"{relpath}#{kind}" for relpath, kind in zip(relpaths, kinds)])
    corpus = Corpus(ids, relpaths, kinds, texts)
    return Snapshot(digest=h.hexdigest(), corpus=corpus)


def index_snapshot(root: str | Path) -> Corpus:
    """The snapshot's corpus. Kept only because `bench/tracing.py` spans it by
    name, until ROADMAP item 3 moves the tracer to `read_snapshot`."""
    return read_snapshot(root).corpus


def snapshot_digest(root: str | Path) -> str:
    """The snapshot's digest, as `read_snapshot` computes it. Kept only because
    `bench/tracing.py` spans it by name, until ROADMAP item 3 moves the tracer."""
    return read_snapshot(root).digest


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


_MAX_SAMPLING_ATTEMPTS = 200


@dataclass(frozen=True)
class KeywordOrPattern:
    """Selects an artifact whose blob contains a lowered keyword or whose text a pattern finds."""

    keywords: tuple[str, ...]
    patterns: tuple[str, ...] = ()

    tag: ClassVar[str] = "keyword_or_pattern"

    def select(self, corpus: Corpus) -> list[int]:
        hits: set[int] = set()
        for k in self.keywords:
            hits.update(corpus.containing(k.lower()))
        # A pattern is compiled, and may fail, only when some artifact is left
        # outside every earlier match, as an artifact-by-artifact scan would.
        for p in self.patterns:
            if len(hits) == len(corpus):
                break
            hits.update(corpus.found_by(p))
        return sorted(hits)

    def objective(self, target: int) -> str:
        # Leading tokens are the searchable handles; scripted policies query them in order.
        head = " ".join(self.keywords)
        return f"{head} : find and submit {target} distinct repository artifacts matching these keywords"

    @classmethod
    def sample(cls, rng, corpus: Corpus, vocabulary: _Vocabulary, target: int):
        candidates = vocabulary.band
        if not candidates:
            return None
        for _ in range(_MAX_SAMPLING_ATTEMPTS):
            primary = rng.choice(candidates)
            extras = [t for t in candidates if t != primary]
            keywords = [primary]
            if extras and rng.random() < 0.5:
                keywords.append(rng.choice(extras))
            predicate = cls(keywords=tuple(keywords), patterns=(re.escape(primary),))
            if len(corpus.matching(predicate)) >= target:
                return predicate
        return None


@dataclass(frozen=True)
class PathAndContent:
    """Selects an artifact whose relpath contains the path substring and
    whose lowered text contains the lowered content substring."""

    path_substring: str
    content_substring: str

    tag: ClassVar[str] = "path_and_content"

    def select(self, corpus: Corpus) -> list[int]:
        # `text.lower()` is a prefix of `blob`, so the blob positions hold every match.
        path, content = self.path_substring, self.content_substring.lower()
        relpaths, texts = corpus.relpaths, corpus.texts
        return [
            i
            for i in corpus.containing(content)
            if path in relpaths[i] and content in texts[i].lower()
        ]

    def objective(self, target: int) -> str:
        return (
            f"{self.content_substring} {self.path_substring} : submit {target} distinct "
            f"artifacts under {self.path_substring} mentioning {self.content_substring}"
        )

    @classmethod
    def sample(cls, rng, corpus: Corpus, vocabulary: _Vocabulary, target: int):
        top_dirs, wide = vocabulary.top_dirs, vocabulary.wide
        if not top_dirs:
            return None
        pool = vocabulary.band or wide
        if not pool:
            return None
        for _ in range(_MAX_SAMPLING_ATTEMPTS):
            token = rng.choice(pool if rng.random() < 0.5 else wide or pool)
            dirs = list(top_dirs)
            rng.shuffle(dirs)
            for directory in dirs:
                predicate = cls(path_substring=directory, content_substring=token)
                if len(corpus.matching(predicate)) >= target:
                    return predicate
        return None


@dataclass(frozen=True)
class TestOrDocumentation:
    """Selects an artifact of one of its kinds."""

    __test__ = False  # keep pytest collection away from the Test- prefix

    kinds: tuple[str, ...] = (KIND_TEST, KIND_DOCUMENTATION)

    tag: ClassVar[str] = "test_or_documentation"

    def select(self, corpus: Corpus) -> list[int]:
        return [i for i, kind in enumerate(corpus.kinds) if kind in self.kinds]

    def objective(self, target: int) -> str:
        return (
            f"tests test docs .md .rst : submit {target} distinct test or documentation artifacts"
        )

    @classmethod
    def sample(cls, rng, corpus: Corpus, vocabulary: _Vocabulary, target: int):
        predicate = cls()
        return predicate if len(corpus.matching(predicate)) >= target else None


# Each type declares its manifest `tag`, the artifacts it `select`s, its task's
# `objective` and how generation `sample`s one; generation cycles in this order.
PREDICATE_TYPES = (KeywordOrPattern, PathAndContent, TestOrDocumentation)
Predicate = Union[KeywordOrPattern, PathAndContent, TestOrDocumentation]

_ESCAPED_CHARACTER = re.compile(r"\\(.)", re.DOTALL)


def _escaped_ascii_literal(pattern: str) -> str | None:
    """The ASCII string whose `re.escape` is exactly `pattern`, if any."""
    if not pattern.isascii():
        return None
    literal = _ESCAPED_CHARACTER.sub(r"\1", pattern)
    return literal if re.escape(literal) == pattern else None


def _compiled(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern, re.IGNORECASE)
    except re.error as exc:
        raise GenerationError(f"invalid predicate pattern {pattern!r}: {exc}") from exc


PREDICATES = TaggedCodec(
    "predicate", "type", {cls.tag: cls for cls in PREDICATE_TYPES}, ValueError
)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def search(corpus: Corpus, query: str, page: int, page_size: int = PAGE_SIZE) -> SearchResults:
    """Rank by how many query tokens appear in text-plus-path, then paginate.

    Zero-score artifacts are excluded; ties break on ascending artifact id, so
    identical (query, page) requests always return identical results. The
    ranking of each distinct token set is computed once per corpus.
    """
    if page < 0 or page_size < 1:
        raise ConfigurationError("page must be >= 0 and page_size >= 1")
    tokens = tuple(dict.fromkeys(query.lower().split()))
    window = corpus.ranked(tokens)[page * page_size : (page + 1) * page_size]
    ids, texts = corpus.ids, corpus.texts
    candidates = tuple(Candidate(artifact_id=ids[i], preview=texts[i][:200]) for i in window)
    return SearchResults(query=query, page=page, candidates=candidates)


# ---------------------------------------------------------------------------
# Manifest generation
# ---------------------------------------------------------------------------

# Tokens this common across a corpus make degenerate "match everything" predicates.
_MAX_DF_FRACTION = 0.6


@dataclass(frozen=True)
class ReposcanTask:
    spec: TaskSpec
    snapshot: str
    predicate: Predicate
    valid_ids: tuple[str, ...]


@dataclass
class SnapshotInfo:
    name: str
    root: str
    digest: str
    artifact_count: int


@dataclass(frozen=True)
class _Hidden:  # a task's hidden section as the manifest file holds it
    predicate: dict
    valid_ids: tuple[str, ...]


@dataclass(frozen=True)
class _Snapshots:  # what a reposcan manifest file adds to the envelope
    snapshots: tuple[SnapshotInfo, ...]


@dataclass(frozen=True)
class _TaskFields:  # what a reposcan manifest file adds to each task's spec
    snapshot: str
    hidden: _Hidden


_SNAPSHOT_LISTS = Schema(_Snapshots)
_TASK_FIELDS = Schema(_TaskFields)


@dataclass
class ReposcanManifest:
    metadata: dict
    snapshots: list[SnapshotInfo]
    tasks: list[ReposcanTask]

    checks = "digests, hidden-set consistency, leak-freedom"

    def open(self) -> tuple[Callable[[ReposcanTask], ReposcanEnvironment], list]:
        """Read each snapshot once. Returns the factory of a task's environment
        over its snapshot's corpus, and an (info, digest read now) pair for
        each snapshot whose digest changed since generation."""
        corpora: dict[str, Corpus] = {}
        changed = []
        for info in self.snapshots:
            snapshot = read_snapshot(info.root)
            if snapshot.digest != info.digest:
                changed.append((info, snapshot.digest))
            corpora[info.name] = snapshot.corpus

        def environment(task: ReposcanTask) -> ReposcanEnvironment:
            return ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)

        return environment, changed

    def smoke_failures(self, environments: Sequence, public_text: str) -> list[str]:
        """Each task's hidden set must be what its predicate selects now, hold at least
        the target, and share no id, sought as JSON escapes it, with the JSON policies see."""
        hidden = {hidden_id for task in self.tasks for hidden_id in task.valid_ids}
        leaked = {hidden_id for hidden_id in hidden if json.dumps(hidden_id)[1:-1] in public_text}
        failures = []
        for task, env in zip(self.tasks, environments):
            task_id = task.spec.task_id
            if sorted(env.corpus.matching(task.predicate)) != sorted(task.valid_ids):
                failures.append(f"hidden set mismatch: {task_id}")
            if len(task.valid_ids) < task.spec.target_count:
                failures.append(f"hidden set smaller than target: {task_id}")
            if not leaked.isdisjoint(task.valid_ids):
                failures.append(f"hidden id leaked: {task_id}")
        return failures


def build_token_table(corpus: Corpus) -> Counter:
    """Document frequency of word tokens over the corpus."""
    token_sets = map(set, map(_TOKEN_RE.findall, corpus.blobs))
    return Counter(chain.from_iterable(token_sets))


class _Vocabulary(NamedTuple):
    """What predicate sampling draws from in one snapshot for one target."""

    band: list[str]  # tokens in at least `target` artifacts and not too many
    wide: list[str]  # tokens a little more common, which a path filter narrows
    top_dirs: list[str]


def _vocabulary(table: Counter, target: int, corpus_size: int, top_dirs: list[str]) -> _Vocabulary:
    high = min(max(4 * target, target + 20), max(int(corpus_size * _MAX_DF_FRACTION), target + 1))
    band = sorted(t for t, df in table.items() if target <= df <= high)
    wide = sorted(t for t, df in table.items() if target <= df <= max(6 * target, target + 40))
    return _Vocabulary(band, wide, top_dirs)


def generate_manifest(
    snapshots: Sequence[str | Path],
    targets: Sequence[int] = (10, 25, 50, 100),
    instances_per_target: int = 9,
    seed: int = 0,
) -> ReposcanManifest:
    """Build the task manifest: per target, instances cycle snapshot/predicate pairs.

    The hidden valid set of each task is exactly the set of corpus artifacts
    satisfying its predicate; generation retries predicate parameters from the
    seeded stream until the match count reaches the target.
    """
    check_generation_grid(targets, instances_per_target)
    roots = [Path(p) for p in snapshots]
    if not roots:
        raise GenerationError("at least one snapshot is required")
    infos: list[SnapshotInfo] = []
    corpora: dict[str, Corpus] = {}
    vocabularies: dict[tuple[str, int], _Vocabulary] = {}
    used_names: set[str] = set()
    for root in roots:
        snapshot = read_snapshot(root)
        corpus = snapshot.corpus
        name = root.name or "snapshot"
        while name in used_names:
            name += "_"
        used_names.add(name)
        corpora[name] = corpus
        table = build_token_table(corpus)
        top_dirs = sorted({p.split("/", 1)[0] + "/" for p in corpus.relpaths if "/" in p})
        for target in targets:
            vocabularies[name, target] = _vocabulary(table, target, len(corpus), top_dirs)
        infos.append(
            SnapshotInfo(
                name=name,
                root=str(root),
                digest=snapshot.digest,
                artifact_count=len(corpus),
            )
        )

    combos = [(info.name, kind) for info in infos for kind in PREDICATE_TYPES]
    tasks: list[ReposcanTask] = []
    for target in targets:
        if target not in REPOSCAN_BUDGETS:
            raise GenerationError(f"no budget configured for target {target}")
        for idx in range(instances_per_target):
            snap_name, kind = combos[idx % len(combos)]
            rng = stream(seed, "reposcan", snap_name, kind.tag, target, idx)
            corpus = corpora[snap_name]
            predicate = kind.sample(rng, corpus, vocabularies[snap_name, target], target)
            if predicate is None:
                raise GenerationError(
                    f"no {kind.tag} predicate with >= {target} matches in snapshot {snap_name!r}"
                )
            valid_ids = tuple(sorted(corpus.matching(predicate)))
            task_id = f"reposcan-{snap_name}-{kind.tag}-n{target}-i{idx}"
            spec = TaskSpec(
                task_id=task_id,
                family=Family.REPOSCAN,
                objective_text=predicate.objective(target),
                target_count=target,
                budget=REPOSCAN_BUDGETS[target],
                seed=derive_seed(seed, task_id),
            )
            tasks.append(
                ReposcanTask(
                    spec=spec, snapshot=snap_name, predicate=predicate, valid_ids=valid_ids
                )
            )
    metadata = {
        "seed": seed,
        "targets": list(targets),
        "instances_per_target": instances_per_target,
        "budget_map": {str(k): v for k, v in sorted(REPOSCAN_BUDGETS.items())},
        "task_count": len(tasks),
    }
    return ReposcanManifest(metadata=metadata, snapshots=infos, tasks=tasks)


# ---------------------------------------------------------------------------
# Manifest file format
# ---------------------------------------------------------------------------

def write_manifest(manifest: ReposcanManifest, path: str | Path) -> str:
    """Write the manifest; returns the sha256 of the file."""
    tasks = []
    for t in manifest.tasks:
        hidden = _Hidden(PREDICATES.encode(t.predicate), t.valid_ids)
        tasks.append((t.spec, _TASK_FIELDS.encode(_TaskFields(t.snapshot, hidden))))
    snapshots = _SNAPSHOT_LISTS.encode(_Snapshots(tuple(manifest.snapshots)))
    return write_manifest_file(path, Family.REPOSCAN, manifest.metadata, tasks, **snapshots)


def manifest_payload(obj: dict, specs: list[TaskSpec]) -> ReposcanManifest:
    """The snapshots, each read as a SnapshotInfo, and each task's snapshot,
    which must be one of them, and hidden predicate and valid ids."""
    snapshots = list(_SNAPSHOT_LISTS.decode(obj).snapshots)
    names = {s.name for s in snapshots}
    tasks = []
    for spec, entry in zip(specs, obj["tasks"]):
        task = f"task {spec.task_id!r}"
        entry = _TASK_FIELDS.decode(entry, f"{task}: ")
        if entry.snapshot not in names:
            raise ValueError(f"{task} names unknown snapshot {entry.snapshot!r}")
        predicate = PREDICATES.decode(entry.hidden.predicate, f"{task}: ")
        tasks.append(ReposcanTask(spec, entry.snapshot, predicate, entry.hidden.valid_ids))
    return ReposcanManifest(metadata=obj["metadata"], snapshots=snapshots, tasks=tasks)


def load_manifest(path: str | Path) -> ReposcanManifest:
    return read_manifest_file(path, {Family.REPOSCAN: manifest_payload})


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class ReposcanEnvironment:
    """Serves its `actions` for one task over an indexed corpus."""

    family = Family.REPOSCAN
    actions = (Search, Submit)

    def __init__(self, task: TaskSpec, corpus: Corpus, valid_ids: Sequence[str]) -> None:
        self.task = task
        self.corpus = corpus
        self.members = frozenset(map(normalize_id, valid_ids))

    def public_view(self) -> PublicTaskView:
        return PublicTaskView.of(self.task)

    def execute(self, action: Action, ledger: RunLedger) -> Observation:
        if isinstance(action, Search):
            return search(self.corpus, action.query, action.page)
        if isinstance(action, Submit):
            verdicts = judge_ids(self.members, ledger.submissions, action.ids)
            return record_submission(ledger, verdicts)
        raise ConfigurationError(f"reposcan cannot execute {action!r}")
