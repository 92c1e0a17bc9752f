"""Restated rules that the product is checked against.

`reposcan.Corpus` answers predicates and search from its columns and memos.
The oracles here restate each rule one artifact at a time, with no private
`qgp.reposcan` name: a record's blob is its text, a newline and its relpath,
lowered, made here; a pattern is compiled case-insensitively here; the kind
of a relpath is worked out here from its parts. A bug in a helper that the
memos share therefore shows as a disagreement with these.

`gate_termination` restates the completion gate of the gated controllers,
so the reference controllers do not call the rule they are checked against.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from qgp.actions import AskUser, ControllerNotice, Final
from qgp.errors import ConfigurationError, GenerationError
from qgp.reposcan import Corpus, KeywordOrPattern, PathAndContent, TestOrDocumentation


@dataclass(frozen=True)
class ArtifactRecord:
    artifact_id: str
    relpath: str
    kind: str
    text: str
    # What search and keywords match.
    blob: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blob", (self.text + "\n" + self.relpath).lower())


def classify_kind(relpath: str) -> str:
    """Test below a `test` or `tests` directory; else documentation for a
    `.rst` or `.md` name or below a `docs` directory; else configuration by
    suffix; else source."""
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


def record(relpath: str, text: str) -> ArtifactRecord:
    """The record that a snapshot file at `relpath` holding `text` reads as."""
    kind = classify_kind(relpath)
    return ArtifactRecord(f"{relpath}#{kind}", relpath, kind, text)


def build_corpus(records: Iterable[ArtifactRecord]) -> Corpus:
    """The corpus whose i-th artifact has the fields of the i-th record."""
    records = list(records)
    return Corpus(
        tuple(r.artifact_id for r in records),
        tuple(r.relpath for r in records),
        tuple(r.kind for r in records),
        tuple(r.text for r in records),
    )


def records_of(corpus: Corpus) -> list[ArtifactRecord]:
    """The corpus's artifacts as records, each blob made here, not read."""
    return list(map(ArtifactRecord, corpus.ids, corpus.relpaths, corpus.kinds, corpus.texts))


def _compiled(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern, re.IGNORECASE)
    except re.error as exc:
        raise GenerationError(f"invalid predicate pattern {pattern!r}: {exc}") from exc


def evaluate_predicate(artifact: ArtifactRecord, predicate) -> bool:
    """Whether one artifact satisfies the predicate; an invalid pattern raises
    GenerationError when it is tried."""
    if isinstance(predicate, KeywordOrPattern):
        if any(k.lower() in artifact.blob for k in predicate.keywords):
            return True
        return any(_compiled(p).search(artifact.text) for p in predicate.patterns)
    if isinstance(predicate, PathAndContent):
        if predicate.path_substring not in artifact.relpath:
            return False
        return predicate.content_substring.lower() in artifact.text.lower()
    if isinstance(predicate, TestOrDocumentation):
        return artifact.kind in predicate.kinds
    raise ConfigurationError(f"unknown predicate: {predicate!r}")


def gate_termination(action, valid_count: int, target_count: int):
    """A `Final` or `AskUser` proposed while fewer than `target_count` ids are
    verified becomes a notice of how many are still required; any other
    action, or one at or past the target, goes through as proposed."""
    if not isinstance(action, (Final, AskUser)) or valid_count >= target_count:
        return action
    remaining = target_count - valid_count
    reason = f"termination blocked: target not met, {remaining} of {target_count} still required"
    return ControllerNotice(reason=reason, valid_count=valid_count, remaining=remaining)
