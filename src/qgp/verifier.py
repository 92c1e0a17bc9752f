"""Identifier normalization and the retrieval verdict rule.

Each identifier rule is written once. Here: what makes two identifiers one
(`normalize_id`) and the retrieval verdict (`judge_ids`), which the reposcan
environment applies to each submission and the retrieval controllers' dedupe
rows apply, with no members, to decide which ids are repeats. The backlog
verdict lives in `dataops.submit_unit`, and `core.record_submission` only
counts the verdicts it is given. Nothing emitted here ever enumerates hidden
members that the caller has not itself submitted. It holds no state: the run
ledger is the only record of what was submitted and counted.
"""

from __future__ import annotations

from enum import Enum
from typing import AbstractSet, Container, Sequence


class IdVerdict(str, Enum):
    ACCEPT_NEW = "accept_new"
    DUPLICATE = "duplicate"
    REJECT = "reject"


# Identifier identity is the surrounding-whitespace-trimmed string; no case
# folding. The method itself, so a call pays no wrapper frame.
normalize_id = str.strip


def judge_ids(
    members: AbstractSet[str], submitted: Container[str], ids: Sequence[str]
) -> list[tuple[str, IdVerdict]]:
    """Judge a batch left to right against the hidden members.

    Any identifier previously submitted (in ``submitted``, or earlier in this
    batch) is a duplicate regardless of validity; a fresh member is accepted
    exactly once; anything else is rejected.
    """
    verdicts: list[tuple[str, IdVerdict]] = []
    seen: set[str] = set()
    for raw in ids:
        key = normalize_id(raw)
        if key in submitted or key in seen:
            verdicts.append((key, IdVerdict.DUPLICATE))
        elif key in members:
            verdicts.append((key, IdVerdict.ACCEPT_NEW))
        else:
            verdicts.append((key, IdVerdict.REJECT))
        seen.add(key)
    return verdicts
