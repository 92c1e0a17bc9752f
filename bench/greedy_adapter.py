"""Greedy reposcan policy speaking the external adapter protocol.

Reads one request per line on stdin and answers one action per line on
stdout, standard library only. It searches the objective's tokens in order,
page by page, submits unseen candidates at most ten per batch, sends
``final`` once the verifier reports nothing remaining and ``ask_user`` when
the tokens run out. The engine starts one process per run, so all state here
belongs to a single run.

Run it through the engine, for example:
    qgp run --policy external --policy-cmd "python3 bench/greedy_adapter.py" ...
"""

from __future__ import annotations

import json
import sys

SUBMIT_BATCH = 10


class GreedyAdapter:
    def __init__(self) -> None:
        self.tokens: list[str] | None = None
        self.token_index = 0
        self.next_page = 0
        self.seen: set[str] = set()
        self.pending: list[str] = []

    def _absorb(self, obs: dict | None) -> dict | None:
        if obs is None:
            return None
        kind = obs.get("kind")
        if kind == "submit_feedback" and obs["remaining"] == 0:
            return {"kind": "final", "completion_claim": True, "reported_count": obs["valid_count"]}
        if kind == "search_results":
            if not obs["candidates"]:
                self.token_index += 1
                self.next_page = 0
            else:
                self.next_page = obs["page"] + 1
            for candidate in obs["candidates"]:
                artifact_id = candidate["artifact_id"]
                if artifact_id not in self.seen:
                    self.seen.add(artifact_id)
                    self.pending.append(artifact_id)
        return None

    def decide(self, request: dict) -> dict:
        if self.tokens is None:
            words = request["objective"].lower().split()
            self.tokens = list(dict.fromkeys(t for t in words if len(t) >= 2))
        final = self._absorb(request.get("last_observation"))
        if final is not None:
            return final
        if self.pending:
            batch, self.pending = self.pending[:SUBMIT_BATCH], self.pending[SUBMIT_BATCH:]
            return {"kind": "submit", "ids": batch}
        if self.token_index < len(self.tokens):
            return {"kind": "search", "query": self.tokens[self.token_index], "page": self.next_page}
        return {"kind": "ask_user", "message": "all objective queries are exhausted"}


def main() -> int:
    adapter = GreedyAdapter()
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(json.dumps(adapter.decide(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
