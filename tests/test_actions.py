"""Wire format for actions and observations, and per-family legality."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import get_args

import pytest

from qgp.actions import (
    ACTIONS,
    ADAPTER_REQUESTS,
    OBSERVATIONS,
    PAGE_SIZE,
    Action,
    AskUser,
    Candidate,
    ControllerNotice,
    Edit,
    Family,
    Final,
    Inspect,
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
    observation_to_dict,
)
from qgp.dataops import DataopsEnvironment
from qgp.errors import ActionParseError
from qgp.reposcan import ReposcanEnvironment

ALL_ACTIONS = [
    Search(query="session cookie", page=2),
    Submit(ids=("a#source", "a#source", "b#test")),
    Inspect(unit_id="u001"),
    Edit(unit_id="u001", payload='{"key": "k", "value": "v"}'),
    RunCheck(unit_id="u001"),
    SubmitUnit(unit_id="u001"),
    Final(completion_claim=True, reported_count=12),
    Final(completion_claim=False),
    AskUser(message="still going?"),
]


class TestActionRoundTrip:
    @pytest.mark.parametrize("action", ALL_ACTIONS, ids=lambda a: type(a).__name__)
    def test_round_trip(self, action):
        assert action_from_dict(ACTIONS.encode(action)) == action

    @pytest.mark.parametrize(
        "obj",
        [
            "not a dict",
            {},
            {"kind": "warp"},
            {"kind": "search", "query": "x", "page": -1},
            {"kind": "search", "query": "x", "page": True},
            {"kind": "search", "query": 3},
            {"kind": "submit", "ids": "abc"},
            {"kind": "submit", "ids": [1, 2]},
            {"kind": "final", "completion_claim": "yes"},
            {"kind": "final", "completion_claim": True, "reported_count": -1},
            {"kind": "edit", "unit_id": "u1"},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ActionParseError):
            action_from_dict(obj)

    def test_submit_preserves_repeats_and_order(self):
        decoded = action_from_dict({"kind": "submit", "ids": ["b", "a", "b"]})
        assert decoded.ids == ("b", "a", "b")


class TestFamilyLegality:
    """Each environment class declares the actions its `execute` serves: its
    family's own, and neither Final nor AskUser, which end a run."""

    def test_all_eight_action_types_are_checked(self):
        assert {type(action) for action in ALL_ACTIONS} == set(get_args(Action))
        assert len(get_args(Action)) == 8

    def test_reposcan_vocabulary(self):
        served = {Search, Submit}
        for action in ALL_ACTIONS:
            assert isinstance(action, ReposcanEnvironment.actions) == (type(action) in served)

    def test_dataops_vocabulary(self):
        served = {Inspect, Edit, RunCheck, SubmitUnit}
        for action in ALL_ACTIONS:
            assert isinstance(action, DataopsEnvironment.actions) == (type(action) in served)


class TestObservationSerialization:
    @pytest.mark.parametrize(
        "obs,kind",
        [
            (
                SearchResults(query="q", page=0, candidates=(Candidate("a#source", "text"),)),
                "search_results",
            ),
            (
                SubmitFeedback(("a",), ("b",), ("a",), valid_count=1, remaining=9),
                "submit_feedback",
            ),
            (
                UnitFeedback("u1", Verdict.FAIL, "detail", UnitStatus.ATTEMPTED),
                "unit_feedback",
            ),
            (ControllerNotice("parse_error", 0, 10), "controller_notice"),
            (Terminal(outcome=Outcome.SUCCESS), "terminal"),
        ],
        ids=lambda x: x if isinstance(x, str) else type(x).__name__,
    )
    def test_kind_tags(self, obs, kind):
        payload = observation_to_dict(obs)
        assert payload["kind"] == kind

    @pytest.mark.parametrize(
        "candidates,message",
        [
            (
                [{"artifact_id": "a", "preview": "p"}, {"artifact_id": 5, "preview": "p"}],
                "search_results.candidates[1].artifact_id must be a string",
            ),
            ([5], "search_results.candidates[0] must be an object"),
            ("abc", "search_results.candidates must be a list of items each an object"),
        ],
        ids=["field-of-second-item", "item-not-an-object", "not-a-list"],
    )
    def test_nested_record_error_names_its_whole_path(self, candidates, message):
        obj = {"kind": "search_results", "query": "q", "page": 0, "candidates": candidates}
        with pytest.raises(ActionParseError) as info:
            OBSERVATIONS.decode(obj)
        assert str(info.value) == message

    def test_enums_serialize_as_values(self):
        payload = observation_to_dict(
            UnitFeedback("u1", Verdict.PASS, "ok", UnitStatus.PASSED)
        )
        assert payload["verdict"] == "pass"
        assert payload["status_after"] == "passed"


README = Path(__file__).resolve().parent.parent / "README.md"


def _adapter_examples() -> tuple[str, str]:
    """The README's adapter request example and its reply examples: the
    first two JSON blocks of its "External policy adapter" section."""
    section = README.read_text(encoding="utf-8").split("## External policy adapter", 1)[1]
    request, replies = re.findall(r"```json\n(.*?)```", section, re.DOTALL)[:2]
    return request, replies


def test_readme_request_example_is_an_adapter_request():
    text, _ = _adapter_examples()
    example = json.loads(text)
    request = ADAPTER_REQUESTS.decode(example)
    assert request.family == Family.REPOSCAN and request.last_observation is None
    # Written back, it has the same keys in the same order.
    assert list(ADAPTER_REQUESTS.encode(request).items()) == list(example.items())


def test_readme_reply_examples_are_actions():
    _, text = _adapter_examples()
    lines = text.splitlines()
    assert len(lines) == 8
    for line in lines:
        example = json.loads(line)
        assert ACTIONS.encode(action_from_dict(example)) == example, line


def test_readme_page_size_is_page_size():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"at most `PAGE_SIZE` ({PAGE_SIZE}) candidates" in text
    assert f"Page n holds ranks {PAGE_SIZE}n to {PAGE_SIZE}n+{PAGE_SIZE - 1}" in text
    assert f"one page of at most {PAGE_SIZE} candidates" in text
