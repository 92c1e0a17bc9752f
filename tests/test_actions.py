"""Wire format for actions and observations, and per-family legality."""

from __future__ import annotations

import pytest

from qgp.actions import (
    FAMILY_ACTIONS,
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
    action_to_dict,
    observation_to_dict,
)
from qgp.errors import ActionParseError

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
        assert action_from_dict(action_to_dict(action)) == action

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
    def test_reposcan_vocabulary(self):
        legal = {Search, Submit, Final, AskUser}
        for action in ALL_ACTIONS:
            assert isinstance(action, FAMILY_ACTIONS[Family.REPOSCAN]) == (type(action) in legal)

    def test_dataops_vocabulary(self):
        legal = {Inspect, Edit, RunCheck, SubmitUnit, Final, AskUser}
        for action in ALL_ACTIONS:
            assert isinstance(action, FAMILY_ACTIONS[Family.DATAOPS]) == (type(action) in legal)


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

    def test_enums_serialize_as_values(self):
        payload = observation_to_dict(
            UnitFeedback("u1", Verdict.PASS, "ok", UnitStatus.PASSED)
        )
        assert payload["verdict"] == "pass"
        assert payload["status_after"] == "passed"
