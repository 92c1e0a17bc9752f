"""Action and observation algebra exchanged between policy, controller, and environment.

Actions are the policy-facing vocabulary; observations are everything the
engine sends back. Both serialize to single-line JSON objects tagged with a
``kind`` field so external adapters can speak the same wire format. One
table-driven codec, `TaggedCodec`, encodes and decodes them, and also the
predicates and checkers that manifests tag with a ``type`` field.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Callable, Union, get_args, get_origin, get_type_hints

from .errors import ActionParseError


class Family(str, Enum):
    REPOSCAN = "reposcan"
    DATAOPS = "dataops"


class Outcome(str, Enum):
    SUCCESS = "success"
    FALSE_COMPLETION = "false_completion"
    PREMATURE_STOP = "premature_stop"
    BUDGET_EXHAUSTED = "budget_exhausted"
    ABORTED = "aborted"


class UnitStatus(str, Enum):
    PENDING = "pending"
    ATTEMPTED = "attempted"
    PASSED = "passed"


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Search:
    query: str
    page: int = 0


@dataclass(frozen=True)
class Submit:
    # Repeats inside ids are data, not an error; order is preserved.
    ids: tuple[str, ...]


@dataclass(frozen=True)
class Inspect:
    unit_id: str


@dataclass(frozen=True)
class Edit:
    unit_id: str
    payload: str


@dataclass(frozen=True)
class RunCheck:
    unit_id: str


@dataclass(frozen=True)
class SubmitUnit:
    unit_id: str


@dataclass(frozen=True)
class Final:
    completion_claim: bool
    reported_count: int | None = None


@dataclass(frozen=True)
class AskUser:
    message: str


Action = Union[Search, Submit, Inspect, Edit, RunCheck, SubmitUnit, Final, AskUser]


@dataclass(frozen=True)
class Malformed:
    """Placeholder recorded when a policy emitted something unparseable."""

    raw: str
    reason: str = "parse_error"


_FAMILY_ACTIONS: dict[Family, tuple[type, ...]] = {
    Family.REPOSCAN: (Search, Submit, Final, AskUser),
    Family.DATAOPS: (Inspect, Edit, RunCheck, SubmitUnit, Final, AskUser),
}


def is_legal_for_family(action: Action, family: Family) -> bool:
    return isinstance(action, _FAMILY_ACTIONS[Family(family)])


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    artifact_id: str
    preview: str


@dataclass(frozen=True)
class SearchResults:
    query: str
    page: int
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True)
class SubmitFeedback:
    accepted: tuple[str, ...]
    rejected: tuple[str, ...]
    duplicates: tuple[str, ...]
    valid_count: int
    remaining: int


@dataclass(frozen=True)
class UnitFeedback:
    unit_id: str
    verdict: Verdict
    detail: str
    status_after: UnitStatus


@dataclass(frozen=True)
class ControllerNotice:
    reason: str
    valid_count: int
    remaining: int


@dataclass(frozen=True)
class Terminal:
    outcome: Outcome


Observation = Union[SearchResults, SubmitFeedback, UnitFeedback, ControllerNotice, Terminal]


# ---------------------------------------------------------------------------
# Wire format: one codec for every tagged record
# ---------------------------------------------------------------------------

_BAD = object()  # what a field check returns for a value its annotation does not admit


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# Integers on the wire are counts and page numbers, so they are never negative.
_SCALARS = {
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (_is_count, "a non-negative integer"),
}


def _field_codec(hint, error: type[Exception]) -> tuple[Callable | None, Callable, str]:
    """(encode, check, expected) for one field annotation.

    `encode` maps a value to its JSON form, or is None where JSON takes the
    value as it is. `check` maps a JSON value to the field's value, or to
    _BAD when the value is not `expected`; a nested record that does not fit
    raises `error` naming its own field.
    """
    args = get_args(hint)
    if hint in _SCALARS:
        admits, expected = _SCALARS[hint]
        return None, lambda v: v if admits(v) else _BAD, expected
    if type(None) in args:
        encode, check, expected = _field_codec(args[0], error)
        return encode, lambda v: None if v is None else check(v), f"{expected} or null"
    if get_origin(hint) is tuple:
        encode_item, check_item, expected = _field_codec(args[0], error)

        def check_list(value: object) -> object:
            items = tuple(map(check_item, value)) if isinstance(value, list) else (_BAD,)
            return _BAD if any(item is _BAD for item in items) else items

        encode = list if encode_item is None else lambda v: [encode_item(x) for x in v]
        many = "strings" if args[0] is str else f"items each {expected}"
        return encode, check_list, f"a list of {many}"
    if issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        return (
            operator.attrgetter("value"),
            lambda v: members.get(v, _BAD) if isinstance(v, str) else _BAD,
            "one of " + ", ".join(members),
        )
    plan = _plan(hint, error)  # a nested dataclass: an untagged object
    name = hint.__name__
    decode = lambda v: _decode(hint, plan, v, name, error)  # noqa: E731
    return lambda v: _encode(v, plan, {}), decode, f"a {name}"


def _plan(cls: type, error: type[Exception]) -> list[tuple]:
    """(name, encode, check, expected, default) per field, in declaration order."""
    hints = get_type_hints(cls)
    return [(f.name, *_field_codec(hints[f.name], error), f.default) for f in fields(cls)]


def _encode(record: object, plan: list[tuple], out: dict) -> dict:
    for name, encode, _, _, _ in plan:
        value = getattr(record, name)
        out[name] = value if encode is None else encode(value)
    return out


def _decode(cls: type, plan: list[tuple], obj: object, label: str, error: type) -> object:
    """The `cls` record that `obj` holds; raises `error` naming a field that does not fit."""
    if not isinstance(obj, dict):
        raise error(f"{label} must be an object")
    values = {}
    for name, _, check, expected, default in plan:
        if name not in obj and default is not MISSING:
            continue
        values[name] = check(obj.get(name))
        if values[name] is _BAD:
            raise error(f"{label}.{name} must be {expected}")
    return cls(**values)


class TaggedCodec:
    """Frozen dataclasses as JSON objects tagged by one key, from one table.

    Encoding writes the tag, then each field in declaration order: tuples
    become lists, enums their values and nested dataclasses objects.
    Decoding checks each field against its annotation and ignores other
    keys; a missing field takes its dataclass default where there is one.
    Every failure raises `error`, naming the tag and the field.
    """

    def __init__(
        self, noun: str, tag_key: str, table: dict[str, type], error: type[Exception]
    ) -> None:
        self.noun = noun
        self.tag_key = tag_key
        self.error = error
        plans = {cls: _plan(cls, error) for cls in table.values()}
        self._decoders = {tag: (cls, plans[cls]) for tag, cls in table.items()}
        self._encoders = {cls: (tag, plans[cls]) for tag, cls in table.items()}

    def encode(self, record: object) -> dict:
        if type(record) not in self._encoders:
            raise self.error(f"unknown {self.noun}: {record!r}")
        tag, plan = self._encoders[type(record)]
        return _encode(record, plan, {self.tag_key: tag})

    def decode(self, obj: object):
        if not isinstance(obj, dict):
            raise self.error(f"{self.noun} record must be an object")
        tag = obj.get(self.tag_key)
        if not isinstance(tag, str) or tag not in self._decoders:
            raise self.error(f"unknown {self.noun} {self.tag_key}: {tag!r}")
        return _decode(*self._decoders[tag], obj, tag, self.error)


ACTIONS = TaggedCodec(
    "action",
    "kind",
    {
        "search": Search,
        "submit": Submit,
        "inspect": Inspect,
        "edit": Edit,
        "run_check": RunCheck,
        "submit_unit": SubmitUnit,
        "final": Final,
        "ask_user": AskUser,
    },
    ActionParseError,
)
OBSERVATIONS = TaggedCodec(
    "observation",
    "kind",
    {
        "search_results": SearchResults,
        "submit_feedback": SubmitFeedback,
        "unit_feedback": UnitFeedback,
        "controller_notice": ControllerNotice,
        "terminal": Terminal,
    },
    ActionParseError,
)

action_to_dict = ACTIONS.encode
action_from_dict = ACTIONS.decode
observation_to_dict = OBSERVATIONS.encode
