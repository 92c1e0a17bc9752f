"""Action and observation algebra exchanged between policy, controller, and environment.

Actions are the policy-facing vocabulary; observations are everything the
engine sends back. Both serialize to single-line JSON objects tagged with a
``kind`` field so external adapters can speak the same wire format; before
each step the engine writes an adapter one untagged `AdapterRequest`. One
annotation-driven codec, `Schema`, reads every typed record the engine
loads, tagged by `TaggedCodec` or untagged, and writes them.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, Field, dataclass, fields
from enum import Enum
from typing import Callable, NewType, Union, get_args, get_origin, get_type_hints

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


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    artifact_id: str
    preview: str


PAGE_SIZE = 10  # the most candidates one SearchResults page holds


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


@dataclass(frozen=True)
class AdapterRequest:
    """The line the engine writes to an external adapter before each step;
    `last_observation` is the previous step's observation as
    `observation_to_dict` writes it, or None at the first step."""

    task_id: str
    family: Family
    objective: str
    target_count: int
    budget_remaining: int
    step: int
    last_observation: dict | None


# ---------------------------------------------------------------------------
# Field codec: one reader for every typed record, on the wire and in files
# ---------------------------------------------------------------------------

_BAD = object()  # what a field check returns for a value its annotation does not admit

Seed = NewType("Seed", int)  # any integer, where a record's other integers are counts
# An adapter's command line: a string, split as a shell would, or a list of strings.
AdapterCommand = NewType("AdapterCommand", list)

# (admits, expected) per scalar annotation: a bool or a float, even a whole
# one, is not an integer, and a bool is not a number. `T.__instancecheck__`
# is `isinstance(v, T)`.
_SCALARS = {
    str: (str.__instancecheck__, "a string"),
    bool: (bool.__instancecheck__, "a boolean"),
    int: (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    Seed: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    AdapterCommand: (
        lambda v: isinstance(v, str) or type(v) is list and all(isinstance(a, str) for a in v),
        "a string or a list of strings",
    ),
    dict: (dict.__instancecheck__, "an object"),
}


def _field_codec(hint, error: type[Exception]) -> tuple[Callable | None, Callable, str]:
    """(encode, check, expected) for one field annotation.

    `encode` maps a value to its JSON form, or is None where JSON takes the
    value as it is. `check(value, prefix, name)` maps field `name`'s JSON value
    to the field's value, or to _BAD when it is not `expected`; a nested record
    that does not fit raises `error` naming its field by path, `prefix` first.
    """
    args = get_args(hint)
    if hint in _SCALARS:
        admits, expected = _SCALARS[hint]
        return None, lambda v, prefix, name: v if admits(v) else _BAD, expected
    if type(None) in args:
        encode, check, expected = _field_codec(args[0], error)
        return encode, lambda v, *at: None if v is None else check(v, *at), f"{expected} or null"
    if get_origin(hint) is tuple:  # of scalars or of records
        encode_item, check_item, expected = _field_codec(args[0], error)
        admits = _SCALARS.get(args[0], (None,))[0]

        def check_list(value: object, prefix: str, name: str) -> object:
            if type(value) is not list:
                return _BAD
            if admits is None:  # a record's check raises on a bad item
                return tuple(check_item(x, prefix, f"{name}[{i}]") for i, x in enumerate(value))
            return tuple(value) if all(map(admits, value)) else _BAD

        encode = list if encode_item is None else lambda v: [encode_item(x) for x in v]
        many = "strings" if args[0] is str else f"items each {expected}"
        return encode, check_list, f"a list of {many}"
    if get_origin(hint) is dict:  # JSON keys are strings; the values are scalars
        admits, expected = _SCALARS[args[1]]

        def check_map(value: object, prefix: str, name: str) -> object:
            return value if type(value) is dict and all(map(admits, value.values())) else _BAD

        return None, check_map, f"an object whose values are each {expected}"
    if issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        return (
            operator.attrgetter("value"),
            lambda v, prefix, name: members.get(v, _BAD) if isinstance(v, str) else _BAD,
            "one of " + ", ".join(members),
        )
    schema = Schema(hint, error)  # a nested dataclass: an untagged object
    return schema.encode, lambda v, prefix, name: schema.decode(v, f"{prefix}{name}."), "an object"


def _has_default(f: Field) -> bool:
    return f.default is not MISSING or f.default_factory is not MISSING


class Schema:
    """A dataclass as a JSON object of its init fields, written in field
    order and read by checking each field against its annotation. Other keys
    are ignored, a missing field takes its default where there is one, and a
    field that does not fit, or is missing with no default, raises `error`
    naming it."""

    def __init__(self, cls: type, error: type[Exception] = ValueError) -> None:
        self.cls, self.error, hints = cls, error, get_type_hints(cls)
        # (name, encode, check, expected, has a default) per field.
        self.plan = [
            (f.name, *_field_codec(hints[f.name], error), _has_default(f))
            for f in fields(cls)
            if f.init
        ]

    def encode(self, record: object) -> dict:
        out = {}
        for name, encode, _, _, _ in self.plan:
            value = getattr(record, name)
            out[name] = value if encode is None else encode(value)
        return out

    def decode(self, obj: object, prefix: str = ""):
        """The record `obj` holds. An error names a field as `prefix`, such as
        "search." or "task 't1': ", then its name, and `obj` itself as `prefix`
        without its separator."""
        if not isinstance(obj, dict):
            raise self.error(f"{prefix.rstrip('.: ') or 'the file'} must be an object")
        values = {}
        for name, _, check, expected, has_default in self.plan:
            value = obj.get(name, _BAD)
            if value is not _BAD:
                value = check(value, prefix, name)
            elif has_default:
                continue
            if value is _BAD:
                raise self.error(f"{prefix}{name} must be {expected}")
            values[name] = value
        return self.cls(**values)


class TaggedCodec:
    """Frozen dataclasses as JSON objects tagged by one key, from one table:
    each is its class's `Schema` with the tag first. Every failure raises
    `error`, naming the tag and the field."""

    def __init__(
        self, noun: str, tag_key: str, table: dict[str, type], error: type[Exception]
    ) -> None:
        self.noun = noun
        self.tag_key = tag_key
        self.error = error
        schemas = {cls: Schema(cls, error) for cls in table.values()}
        self._decoders = {tag: (schemas[cls], f"{tag}.") for tag, cls in table.items()}
        self._encoders = {cls: (tag, schemas[cls]) for tag, cls in table.items()}

    def encode(self, record: object) -> dict:
        if type(record) not in self._encoders:
            raise self.error(f"unknown {self.noun}: {record!r}")
        tag, schema = self._encoders[type(record)]
        return {self.tag_key: tag} | schema.encode(record)

    def decode(self, obj: object, prefix: str = ""):
        """The record `obj` holds; `prefix` leads each error, as in `Schema.decode`."""
        if not isinstance(obj, dict):
            raise self.error(f"{prefix}{self.noun} record must be an object")
        tag = obj.get(self.tag_key)
        if not isinstance(tag, str) or tag not in self._decoders:
            raise self.error(f"{prefix}unknown {self.noun} {self.tag_key}: {tag!r}")
        schema, field_prefix = self._decoders[tag]
        return schema.decode(obj, prefix + field_prefix)


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
ADAPTER_REQUESTS = Schema(AdapterRequest, ActionParseError)

action_from_dict = ACTIONS.decode
observation_to_dict = OBSERVATIONS.encode
