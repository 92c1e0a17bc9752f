"""Controller feature table against the hand-written controllers it replaced.

The earlier `StandardController`, `VerifierGatedController`,
`StateQgpController` and `ablation_controller` are kept here verbatim as
references, gating through `oracle.gate_termination`, not the product's. For every row of `CONTROLLER_FEATURES`, on every task of both
families under every scripted policy that applies, the table controller and
its reference run in lockstep: at each step they must forward the same action,
notice and interventions and hold the same state, and independent runs must
write the same record and history.
"""

from __future__ import annotations

import functools

import pytest

from qgp import controllers
from qgp.actions import (
    PAGE_SIZE,
    Action,
    ControllerNotice,
    Observation,
    Search,
    SearchResults,
    Submit,
    SubmitFeedback,
)
from qgp.controllers import (
    AblationFlag,
    ControllerConfig,
    ControllerKind,
    Intervention,
    InterventionKind,
    StateQgpState,
    build_controller,
)
from qgp.core import RunContext, StepDecision, record_to_dict, run_episode
from qgp.dataops import DataopsEnvironment
from qgp.errors import ConfigurationError
from qgp.policies import POLICY_TYPES, build_policy
from qgp.reposcan import ReposcanEnvironment

from oracle import gate_termination

# ---------------------------------------------------------------------------
# References: the hand-written controllers
# ---------------------------------------------------------------------------


class StandardController:
    """The passthrough contract: well-formed actions execute unchanged."""

    kind_label = ControllerKind.STANDARD.value

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        return StepDecision(action=action)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        pass


class VerifierGatedController:
    kind_label = ControllerKind.VERIFIER_GATED.value

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        gated = gate_termination(action, ctx.valid_count, ctx.target_count)
        if isinstance(gated, ControllerNotice):
            iv = Intervention(
                step=ctx.step,
                kind=InterventionKind.BLOCKED_TERMINATION,
                detail=gated.reason,
            )
            return StepDecision(notice=gated, interventions=[iv])
        return StepDecision(action=gated)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        pass


class StateQgpController:
    """Retrieval persistence state: dedupe, page memory, buffered repair, gating.

    The ablation variants reuse this machinery with individual features
    switched off; the full controller enables everything.
    """

    def __init__(
        self,
        *,
        gate: bool = True,
        dedupe: bool = True,
        page_memory: bool = True,
        buffered_submit: bool = True,
        label: str = ControllerKind.STATE_QGP.value,
    ) -> None:
        self.gate = gate
        self.dedupe = dedupe
        self.page_memory = page_memory
        self.buffered_submit = buffered_submit
        self.kind_label = label
        self.state = StateQgpState()

    # -- helpers ----------------------------------------------------------

    def _fallback_query(self, ctx: RunContext) -> str:
        if self.state.last_query:
            return self.state.last_query
        tokens = [t for t in ctx.objective_text.lower().split() if len(t) >= 2]
        return tokens[0] if tokens else ctx.objective_text.strip() or "artifact"

    def _repair_to_search(self, ctx: RunContext, ivs: list[Intervention]) -> StepDecision:
        query = self._fallback_query(ctx)
        page = self.state.next_page(query)
        ivs.append(
            Intervention(
                step=ctx.step,
                kind=InterventionKind.REPAIRED_TO_SEARCH,
                detail=f"empty submission repaired to search {query!r} page {page}",
            )
        )
        self.state.last_query = query
        return StepDecision(action=Search(query=query, page=page), interventions=ivs)

    # -- contract ----------------------------------------------------------

    def transform(self, action: Action, ctx: RunContext) -> StepDecision:
        ivs: list[Intervention] = []
        if self.gate:
            gated = gate_termination(action, ctx.valid_count, ctx.target_count)
            if isinstance(gated, ControllerNotice):
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.BLOCKED_TERMINATION,
                        detail=gated.reason,
                    )
                )
                return StepDecision(notice=gated, interventions=ivs)

        if isinstance(action, Search):
            self.state.last_query = action.query
            if self.page_memory and (action.query, action.page) in self.state.seen_pages:
                page = self.state.next_page(action.query)
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.PAGE_ADVANCED,
                        detail=(
                            f"seen page {action.page} of {action.query!r} advanced to {page}"
                        ),
                    )
                )
                return StepDecision(action=Search(action.query, page), interventions=ivs)
            return StepDecision(action=action)

        if isinstance(action, Submit) and self.dedupe:
            filtered: list[str] = []
            batch_keys: set[str] = set()
            for raw in action.ids:
                key = raw.strip()
                if key in self.state.submitted_ids or key in batch_keys:
                    continue
                batch_keys.add(key)
                filtered.append(raw)
            if filtered:
                forwarded = Submit(ids=tuple(filtered))
                self.state.submitted_ids.update(i.strip() for i in filtered)
                for key in batch_keys:
                    self.state.candidate_buffer.pop(key, None)
                if forwarded.ids != action.ids:
                    dropped = len(action.ids) - len(filtered)
                    ivs.append(
                        Intervention(
                            step=ctx.step,
                            kind=InterventionKind.DEDUP_FILTERED,
                            detail=f"filtered {dropped} already-submitted or repeated ids",
                        )
                    )
                return StepDecision(action=forwarded, interventions=ivs)
            # Everything was filtered out: substitute buffered candidates, else search.
            if self.buffered_submit and self.state.candidate_buffer:
                batch = list(self.state.candidate_buffer)[:PAGE_SIZE]
                for key in batch:
                    self.state.candidate_buffer.pop(key, None)
                self.state.submitted_ids.update(batch)
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.DEDUP_FILTERED,
                        detail=(
                            f"fully duplicate submission replaced with {len(batch)} "
                            f"buffered candidates"
                        ),
                    )
                )
                return StepDecision(action=Submit(ids=tuple(batch)), interventions=ivs)
            if self.page_memory:
                return self._repair_to_search(ctx, ivs)
            if tuple(filtered) != action.ids:
                ivs.append(
                    Intervention(
                        step=ctx.step,
                        kind=InterventionKind.DEDUP_FILTERED,
                        detail="all ids were duplicates; forwarding empty submission",
                    )
                )
            return StepDecision(action=Submit(ids=()), interventions=ivs)

        return StepDecision(action=action)

    def observe(self, action: object, observation: Observation, ctx: RunContext) -> None:
        if isinstance(observation, SearchResults):
            self.state.seen_pages.add((observation.query, observation.page))
            for candidate in observation.candidates:
                key = candidate.artifact_id.strip()
                if key not in self.state.submitted_ids:
                    self.state.candidate_buffer.setdefault(key, None)
        elif isinstance(observation, SubmitFeedback) and isinstance(action, Submit):
            # Track forwarded ids even when dedupe is off (ablation variants).
            self.state.submitted_ids.update(i.strip() for i in action.ids)
            for raw in action.ids:
                self.state.candidate_buffer.pop(raw.strip(), None)


def ablation_controller(flag: AblationFlag) -> StateQgpController:
    """Component ablations; none of them gate termination or buffer candidates
    beyond what their flag allows."""
    label = f"{ControllerKind.ABLATION.value}:{flag.value}"
    if flag == AblationFlag.DEDUPE_ONLY:
        return StateQgpController(
            gate=False, dedupe=True, page_memory=False, buffered_submit=False, label=label
        )
    if flag == AblationFlag.PAGE_MEMORY_ONLY:
        return StateQgpController(
            gate=False, dedupe=False, page_memory=True, buffered_submit=False, label=label
        )
    if flag == AblationFlag.DEDUPE_PLUS_PAGE_NO_BUFFER:
        return StateQgpController(
            gate=False, dedupe=True, page_memory=True, buffered_submit=False, label=label
        )
    raise ConfigurationError(f"unknown ablation flag: {flag!r}")


# ---------------------------------------------------------------------------
# The matrix: table labels x scripted policies x families
# ---------------------------------------------------------------------------

REFERENCES = {
    "standard": StandardController,
    "verifier_gated": VerifierGatedController,
    "state_qgp": StateQgpController,
    **{
        f"ablation:{flag.value}": functools.partial(ablation_controller, flag)
        for flag in AblationFlag
    },
}
# The backlog policies need units to work on; the rest run on both families.
BACKLOG_POLICIES = ("solver", "no_submit_looper")
SCRIPTED_POLICIES = {
    "reposcan": [k for k in POLICY_TYPES if k not in ("external", *BACKLOG_POLICIES)],
    "dataops": [k for k in POLICY_TYPES if k != "external"],
}

# Every row but the passthrough intervenes on retrieval; on a backlog only
# termination gating can.
INTERVENING = {
    "reposcan": set(REFERENCES) - {"standard"},
    "dataops": {"verifier_gated", "state_qgp"},
}


def _config(label: str) -> ControllerConfig:
    kind, _, flag = label.partition(":")
    return ControllerConfig(
        kind=ControllerKind(kind), ablation_flags=AblationFlag(flag) if flag else None
    )


# ---------------------------------------------------------------------------
# Lockstep runs
# ---------------------------------------------------------------------------


class Lockstep:
    """Forwards the table controller's decisions after checking the reference's."""

    def __init__(self, table, reference, inert: bool) -> None:
        self.table = table
        self.reference = reference
        self.inert = inert
        self.kind_label = table.kind_label
        self.steps = 0
        self.submit_feedbacks = 0

    def transform(self, action, ctx):
        decision = self.table.transform(action, ctx)
        assert decision == self.reference.transform(action, ctx), (ctx.step, action)
        self.steps += 1
        return decision

    def observe(self, action, observation, ctx):
        self.table.observe(action, observation, ctx)
        self.reference.observe(action, observation, ctx)
        if hasattr(self.reference, "state"):
            assert self.table.state == self.reference.state, (ctx.step, action)
        if self.inert:
            # No retrieval action reaches a backlog, so nothing is tracked.
            assert self.table.state == StateQgpState(), (ctx.step, action)
            self.submit_feedbacks += isinstance(observation, SubmitFeedback)


def _environments(family, reposcan_loaded, dataops_loaded):
    """(task spec, environment factory) for every task of one family."""
    if family == "reposcan":
        manifest, corpora = reposcan_loaded
        make = ReposcanEnvironment
        return [
            (t.spec, functools.partial(make, t.spec, corpora[t.snapshot], t.valid_ids))
            for t in manifest.tasks
        ]
    return [
        (t.spec, functools.partial(DataopsEnvironment, t.spec, t.units, t.workspace))
        for t in dataops_loaded.tasks
    ]


def _run(spec, make_env, controller, policy_kind):
    env = make_env()
    try:
        return run_episode(spec, env, controller, build_policy(policy_kind))
    finally:
        if hasattr(env, "close"):
            env.close()


class TestTableAgainstReferences:
    def test_one_row_per_reference(self):
        assert list(controllers.CONTROLLER_FEATURES) == list(REFERENCES)

    @pytest.mark.parametrize("label", list(REFERENCES))
    @pytest.mark.parametrize("family", ["reposcan", "dataops"])
    def test_lockstep(self, family, label, reposcan_loaded, dataops_loaded):
        steps = interventions = submit_feedbacks = 0
        for spec, make_env in _environments(family, reposcan_loaded, dataops_loaded):
            for policy_kind in SCRIPTED_POLICIES[family]:
                table = build_controller(_config(label))
                assert type(table) is controllers.StateQgpController
                lockstep = Lockstep(table, REFERENCES[label](), inert=family == "dataops")
                record = _run(spec, make_env, lockstep, policy_kind)
                reference = _run(spec, make_env, REFERENCES[label](), policy_kind)
                assert record_to_dict(record) == record_to_dict(reference)
                assert record.ledger.history == reference.ledger.history
                steps += lockstep.steps
                interventions += len(record.interventions)
                submit_feedbacks += lockstep.submit_feedbacks
        assert steps > 1000
        if family == "dataops":
            assert submit_feedbacks > 0
        assert (interventions > 0) == (label in INTERVENING[family])

    @pytest.mark.parametrize(
        "preset, label",
        [
            (controllers.StandardController, "standard"),
            (controllers.VerifierGatedController, "verifier_gated"),
            (controllers.StateQgpController, "state_qgp"),
        ],
    )
    def test_presets_apply_their_row(self, preset, label):
        controller = preset()
        assert isinstance(controller, controllers.StateQgpController)
        assert controller.kind_label == label
        features = (
            controller.gate,
            controller.dedupe,
            controller.page_memory,
            controller.buffered_submit,
        )
        assert features == controllers.CONTROLLER_FEATURES[label]
        assert vars(controller) == vars(build_controller(_config(label)))

    @pytest.mark.parametrize("flag", list(AblationFlag))
    def test_ablation_controller_is_a_row_lookup(self, flag):
        label = f"ablation:{flag.value}"
        table = build_controller(_config(label))
        assert vars(controllers.StateQgpController(label)) == vars(table)

    def test_unit_qgp_keeps_its_class(self):
        controller = build_controller(ControllerConfig(kind=ControllerKind.UNIT_QGP))
        assert type(controller) is controllers.UnitQgpController
