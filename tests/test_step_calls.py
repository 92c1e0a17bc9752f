"""How often `run_episode` calls each layer in one step.

`bench/tracing.py` rebuilds each record's counts from spans around
`policy.decide`, `controller.transform` and `environment.execute`, so the
loop must call each of them, and `controller.observe`, through its attribute
exactly as often as the run's steps require:

- one `decide` per step;
- one `transform` per well-formed proposal that is legal in the family;
- one `execute` per executed action, that is, per step answered by an
  observation rather than a notice or the run's end;
- one `observe` per step, but a step whose Final or AskUser ends the run.

Each family's working policy, and a policy that claims completion at step 5,
run under every controller row, so that runs end in success, in a Final and
when the budget runs out. Each policy first proposes one malformed action
and one of the other family, so that both notices occur before the scripted
work; the second is answered with `unsupported_action`.
"""

from __future__ import annotations

import pytest

from qgp.actions import (
    AskUser,
    ControllerNotice,
    Edit,
    Family,
    Final,
    Inspect,
    Malformed,
    RunCheck,
    Search,
    Submit,
    SubmitUnit,
    Terminal,
)
from qgp.controllers import AblationFlag, ControllerConfig, ControllerKind, build_controller
from qgp.core import record_to_dict, run_episode
from qgp.dataops import DataopsEnvironment
from qgp.policies import FalseCompleterPolicy, GreedyOraclePolicy, SolverPolicy
from qgp.reposcan import ReposcanEnvironment

CONFIGS = [ControllerConfig(kind=k) for k in ControllerKind if k != ControllerKind.ABLATION]
CONFIGS += [ControllerConfig(kind=ControllerKind.ABLATION, ablation_flags=f) for f in AblationFlag]

# The action types legal in each family, written out here rather than read
# from the environments that declare them.
LEGAL = {
    Family.REPOSCAN: (Search, Submit, Final, AskUser),
    Family.DATAOPS: (Inspect, Edit, RunCheck, SubmitUnit, Final, AskUser),
}


class _Prefixed:
    """The wrapped policy, after one malformed and one illegal proposal."""

    def __init__(self, policy, illegal) -> None:
        self.policy, self.illegal, self.label = policy, illegal, policy.label

    def decide(self, view, history):
        if not history:
            return Malformed(raw="not an action")
        if len(history) == 1:
            return self.illegal
        return self.policy.decide(view, history)


def _count_calls(obj, name: str, counts: dict, calls: list) -> None:
    """Count each call of `obj.name`, keeping its arguments and what it
    returned in `calls`."""
    method = getattr(obj, name)

    def counted(*args):
        counts[name] += 1
        result = method(*args)
        calls.append((args, result))
        return result

    setattr(obj, name, counted)


def _run_parts(family, reposcan_loaded, dataops_loaded):
    """A task of the family, its environment, its working policy and an
    action of the other family."""
    if family == Family.REPOSCAN:
        manifest, corpora = reposcan_loaded
        task = manifest.tasks[0]
        env = ReposcanEnvironment(task.spec, corpora[task.snapshot], task.valid_ids)
        return task.spec, env, GreedyOraclePolicy(), Inspect(unit_id="u1")
    task = dataops_loaded.tasks[0]
    env = DataopsEnvironment(task.spec, task.units, task.workspace)
    return task.spec, env, SolverPolicy(), Search(query="q")


@pytest.mark.parametrize("claims", [False, True], ids=["works", "claims"])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_each_layer_is_called_once_per_step_that_needs_it(
    family, config, claims, reposcan_loaded, dataops_loaded
):
    spec, env, scripted, illegal = _run_parts(family, reposcan_loaded, dataops_loaded)
    if claims:
        scripted = FalseCompleterPolicy(final_step=5)
    policy, controller = _Prefixed(scripted, illegal), build_controller(config)
    counts = dict.fromkeys(("decide", "transform", "execute", "observe"), 0)
    calls: dict = {name: [] for name in counts}
    _count_calls(policy, "decide", counts, calls["decide"])
    _count_calls(controller, "transform", counts, calls["transform"])
    _count_calls(controller, "observe", counts, calls["observe"])
    _count_calls(env, "execute", counts, calls["execute"])

    record = run_episode(spec, env, controller, policy)

    history = record.ledger.history
    proposals = [proposal for _, proposal in calls["decide"]]
    assert len(history) == record.ledger.step == len(proposals)
    legal = [p for p in proposals if isinstance(p, LEGAL[family])]
    assert len(legal) == len(proposals) - 2
    executed = [obs for _, obs in history if not isinstance(obs, (ControllerNotice, Terminal))]
    ended_by_policy = isinstance(history[-1][1], Terminal)
    assert counts == {
        "decide": record.ledger.step,
        "transform": len(legal),
        "execute": len(executed),
        "observe": record.ledger.step - ended_by_policy,
    }
    # The cross-family proposal costs its step and is answered by a notice,
    # which reaches observe; neither transform nor execute sees it.
    notice = ControllerNotice("unsupported_action", valid_count=0, remaining=spec.target_count)
    assert history[1] == (illegal, notice)
    assert calls["observe"][1][0][:2] == (illegal, notice)
    assert illegal not in [args[0] for args, _ in calls["transform"] + calls["execute"]]
    # The interventions the transforms returned are the record's, in order.
    returned = [iv for _, decision in calls["transform"] for iv in decision.interventions]
    assert returned == record.interventions
    assert record_to_dict(record)["intervention_count"] == len(returned)
