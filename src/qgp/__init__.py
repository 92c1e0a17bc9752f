"""Verifier-audited evaluation engine for quantitative goal persistence.

A task asks a policy to deliver at least N verifier-accepted distinct work
units within a step budget. The engine generates task manifests over
repository snapshots and checker-backed backlogs, executes controller-mediated
runs, and computes persistence metrics and paired controller deltas.
"""

from .actions import (
    Action,
    AskUser,
    Candidate,
    ControllerNotice,
    Edit,
    Family,
    Final,
    Inspect,
    Malformed,
    Observation,
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
)
from .core import (
    PublicTaskView,
    RunLedger,
    RunRecord,
    TaskSpec,
    classify_termination,
    record_submission,
    reported_count_error,
    run_episode,
)
from .controllers import (
    AblationFlag,
    ControllerConfig,
    ControllerKind,
    Intervention,
    InterventionKind,
    StandardController,
    StateQgpController,
    UnitQgpController,
    VerifierGatedController,
    build_controller,
    gate_termination,
)
from .metrics import (
    PairedDelta,
    RunMetrics,
    aggregate,
    paired_bootstrap,
)
from .policies import PolicyKind, build_policy
from .verifier import IdVerdict, judge_ids

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
