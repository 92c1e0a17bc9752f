"""Scripted policy behavior, determinism, and the external adapter protocol."""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import fields

import pytest

from qgp import policies
from qgp.actions import (
    ACTIONS,
    AskUser,
    ControllerNotice,
    Family,
    Final,
    Malformed,
    Outcome,
    Search,
    Submit,
)
from qgp.controllers import StandardController, StateQgpController, VerifierGatedController
from qgp.core import TaskSpec, objective_queries, run_episode
from qgp.errors import ConfigurationError
from qgp.policies import (
    MAX_REPLY_BYTES,
    POLICY_TYPES,
    DuplicatorPolicy,
    ExternalAdapterPolicy,
    FalseCompleterPolicy,
    GreedyOraclePolicy,
    NoSubmitLooperPolicy,
    PolicyKind,
    RedundantSearcherPolicy,
    SolverPolicy,
    build_policy,
)
from qgp.reposcan import ReposcanEnvironment

from synth import tiny_corpus


def _task(target=3, budget=30, objective="zeta : collect artifacts", task_id="p1"):
    return TaskSpec(
        task_id=task_id,
        family=Family.REPOSCAN,
        objective_text=objective,
        target_count=target,
        budget=budget,
        seed=5,
    )


def _run(policy, controller=None, target=3, budget=30, valid=3, total=10, objective=None):
    corpus = tiny_corpus(valid=valid, total=total)
    task = _task(target=target, budget=budget, objective=objective or "zeta : collect artifacts")
    env = ReposcanEnvironment(task, corpus, list(corpus.ids[:valid]))
    return run_episode(task, env, controller or StandardController(), policy)


class TestScriptedDeterminism:
    @pytest.mark.parametrize(
        "make_policy",
        [DuplicatorPolicy, GreedyOraclePolicy, RedundantSearcherPolicy, FalseCompleterPolicy],
    )
    def test_identical_runs_byte_for_byte(self, make_policy):
        transcripts = []
        for _ in range(2):
            record = _run(make_policy(), target=8, budget=20, valid=6, total=14)
            actions = [
                ACTIONS.encode(a) for a, _ in record.ledger.history if not isinstance(a, tuple)
                and type(a).__name__ != "Malformed"
            ]
            transcripts.append(json.dumps(actions, sort_keys=True))
        assert transcripts[0] == transcripts[1]


class TestDuplicator:
    def test_fixates_on_first_accepted(self):
        record = _run(DuplicatorPolicy(), target=10, budget=8, valid=3)
        actions = [a for a, _ in record.ledger.history]
        assert isinstance(actions[0], Search)
        assert isinstance(actions[1], Submit) and len(actions[1].ids) == 3
        first_accepted = None
        for _, obs in record.ledger.history:
            if hasattr(obs, "accepted") and obs.accepted:
                first_accepted = obs.accepted[0]
                break
        for action in actions[2:]:
            assert action == Submit(ids=(first_accepted,))

    def test_duplicate_rate_contrast(self):
        standard = _run(DuplicatorPolicy(), target=10, budget=12, valid=3)
        assert standard.ledger.duplicate_occurrences > 0
        gated = _run(DuplicatorPolicy(), StateQgpController(), target=10, budget=12, valid=3)
        assert gated.ledger.duplicate_occurrences == 0


class TestFalseCompleter:
    def test_claims_at_step_three(self):
        record = _run(FalseCompleterPolicy(), target=10, budget=20, valid=3)
        assert record.outcome == Outcome.FALSE_COMPLETION
        assert record.ledger.step == 3
        assert record.ledger.reported_count == 10

    def test_claim_count_override(self):
        record = _run(FalseCompleterPolicy(claim_count=7), target=10, budget=20)
        assert record.ledger.reported_count == 7


class TestGreedyOracle:
    def test_objective_queries_keep_two_letter_words(self):
        assert objective_queries("An IO bus a") == ["an", "io", "bus"]
        assert objective_queries("a : b") == ["artifact"]

    def test_token_schedule_and_ascending_pages(self):
        # Tokens are tried in objective order; each token's pages ascend until
        # an empty page, then the next token starts at page zero. Three
        # artifacts carry "zeta", the other seven only "plain"; all ten are
        # valid, so both tokens are needed.
        corpus = tiny_corpus(valid=3, total=10)
        task = _task(target=10, budget=30, objective="zeta plain : collect everything")
        env = ReposcanEnvironment(task, corpus, list(corpus.ids))
        record = run_episode(task, env, StandardController(), GreedyOraclePolicy())
        assert record.outcome == Outcome.SUCCESS
        searches = [a for a, _ in record.ledger.history if isinstance(a, Search)]
        assert [(s.query, s.page) for s in searches] == [
            ("zeta", 0),
            ("zeta", 1),
            ("plain", 0),
        ]

    def test_finals_only_when_remaining_zero(self):
        record = _run(GreedyOraclePolicy(), target=3, budget=30, valid=3)
        assert record.outcome == Outcome.SUCCESS
        # Auto-completion fires on the submission step; no Final was needed.
        assert not any(isinstance(a, Final) for a, _ in record.ledger.history)


class TestRedundantSearcher:
    def test_cycle_shape(self):
        record = _run(RedundantSearcherPolicy(), target=30, budget=9, valid=8, total=12)
        kinds = [type(a).__name__ for a, _ in record.ledger.history]
        assert kinds == ["Search", "Submit", "Submit", "Submit"] * 2 + ["Search"]

    def test_submit_width(self):
        record = _run(RedundantSearcherPolicy(submit_width=2), target=30, budget=3, valid=8, total=12)
        submits = [a for a, _ in record.ledger.history if isinstance(a, Submit)]
        assert all(len(s.ids) == 2 for s in submits)


class TestLooperAndSolver:
    def test_looper_never_submits(self, dataops_loaded):
        from qgp.dataops import DataopsEnvironment

        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(task.spec, env, StandardController(), NoSubmitLooperPolicy())
        finally:
            env.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        assert record.ledger.valid_count == 0
        assert not any(type(a).__name__ == "SubmitUnit" for a, _ in record.ledger.history)
        # The work itself happened: at least one unit reached passed status.
        assert any(
            getattr(obs, "status_after", None) is not None
            and obs.status_after.value == "passed"
            for _, obs in record.ledger.history
        )

    def test_solver_reports_its_count(self, dataops_loaded):
        from qgp.dataops import DataopsEnvironment

        task = dataops_loaded.tasks[0]
        env = DataopsEnvironment(task.spec, task.units, task.workspace)
        try:
            record = run_episode(task.spec, env, StandardController(), SolverPolicy())
        finally:
            env.close()
        assert record.outcome == Outcome.SUCCESS


class TestFactory:
    def test_build_all_kinds(self):
        assert isinstance(build_policy(PolicyKind.DUPLICATOR), DuplicatorPolicy)
        assert build_policy("early_stopper", stop_step=4).stop_step == 4
        assert build_policy("false_completer", claim_count=9).claim_count == 9
        assert build_policy("redundant_searcher", submit_width=5).submit_width == 5

    def test_external_requires_command(self):
        with pytest.raises(ConfigurationError):
            build_policy("external")

    @pytest.mark.parametrize("kind", [k for k in PolicyKind if k != PolicyKind.EXTERNAL])
    def test_a_parameter_left_out_takes_the_class_default(self, kind):
        assert build_policy(kind) == POLICY_TYPES[kind]()

    # A valid value for each table parameter, other than its class default.
    VALID_PARAMS = {
        "stop_step": 4,
        "final_step": 5,
        "claim_count": 9,
        "loop_unit": "u001",
        "submit_width": 5,
        "submits_per_search": 2,
        "command": ["python3", "-c", "pass"],
        "timeout": 5.0,
    }

    @pytest.mark.parametrize(
        "kind, name",
        [(kind, f.name) for kind, cls in POLICY_TYPES.items() for f in fields(cls) if f.init],
    )
    def test_each_table_parameter_sets_its_field(self, kind, name):
        cls = POLICY_TYPES[kind]
        value = self.VALID_PARAMS[name]
        assert {f.name: f.default for f in fields(cls)}[name] != value
        params = {"command": "python3"} if kind == PolicyKind.EXTERNAL else {}
        assert getattr(build_policy(kind, **params | {name: value}), name) == value


# ---------------------------------------------------------------------------
# External adapter
# ---------------------------------------------------------------------------


def _write_adapter(tmp_path, body: str) -> list[str]:
    script = tmp_path / "adapter.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


ECHO_ADAPTER = """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        last = req.get("last_observation") or {}
        if last.get("kind") == "controller_notice":
            resp = {"kind": "ask_user", "message": "saw notice"}
        elif last.get("kind") == "search_results":
            ids = [c["artifact_id"] for c in last["candidates"]]
            resp = {"kind": "submit", "ids": ids}
        elif req["step"] == 1:
            resp = {"kind": "search", "query": "zeta", "page": 0}
        else:
            resp = {"kind": "final", "completion_claim": True,
                    "reported_count": req["target_count"]}
        sys.stdout.write(json.dumps(resp) + "\\n")
        sys.stdout.flush()
"""


FAULT_PRELUDE = """\
import json, os, subprocess, sys, time
SEARCH = b'{"kind": "search", "query": "zeta", "page": 0}\\n'
FINAL = b'{"kind": "final", "completion_claim": true, "reported_count": 3}\\n'
ASK = b'{"kind": "ask_user", "message": "done"}\\n'
def send(data):
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
"""
# Lives while the adapter that started it does, holding the adapter's stdout.
# The adapter passes its pid: by the time this interpreter is up, the adapter
# may have exited and this process been re-parented.
HOLD_STDOUT = (
    "import os, sys, time\n"
    "while os.getppid() == int(sys.argv[1]):\n"
    "    time.sleep(0.05)\n"
)
# Where the `child-inherits-stdout` adapter writes its child's pid: beside itself.
HOLDER_PID_FILE = "holder.pid"
# One misbehaving adapter per row, run for one task of budget 4 under the
# standard controller: (adapter body after FAULT_PRELUDE, timeout, outcome,
# abort_reason, the proposal type of each step).
ADAPTER_FAULTS = {
    "reply-not-utf-8": (
        'for step, line in enumerate(sys.stdin):\n'
        '    send(SEARCH if step == 0 else b"\\xff\\n")\n',
        10.0,
        Outcome.BUDGET_EXHAUSTED,
        None,
        ["Search", "Malformed", "Malformed", "Malformed"],
    ),
    "reply-and-non-utf-8-line-in-one-write": (
        'for step, line in enumerate(sys.stdin):\n'
        '    send(SEARCH + b"\\xff\\n" if step == 0 else ASK)\n',
        10.0,
        Outcome.PREMATURE_STOP,
        None,
        ["Search", "Malformed", "AskUser"],
    ),
    # A reply ends at b"\n" alone: a b"\r\n" ending still parses, and a lone
    # b"\r" is part of the line.
    "crlf-ending-and-lone-cr": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 0:\n"
        '        send(SEARCH[:-1] + b"\\r\\n")\n'
        "    elif step == 1:\n"
        '        send(ASK[:-1] + b"\\r" + FINAL)\n'
        "    else:\n"
        "        send(ASK)\n",
        10.0,
        Outcome.PREMATURE_STOP,
        None,
        ["Search", "Malformed", "AskUser"],
    ),
    "partial-line-then-exit": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 0:\n"
        "        send(SEARCH)\n"
        "    else:\n"
        "        send(ASK[:10])\n"
        "        sys.exit(0)\n",
        10.0,
        Outcome.ABORTED,
        "adapter closed its output stream in the middle of a line",
        ["Search"],
    ),
    # The adapter reads the next request before it exits, so that write
    # cannot fail and only the reply can end the run.
    "exit-mid-run": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 0:\n"
        "        send(SEARCH)\n"
        "    else:\n"
        "        sys.exit(0)\n",
        10.0,
        Outcome.ABORTED,
        "adapter closed its output stream",
        ["Search"],
    ),
    "stdout-closed": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 0:\n"
        "        send(SEARCH)\n"
        "    else:\n"
        "        os.close(1)\n",
        10.0,
        Outcome.ABORTED,
        "adapter closed its output stream",
        ["Search"],
    ),
    # The reply to step 1 is sent only once step 2's request has arrived, so
    # it is late whatever the timing; applied to step 2 it would end the run
    # as a false completion.
    "late-reply-after-timeout": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 1:\n"
        "        send(FINAL)\n"
        "        send(ASK)\n",
        0.5,
        Outcome.PREMATURE_STOP,
        None,
        ["Malformed", "AskUser"],
    ),
    "stdin-closed-early": (
        "sys.stdin.readline()\n"
        "os.close(0)\n"
        "send(SEARCH)\n"
        "time.sleep(30)\n",
        10.0,
        Outcome.ABORTED,
        "adapter pipe closed: [Errno 32] Broken pipe",
        ["Search"],
    ),
    # The line cap counts the bytes before the newline: a reply of exactly
    # MAX_REPLY_BYTES parses, and one byte more is one malformed step whose
    # bytes are dropped up to its newline, so the reply that follows it in
    # the same write answers the next step.
    "reply-of-exactly-the-line-cap": (
        "for step, line in enumerate(sys.stdin):\n"
        f"    send(SEARCH[:-1].ljust({MAX_REPLY_BYTES}) + b'\\n' if step == 0 else ASK)\n",
        10.0,
        Outcome.PREMATURE_STOP,
        None,
        ["Search", "AskUser"],
    ),
    "over-long-reply-then-valid-reply": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 0:\n"
        f"        send(SEARCH[:-1].ljust({MAX_REPLY_BYTES + 1}) + b'\\n' + SEARCH)\n"
        "    else:\n"
        "        send(ASK)\n",
        10.0,
        Outcome.PREMATURE_STOP,
        None,
        ["Malformed", "Search", "AskUser"],
    ),
    # The late reply to step 1 is a 3 MiB line, sent once step 2's request has
    # arrived: it is dropped as owed, and step 2 gets the reply after it.
    "late-over-long-reply-after-timeout": (
        "for step, line in enumerate(sys.stdin):\n"
        "    if step == 1:\n"
        f"        send(b'x' * {3 * MAX_REPLY_BYTES} + b'\\n')\n"
        "        send(ASK)\n",
        0.5,
        Outcome.PREMATURE_STOP,
        None,
        ["Malformed", "AskUser"],
    ),
    "child-inherits-stdout": (
        f"holder = subprocess.Popen([sys.executable, '-c', {HOLD_STDOUT!r}, str(os.getpid())],\n"
        "                          stdin=subprocess.DEVNULL)\n"
        f"with open(os.path.join(os.path.dirname(__file__), {HOLDER_PID_FILE!r}), 'w') as fh:\n"
        "    fh.write(str(holder.pid))\n"
        "for step, line in enumerate(sys.stdin):\n"
        "    send(SEARCH if step == 0 else ASK)\n",
        10.0,
        Outcome.PREMATURE_STOP,
        None,
        ["Search", "AskUser"],
    ),
}
FAULT_ROW_SECONDS = 3.0


def _running(pid: int) -> bool:
    """Whether a process is running: not gone and, where /proc shows it, not
    a zombie that its new parent has not reaped."""
    if os.path.isdir("/proc/self"):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestExternalAdapter:
    def test_roundtrip_success(self, tmp_path):
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, ECHO_ADAPTER))
        try:
            corpus = tiny_corpus(valid=3)
            task = _task(target=3, budget=10)
            env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.SUCCESS
        assert record.ledger.step == 2

    def test_blocked_final_notice_reaches_adapter(self, tmp_path):
        # Target is unreachable; the adapter tries to final, gets blocked, and
        # proves it received the notice by switching to ask-user afterwards.
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, ECHO_ADAPTER))
        try:
            corpus = tiny_corpus(valid=3)
            task = _task(target=9, budget=6)
            env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
            record = run_episode(task, env, VerifierGatedController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        proposals = [a for a, _ in record.ledger.history]
        assert any(isinstance(a, Final) for a in proposals)
        assert any(isinstance(a, AskUser) for a in proposals)

    def test_final_without_claim_short_of_target_is_premature_stop(self, tmp_path):
        command = _write_adapter(
            tmp_path,
            """
            import sys
            for line in sys.stdin:
                sys.stdout.write('{"kind": "final", "completion_claim": false}\\n')
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command)
        try:
            record = _run(policy, target=3, budget=4)
        finally:
            policy.close()
        assert record.outcome == Outcome.PREMATURE_STOP
        assert record.ledger.step == 1 and record.ledger.valid_count == 0

    def test_request_bytes_are_pinned(self, tmp_path):
        # The adapter logs each request line as it arrives and asks the user,
        # which the gate turns into a notice, so the run reaches its last step.
        command = _write_adapter(
            tmp_path,
            """
            import os, sys
            log = os.path.join(os.path.dirname(__file__), "requests.jsonl")
            for line in sys.stdin.buffer:
                with open(log, "ab") as fh:
                    fh.write(line)
                sys.stdout.write('{"kind": "ask_user", "message": "?"}\\n')
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command)
        try:
            record = _run(policy, controller=VerifierGatedController(), target=3, budget=4)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        notice = (
            '{"kind": "controller_notice", "reason": "termination blocked: target not met, '
            '3 of 3 still required", "valid_count": 0, "remaining": 3}'
        )
        head = '{"task_id": "p1", "family": "reposcan", "objective": "zeta : collect artifacts", '
        head += '"target_count": 3, '
        requests = (tmp_path / "requests.jsonl").read_bytes().decode().splitlines()
        assert len(requests) == 4
        assert requests[0] == head + '"budget_remaining": 4, "step": 1, "last_observation": null}'
        assert requests[1] == (
            head
            + f'"budget_remaining": 3, "step": 2, "last_observation": {notice}}}'
        )
        assert requests[3] == (
            head
            + f'"budget_remaining": 1, "step": 4, "last_observation": {notice}}}'
        )

    def test_malformed_lines_consume_budget(self, tmp_path):
        command = _write_adapter(
            tmp_path,
            """
            import sys
            for line in sys.stdin:
                sys.stdout.write("this is not an action\\n")
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=4)
            env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        assert record.ledger.step == 4
        notices = [o for _, o in record.ledger.history if isinstance(o, ControllerNotice)]
        assert len(notices) == 4
        assert all(n.reason == "parse_error" for n in notices)

    def test_dead_adapter_aborts_run(self, tmp_path):
        command = _write_adapter(tmp_path, "import sys; sys.exit(3)\n")
        policy = ExternalAdapterPolicy(command=command)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=4)
            env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.ABORTED
        assert record.abort_reason.startswith("adapter")
        assert record.ledger.step == 0 and record.ledger.history == []
        assert record.ledger.submission_occurrences == 0 and not record.interventions

    @pytest.mark.parametrize("fault", sorted(ADAPTER_FAULTS))
    def test_fault_ends_in_its_named_outcome(self, tmp_path, fault):
        body, timeout, outcome, reason, steps = ADAPTER_FAULTS[fault]
        threads = threading.active_count()
        started = time.monotonic()
        policy = ExternalAdapterPolicy(
            command=_write_adapter(tmp_path, FAULT_PRELUDE + body), timeout=timeout
        )
        try:
            record = _run(policy, target=3, budget=4)
        finally:
            closing = time.monotonic()
            policy.close()
        ended = time.monotonic()
        assert (record.outcome, record.abort_reason) == (outcome, reason)
        assert [type(action).__name__ for action, _ in record.ledger.history] == steps
        assert record.ledger.step == len(steps)
        assert ended - closing < 1.0
        assert ended - started < FAULT_ROW_SECONDS
        assert threading.active_count() == threads
        if fault == "child-inherits-stdout":
            # The adapter's child sees its parent gone and exits.
            pid = int((tmp_path / HOLDER_PID_FILE).read_text())
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(pid)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("wait", ["pidfd", "no-pidfd-open", "pidfd-open-fails"])
    @pytest.mark.parametrize("sigterm", ["exits", "ignored"])
    def test_close_reaps_the_adapter_and_leaks_no_descriptor(
        self, tmp_path, monkeypatch, wait, sigterm
    ):
        ignore = "import signal\nsignal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        body = "sys.stdin.readline()\nsend(ASK)\ntime.sleep(30)\n"
        if sigterm == "ignored":
            body = ignore + body
        opened = []
        real_pidfd_open = os.pidfd_open

        def pidfd_open(pid, *args):
            opened.append(pid)
            if wait == "pidfd-open-fails":
                raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))
            return real_pidfd_open(pid, *args)

        if wait == "no-pidfd-open":
            monkeypatch.delattr(os, "pidfd_open")
        else:
            monkeypatch.setattr(os, "pidfd_open", pidfd_open)
        monkeypatch.setattr(policies, "_EXIT_WAIT_SECONDS", 0.3)
        descriptors = set(os.listdir("/proc/self/fd"))
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, FAULT_PRELUDE + body))
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        try:
            assert policy.decide(view, []) == AskUser(message="done")
            process = policy._process
        finally:
            closing = time.monotonic()
            policy.close()
        assert time.monotonic() - closing < 1.0
        assert set(os.listdir("/proc/self/fd")) == descriptors
        assert process.returncode == (-signal.SIGTERM if sigterm == "exits" else -signal.SIGKILL)
        assert opened == ([] if wait == "no-pidfd-open" else [process.pid])

    def test_sigterm_is_sent_while_stdin_is_open(self, tmp_path, monkeypatch):
        stdin_closed = []
        real_terminate = subprocess.Popen.terminate

        def terminate(process):
            stdin_closed.append(process.stdin.closed)
            real_terminate(process)

        monkeypatch.setattr(subprocess.Popen, "terminate", terminate)
        body = "for line in sys.stdin:\n    send(ASK)\n"
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, FAULT_PRELUDE + body))
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        try:
            assert policy.decide(view, []) == AskUser(message="done")
        finally:
            policy.close()
        assert stdin_closed == [False]

    def test_an_adapter_that_exits_at_end_of_input_is_stopped_by_sigterm(self, tmp_path):
        # Closing stdin first let this adapter exit 0 in about a third of its closes.
        body = "while sys.stdin.buffer.readline():\n    send(ASK)\nos._exit(0)\n"
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, FAULT_PRELUDE + body))
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        codes = []
        for _ in range(20):
            try:
                assert policy.decide(view, []) == AskUser(message="done")
                process = policy._process
            finally:
                policy.close()
            codes.append(process.returncode)
        assert codes == [-signal.SIGTERM] * 20

    def test_an_adapter_cleans_up_in_its_sigterm_handler(self, tmp_path):
        body = (
            "import signal\n"
            "marker = os.path.join(os.path.dirname(__file__), 'stopped')\n"
            "def stop(signum, frame):\n"
            "    open(marker, 'w').close()\n"
            "    sys.exit(0)\n"
            "signal.signal(signal.SIGTERM, stop)\n"
            "for line in sys.stdin:\n"
            "    send(ASK)\n"
        )
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, FAULT_PRELUDE + body))
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        marker = tmp_path / "stopped"
        for _ in range(5):
            try:
                assert policy.decide(view, []) == AskUser(message="done")
                process = policy._process
            finally:
                closing = time.monotonic()
                policy.close()
            assert time.monotonic() - closing < 1.0
            assert (process.returncode, marker.exists()) == (0, True)
            marker.unlink()

    def test_timeout_is_malformed_step(self, tmp_path):
        command = _write_adapter(
            tmp_path,
            """
            import sys, time
            for line in sys.stdin:
                time.sleep(5)
            """,
        )
        policy = ExternalAdapterPolicy(command=command, timeout=0.3)
        try:
            corpus = tiny_corpus()
            task = _task(target=3, budget=1)
            env = ReposcanEnvironment(task, corpus, list(corpus.ids[:3]))
            record = run_episode(task, env, StandardController(), policy)
        finally:
            policy.close()
        assert record.outcome == Outcome.BUDGET_EXHAUSTED
        notices = [o for _, o in record.ledger.history if isinstance(o, ControllerNotice)]
        assert len(notices) == 1

    def test_late_reply_never_reaches_a_later_step(self, tmp_path):
        # The reply to step 1 arrives after its timeout; step 2 must get its
        # own reply, not the stale one.
        command = _write_adapter(
            tmp_path,
            """
            import json, sys, time
            for line in sys.stdin:
                step = json.loads(line)["step"]
                if step == 1:
                    time.sleep(0.6)
                reply = {"kind": "ask_user", "message": f"reply-to-step-{step}"}
                sys.stdout.write(json.dumps(reply) + "\\n")
                sys.stdout.flush()
            """,
        )
        policy = ExternalAdapterPolicy(command=command, timeout=0.3)
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        try:
            first = policy.decide(view, [])
            assert isinstance(first, Malformed) and first.reason == "adapter_timeout"
            notice = ControllerNotice(reason="parse_error", valid_count=0, remaining=3)
            policy.timeout = 5.0
            second = policy.decide(view, [(first, notice)])
        finally:
            policy.close()
        assert second == AskUser(message="reply-to-step-2")

    def test_a_malformed_step_is_answered_with_its_own_reason(self, tmp_path):
        # The adapter logs each request; it answers the first with a line over
        # the cap and no later one, so steps 2 and 3 time out.
        body = (
            'log = os.path.join(os.path.dirname(__file__), "requests.jsonl")\n'
            "for step, line in enumerate(sys.stdin.buffer):\n"
            '    with open(log, "ab") as fh:\n'
            "        fh.write(line)\n"
            "    if step == 0:\n"
            f"        send(b'x' * {MAX_REPLY_BYTES + 1} + b'\\n')\n"
        )
        command = _write_adapter(tmp_path, FAULT_PRELUDE + body)
        policy = ExternalAdapterPolicy(command=command, timeout=0.3)
        try:
            record = _run(policy, target=3, budget=3)
        finally:
            policy.close()
        reasons = ["reply_too_long", "adapter_timeout", "adapter_timeout"]
        assert [(type(p), o.reason) for p, o in record.ledger.history] == [
            (Malformed, reason) for reason in reasons
        ]
        assert [p.reason for p, _ in record.ledger.history] == reasons
        requests = (tmp_path / "requests.jsonl").read_bytes().decode().splitlines()
        seen = [json.loads(line)["last_observation"] for line in requests]
        assert seen[0] is None
        assert [(o["kind"], o["reason"]) for o in seen[1:]] == [
            ("controller_notice", "reply_too_long"),
            ("controller_notice", "adapter_timeout"),
        ]

    def test_over_long_reply_is_read_within_the_line_cap(self, tmp_path, monkeypatch):
        # 5 MiB with no newline, then a valid reply in the same write.
        body = f"sys.stdin.readline()\nsend(b'x' * {5 * MAX_REPLY_BYTES} + b'\\n' + ASK)\n"
        policy = ExternalAdapterPolicy(command=_write_adapter(tmp_path, FAULT_PRELUDE + body))
        held = []
        real_read = os.read

        def read(fd, size):
            if policy._process is not None and fd == policy._process.stdout.fileno():
                held.append(len(policy._buffer))
            return real_read(fd, size)

        monkeypatch.setattr(os, "read", read)
        view = ReposcanEnvironment(_task(), tiny_corpus(), []).public_view()
        try:
            first = policy.decide(view, [])
            notice = ControllerNotice(reason="parse_error", valid_count=0, remaining=3)
            second = policy.decide(view, [(first, notice)])
        finally:
            policy.close()
        assert first == Malformed(raw="", reason="reply_too_long")
        assert second == AskUser(message="done")
        # Every read starts with at most the cap held, and the flood was read in full.
        assert max(held) <= MAX_REPLY_BYTES
        assert len(held) >= 5 * MAX_REPLY_BYTES // 65536
