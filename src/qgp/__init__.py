"""Verifier-audited evaluation engine for quantitative goal persistence.

A task asks a policy to deliver at least N verifier-accepted distinct work
units within a step budget. The engine generates task manifests over
repository snapshots and checker-backed backlogs, executes controller-mediated
runs, and computes persistence metrics and paired controller deltas.
"""

__version__ = "0.1.0"
