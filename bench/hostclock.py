"""Wall time corrected for the speed of a shared host.

On a host shared with other tenants, the same Python work runs at speeds
that differ by up to two times, in phases that last from a second to
minutes. A median over one run cannot remove a phase that lasts the whole
run, so raw wall times of identical runs spread by a fifth or more.

``HostClock`` times a fixed reference chunk of pure standard-library work
before and after every timed unit. The chunk mixes what the engine spends
its time on: substring scans and sorting, a seeded resampling loop, JSON
encoding and decoding, and hashing. A unit's wall time is scaled by
``REFERENCE_S`` over the mean of the two chunk times around it, so a value
reads as the seconds the unit would take on a host that runs the chunk in
``REFERENCE_S``. The chunk never calls the engine, so an engine change moves
the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time

# Reference chunk time on an idle 2-vCPU host, Python 3.11.
REFERENCE_S = 0.035

_WORDS = ("tamarind", "umbrella", "handler", "value", "total", "guide", "options", "saffron")


class HostClock:
    """Times units of work and scales them by the reference chunk around each."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._blobs = [
            " ".join(rng.choice(_WORDS) + str(rng.randrange(1000)) for _ in range(30))
            for _ in range(1500)
        ]
        self._rows = [{"task_id": f"t{i}", "steps_used": i, "outcome": "success"} for i in range(1500)]
        self._bytes = bytes(range(256)) * 2048
        self.reference_s: list[float] = []
        self._last = self._chunk()

    def _chunk(self) -> float:
        # Collect the timed unit's garbage first, so it is not charged to the chunk.
        gc.collect()
        start = time.perf_counter()
        for token in ("tamarind1", "umbrella22", "saffron3", "guide", "value9"):
            sorted((-(token in blob), i) for i, blob in enumerate(self._blobs))
        rng = random.Random(1)
        diffs = [rng.choice((-1, 0, 1)) for _ in range(36)]
        total = 0
        for _ in range(1500):
            for _ in range(36):
                total += diffs[rng.randrange(36)]
        json.loads(json.dumps(self._rows))
        hashlib.sha256(self._bytes).hexdigest()
        seconds = time.perf_counter() - start
        self.reference_s.append(seconds)
        return seconds

    def time(self, fn, *args, **kwargs):
        """Call fn; returns (its result, scaled seconds)."""
        before = self._last
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self._last = self._chunk()
        return result, wall * REFERENCE_S / ((before + self._last) / 2)

    def reference_ms(self) -> float:
        """Median reference chunk time of this run, in milliseconds."""
        return statistics.median(self.reference_s) * 1000
