"""The ``serve_open`` workload: open-loop single-row scoring.

The model is the one of ``repro.serving.bench`` (linear scores over a
weights-only normaliser), served by ``ShardedScoringService`` with one
worker process per core, all on the coordinator's core (see
``workloads.pin_to_last_core``).  One generator thread sends requests
on a fixed schedule whatever the service does, so a stall delays every
later request: each latency is timed from when its request was *due*,
and how late the generator ran is reported beside it.  The schedule is a
Poisson process drawn from the seed, so arrivals cannot fall into step
with the batcher's 2 ms linger.

A run first holds the nominal rate, then searches for the highest rate
that meets the p99 limit: a bisection in log-rate between the nominal
rate and ``MAX_RATE``, one short fixed-rate probe per step.  Every
response is checked against the closed form ``x·B/√ΣB²``.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.config import ReproConfig
from repro.errors import ServingError
from repro.serving import service as service_mod
from repro.serving.bench import SCORING_SCRIPT
from repro.serving.registry import ModelRegistry
from repro.serving.workers import ShardedScoringService
from workloads import pin_to_last_core

MODEL = "lm-score"
FEATURES = 16
#: Distinct request rows; requests cycle through them.
ROWS = 4096
#: Requests per second of the nominal phase.  At 1000 req/s one batch's
#: linger plus round trip outlasted the gap between arrivals, so requests
#: queued behind every batch and a host running 20% slower (stolen CPU)
#: raised p50 by 40%; at 500 req/s the same slowdown raised it by ~20%.
NOMINAL_RATE = 500.0
#: p99 latency limit of the rate search (ms, timed from due).
P99_LIMIT_MS = 100.0
#: Upper end of the rate search (req/s); far above what one host serves.
MAX_RATE = 32000.0
#: Bisection steps of the rate search.
SEARCH_STEPS = 6
#: Absolute tolerance of a score vs the closed form.
ATOL = 1e-9
REQUEST_TIMEOUT_S = 20.0


class RateResult:
    """Outcome of one fixed-rate phase."""

    def __init__(self, rate: float, latencies: np.ndarray, lags: np.ndarray,
                 attempted: int, lost: int, wrong: int):
        self.rate = rate
        self.latencies = latencies
        self.lags = lags
        self.attempted = attempted
        #: Refused, timed-out or failed requests.
        self.lost = lost
        #: Responses that differ from the closed form.
        self.wrong = wrong

    def percentile_ms(self, q: float) -> float:
        if not len(self.latencies):
            return math.inf
        return float(np.percentile(self.latencies, q)) * 1e3

    def meets_limit(self) -> bool:
        """No lost or wrong request and p99 within the limit.

        A growing backlog shows as latencies that climb past the limit,
        because each latency counts from when the request was due.
        """
        return self.lost == 0 and self.wrong == 0 \
            and self.percentile_ms(99) <= P99_LIMIT_MS


class ServeOpen:
    """Setup, fixed-rate phases and the rate search (see module docstring)."""

    name = "serve_open"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.registry: Optional[ModelRegistry] = None
        self.service: Optional[ShardedScoringService] = None
        self._done_at = {}
        self._original_set_result = None
        self.cpus = None

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.arrivals = np.random.default_rng([self.seed, 1])
        weights = rng.standard_normal((FEATURES, 1))
        self.rows = rng.standard_normal((ROWS, FEATURES))
        self.expected = (self.rows @ weights)[:, 0] \
            / np.sqrt(np.sum(weights ** 2))
        config = ReproConfig(enable_lineage=True, reuse_policy="full",
                             spill_dir=os.path.join(self.workdir, "spill"))
        self.registry = ModelRegistry(config)
        self.registry.register(MODEL, SCORING_SCRIPT, weights={"B": weights})
        self._stamp_completions()
        self.service = ShardedScoringService(
            self.registry, procs=len(os.sched_getaffinity(0)),
            queue_limit=int(MAX_RATE * REQUEST_TIMEOUT_S),
            default_timeout=REQUEST_TIMEOUT_S,
        )
        self.cpus = pin_to_last_core()
        self.service.start()
        warm = self.run_rate(NOMINAL_RATE / 4, 0.25)
        if not warm.meets_limit():
            raise ServingError("warm-up requests failed or missed the limit")

    def _stamp_completions(self) -> None:
        """Record when each future completes (``ScoreFuture`` has slots)."""
        original = service_mod.ScoreFuture.set_result
        done_at = self._done_at

        def set_result(future, value):
            done_at[id(future)] = time.monotonic()
            original(future, value)

        self._original_set_result = original
        service_mod.ScoreFuture.set_result = set_result

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
        if self.registry is not None:
            self.registry.close()
        if self._original_set_result is not None:
            service_mod.ScoreFuture.set_result = self._original_set_result
            self._original_set_result = None
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_rate(self, rate: float, seconds: float) -> RateResult:
        """Send ``rate`` requests per second for ``seconds``; wait for all."""
        count = max(int(rate * seconds), 1)
        futures: List = []
        dues = np.empty(count)
        lags = np.empty(count)
        refused = 0
        origin = time.monotonic() + 0.005
        offsets = np.cumsum(self.arrivals.exponential(1.0 / rate, count))
        for i in range(count):
            due = origin + offsets[i]
            now = time.monotonic()
            if due > now:
                time.sleep(due - now)
            dues[i] = due
            lags[i] = time.monotonic() - due
            try:
                futures.append((i, self.service.submit(
                    MODEL, self.rows[i % ROWS], timeout=REQUEST_TIMEOUT_S)))
            except ServingError:
                refused += 1
        latencies = []
        lost, wrong = refused, 0
        for i, future in futures:
            try:
                score = future.result(REQUEST_TIMEOUT_S)
            except ServingError:
                lost += 1
                continue
            if abs(float(score[0, 0]) - self.expected[i % ROWS]) > ATOL:
                wrong += 1
                continue
            latencies.append(self._done_at.pop(id(future)) - dues[i])
        self._done_at.clear()
        return RateResult(rate, np.asarray(latencies), lags, count, lost, wrong)

    def search_max_rate(self, seconds_per_step: float
                        ) -> Tuple[float, List[RateResult]]:
        """Bisect log-rate between the nominal rate and ``MAX_RATE``.

        Returns the highest probed rate that met the limit (the nominal
        rate when none did) and every probe.
        """
        low, high = math.log(NOMINAL_RATE), math.log(MAX_RATE)
        probes = []
        for _ in range(SEARCH_STEPS):
            rate = math.exp((low + high) / 2)
            probe = self.run_rate(rate, seconds_per_step)
            probes.append(probe)
            if probe.meets_limit():
                low = math.log(rate)
            else:
                high = math.log(rate)
        return math.exp(low), probes
