"""Deterministic, seed-driven fault injection (the chaos half of resilience).

A :class:`FaultPlan` names *injection points* — fixed places in the
runtime where the tolerance machinery can be made to face failure — and
assigns each a rule: a per-call failure probability (``p=``), a
fail-N-then-succeed count (``fail=``), an added latency
(``latency_ms=``), and/or a deterministic process kill (``crash=N``: the
N-th call at the point raises :class:`InjectedCrashError`, which no retry
layer catches — the run dies exactly like a real crash and only a
checkpoint resume continues it).  The :class:`FaultInjector` executes a
plan with one
seeded RNG stream *per point*, so a given (spec, seed) pair injects the
same fault schedule on every run — chaos tests are reproducible and a
failing seed can be replayed.

Fault-spec grammar (the ``repro-dml --inject-faults`` argument)::

    SPEC   := CLAUSE (';' CLAUSE)*
    CLAUSE := POINT ':' PARAM (',' PARAM)*
    PARAM  := 'p=' FLOAT | 'fail=' INT | 'latency_ms=' FLOAT | 'crash=' INT
    POINT  := one of KNOWN_POINTS, or '*' for all of them

Example: ``site.request:p=0.1;spill.write:fail=2,latency_ms=5``.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
import zlib
from typing import Callable, Dict, Optional

from repro.errors import InjectedCrashError, InjectedFaultError

#: Every injection point wired into the runtime.  Parsing rejects unknown
#: names so a typo in a chaos spec fails loudly instead of injecting nothing.
KNOWN_POINTS = (
    "site.request",   # federated site fetch/execute/metadata requests
    "rdd.task",       # one SimRDD per-partition task execution
    "rdd.cache_loss", # a cached SimRDD partition is lost (recompute via lineage)
    "spill.read",     # buffer-pool restore from a spill file
    "spill.write",    # buffer-pool eviction write to a spill file
    "serve.score",    # one scoring batch execution in the serving layer
    "serve.worker",   # a sharded-serving worker process (trip = SIGKILL mid-batch)
    "fed.worker",     # a transport federated site worker (trip = SIGKILL mid-request)
    "rdd.worker",     # a transport RDD task executor (trip = SIGKILL mid-task)
    "checkpoint.boundary",  # a loop/top-level block boundary of the interpreter
    # wire-level points, consulted by the chaos tcp transport per frame
    "net.drop",       # a frame vanishes (unsent REQ or discarded RES/ERR)
    "net.delay_ms",   # latency added before a frame hits the wire
    "net.dup",        # a REQ frame is delivered twice (dedup must absorb it)
    "net.corrupt",    # one bit of the encoded frame is flipped (CRCs reject)
    "net.partition",  # the link is severed mid-stream (reconnect + resend)
)


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """The fault behaviour of one injection point."""

    point: str
    probability: float = 0.0  # chance each call fails (seeded, per point)
    fail_first: int = 0       # the first N calls fail, then calls succeed
    latency_ms: float = 0.0   # added delay on every call (slow, not broken)
    crash_after: int = 0      # the N-th call raises InjectedCrashError (0 = never)

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known points: {', '.join(KNOWN_POINTS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.fail_first < 0:
            raise ValueError("fail= count must be >= 0")
        if self.latency_ms < 0:
            raise ValueError("latency_ms= must be >= 0")
        if self.crash_after < 0:
            raise ValueError("crash= count must be >= 0")


class FaultPlan:
    """A seeded set of per-point fault rules."""

    def __init__(self, rules, seed: int = 1234):
        self.rules: Dict[str, FaultRule] = {rule.point: rule for rule in rules}
        self.seed = int(seed)

    def __bool__(self) -> bool:
        return bool(self.rules)

    @classmethod
    def parse(cls, spec: str, seed: int = 1234) -> "FaultPlan":
        """Parse the fault-spec grammar (see module docstring)."""
        rules: Dict[str, FaultRule] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            point, sep, params = clause.partition(":")
            point = point.strip()
            if not sep or not params.strip():
                raise ValueError(
                    f"fault clause {clause!r} must be point:param[,param...]"
                )
            kwargs = {}
            for param in params.split(","):
                key, psep, value = param.partition("=")
                key = key.strip()
                if not psep:
                    raise ValueError(f"fault param {param!r} must be key=value")
                try:
                    if key in ("p", "prob", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "fail":
                        kwargs["fail_first"] = int(value)
                    elif key in ("latency", "latency_ms"):
                        kwargs["latency_ms"] = float(value)
                    elif key == "crash":
                        kwargs["crash_after"] = int(value)
                    else:
                        raise ValueError(
                            f"unknown fault param {key!r} "
                            f"(use p=, fail=, latency_ms=, crash=)"
                        )
                except (TypeError, ValueError) as exc:
                    if "unknown fault param" in str(exc):
                        raise
                    raise ValueError(f"bad value in fault param {param!r}") from exc
            points = KNOWN_POINTS if point == "*" else (point,)
            for name in points:
                rules[name] = FaultRule(point=name, **kwargs)
        if not rules:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(rules.values(), seed=seed)


class _PointState:
    """Mutable per-point injection state (own lock + own RNG stream)."""

    __slots__ = ("rule", "rng", "lock", "calls", "injected", "failed_so_far")

    def __init__(self, rule: FaultRule, seed: int):
        self.rule = rule
        # crc32 keys the stream by point *name*, so adding a point to a plan
        # never shifts the schedule of the others (Python's hash() is
        # randomised per process and would).
        self.rng = random.Random(seed ^ zlib.crc32(rule.point.encode()))
        self.lock = threading.Lock()
        self.calls = 0
        self.injected = 0
        self.failed_so_far = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` with deterministic per-point streams."""

    def __init__(self, plan: FaultPlan, stats=None,
                 sleep: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.stats = stats
        self._sleep = sleep
        self._states = {
            point: _PointState(rule, plan.seed)
            for point, rule in plan.rules.items()
        }

    def active(self, point: str) -> bool:
        """True when the plan has a rule for ``point`` (cheap pre-check)."""
        return point in self._states

    def trip(self, point: str) -> bool:
        """Decide (and record) whether this call at ``point`` fails.

        Applies the rule's latency either way; returns True when the call
        should fail without raising — used by loss-style points such as
        ``rdd.cache_loss`` where "failure" is an event, not an exception.

        A ``crash=N`` rule raises :class:`InjectedCrashError` on the N-th
        call instead of returning: the crash models the process dying, so
        it must escape every retry wrapper above this frame.
        """
        state = self._states.get(point)
        if state is None:
            return False
        rule = state.rule
        crash = False
        fail = False
        with state.lock:
            state.calls += 1
            if rule.crash_after and state.calls == rule.crash_after:
                crash = True
            elif state.failed_so_far < rule.fail_first:
                state.failed_so_far += 1
                fail = True
            elif rule.probability > 0.0:
                fail = state.rng.random() < rule.probability
            if fail or crash:
                state.injected += 1
        if rule.latency_ms > 0.0:
            self._sleep(rule.latency_ms / 1e3)
        if (fail or crash) and self.stats is not None:
            self.stats.record_injection(point)
        if crash:
            raise InjectedCrashError(point)
        return fail

    def fire(self, point: str) -> None:
        """Raise :class:`InjectedFaultError` when the rule trips."""
        if self.trip(point):
            raise InjectedFaultError(point)

    def snapshot(self) -> dict:
        """Per-point call and injection counts (deterministic given seed)."""
        result = {}
        for point, state in self._states.items():
            with state.lock:
                result[point] = {"calls": state.calls, "injected": state.injected}
        return result
