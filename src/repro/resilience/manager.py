"""The per-run resilience runtime: one handle the whole system shares.

``ExecutionContext.faults`` holds either ``None`` (the default — every
hot path stays on a single ``is None`` check, exactly like ``ctx.stats``)
or one :class:`ResilienceManager`.  The manager composes the pieces:

* the optional seeded :class:`FaultInjector` (``config.fault_spec``);
* the :class:`RetryPolicy` every tolerance layer uses;
* the shared :class:`ResilienceStats` surfaced as the obs ``resilience``
  section;
* the federated :class:`ResilientChannel`;
* per-key :class:`CircuitBreaker` instances for the serving layer.

Clock and sleep are injectable so the entire subsystem runs against a
fake monotonic clock in tests.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.channel import ResilientChannel
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.stats import ResilienceStats


class ResilienceManager:
    """Injector + policies + stats + channel + breakers for one run."""

    def __init__(
        self,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stats: Optional[ResilienceStats] = None,
        registry=None,
        federated_timeout_s: Optional[float] = 5.0,
        blacklist_after: int = 3,
        blacklist_cooldown_s: float = 30.0,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 10.0,
        seed: int = 1234,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ):
        self.stats = stats or ResilienceStats()
        self.injector = injector
        if injector is not None and injector.stats is None:
            injector.stats = self.stats
        self.retry_policy = retry_policy or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        #: Jitter stream; seeded so backoff schedules replay with the run.
        self.rng = random.Random(seed ^ 0x5DEECE66D)
        self.channel = ResilientChannel(
            policy=self.retry_policy,
            injector=injector,
            stats=self.stats,
            registry=registry,
            timeout_s=federated_timeout_s,
            blacklist_after=blacklist_after,
            blacklist_cooldown_s=blacklist_cooldown_s,
            clock=clock,
            sleep=sleep,
            rng=self.rng,
        )
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()

    @classmethod
    def from_config(cls, config) -> "ResilienceManager":
        """Build the run's manager from :class:`repro.config.ReproConfig`."""
        injector = None
        if config.fault_spec:
            injector = FaultInjector(
                FaultPlan.parse(config.fault_spec, seed=config.fault_seed)
            )
        return cls(
            injector=injector,
            retry_policy=RetryPolicy(
                max_retries=config.retry_budget,
                backoff_ms=config.retry_backoff_ms,
                max_backoff_ms=config.retry_backoff_max_ms,
            ),
            federated_timeout_s=config.federated_timeout_s,
            blacklist_after=config.blacklist_after,
            blacklist_cooldown_s=config.blacklist_cooldown_s,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown_s=config.breaker_cooldown_s,
            seed=config.fault_seed,
        )

    def bind_transport(self, transport) -> None:
        """Attach a :class:`repro.net.ProcTransport` to this run's resilience.

        Points the federated channel's blacklist/failover registry at the
        transport's (so breakers and failover work identically against
        site *proxies*) and hands the transport this manager for its
        ``fed.worker``/``rdd.worker`` SIGKILL points and death counters.
        """
        transport.bind_resilience(self)
        self.channel._registry = transport.registry()

    # --- injection shortcuts (no-ops without an injector) --------------------

    def active(self, point: str) -> bool:
        return self.injector is not None and self.injector.active(point)

    def trip(self, point: str) -> bool:
        return self.injector is not None and self.injector.trip(point)

    def fire(self, point: str) -> None:
        if self.injector is not None:
            self.injector.fire(point)

    # --- per-key circuit breakers (serving) -----------------------------------

    def breaker_for(self, key: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown_s=self._breaker_cooldown_s,
                    clock=self.clock,
                    on_transition=self.stats.record_transition,
                )
            return breaker

    # --- observability -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The obs ``resilience`` section: counters + points + breakers."""
        snap = self.stats.snapshot()
        if self.injector is not None:
            snap["points"] = self.injector.snapshot()
        with self._breaker_lock:
            if self._breakers:
                snap["breakers"] = {
                    key: breaker.snapshot()["state"]
                    for key, breaker in self._breakers.items()
                }
        return snap
