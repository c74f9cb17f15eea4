"""Multi-process scoring: the sharded serving data plane.

:class:`ShardedScoringService` keeps the single-process front end — the
same ``submit``/``score`` admission path, bounded queue, deadlines,
per-tenant QoS, breakers, and load shedding — but executes batches in N
OS worker *processes*, so scoring escapes the GIL.  The processes are a
``serve`` pool of the one worker transport,
:class:`~repro.net.proc.ProcTransport`:

* at ``start()`` the parent publishes every registered model's weights
  into content-addressed shared memory (:mod:`repro.io.shm`) and sends
  each shard's worker one *logged* request: rebuild the model registry
  from these segment specs.  The worker attaches the segments zero-copy,
  checksum-verifies them, recompiles the scoring scripts locally, and
  answers with its attach counts;
* models route to shards by ``crc32(model) % shards`` (the
  :class:`~repro.serving.batcher.MicroBatcher`'s shard routing), and one
  parent dispatcher thread per shard forms batches with
  ``take(shard=...)`` and sends each as one transport round trip — one
  in-flight batch per worker;
* the transport owns every failure: heartbeats, a dropped link
  (reconnect + same-id resend answered from the worker's dedup cache),
  and a dead worker (respawn + replay of the logged registry request,
  which re-attaches the same shared segments, then a resend of the
  batch).  Scoring is deterministic and
  :class:`~repro.serving.service.ScoreFuture` is set-once, so no request
  observes a death;
* the ``serve.worker`` fault point SIGKILLs the worker right after a
  batch is sent, and a resilience plan naming ``net.*`` points runs the
  pool under :class:`~repro.net.chaos.ChaosTransport`'s wire faults.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.errors import (
    ServingError,
    TransportError,
    WorkerDiedError,
    WorkerRespawnError,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import QosController
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService


class _ShardModels:
    """A serve worker's model registry over the parent's shared weights."""

    def __init__(self, entries, config):
        from repro.io import shm as shm_mod

        # this worker shares the parent's resource tracker (spawn inherits
        # it); the parent's registration is the one that must survive
        shm_mod.UNTRACK_ON_ATTACH = False
        self.store = shm_mod.SharedWeightStore(scavenge=False)
        try:
            self.registry = ModelRegistry.from_shared(entries, self.store,
                                                      config)
        except BaseException:
            self.store.close(unlink=False)
            raise

    def attached(self) -> dict:
        """Shared segments this incarnation attached and checksum-verified."""
        shm = self.store.snapshot()
        return {"segments": shm["attached"], "verified": shm["verified"]}

    def close(self) -> None:
        self.registry.close()
        self.store.close(unlink=False)


# The serve worker's side of ("call", fn, *args) requests; ``state`` is the
# worker's state dict (see repro.net.worker).


def _load_models(state: dict, entries, config) -> dict:
    state["models"] = _ShardModels(entries, config)
    return state["models"].attached()


def _attached(state: dict) -> dict:
    return state["models"].attached()


def _score(state: dict, name: str, version, features: np.ndarray) -> np.ndarray:
    return state["models"].registry.get(name, version).score_batch(features)


class ShardedScoringService(ScoringService):
    """A :class:`ScoringService` whose batches execute in worker processes.

    ``procs`` is both the worker count and the shard count: every model
    lives on exactly one worker, so its per-process plan/reuse caches
    stay hot.  The admission path (queue bound, deadlines, QoS, shed
    watermark, breakers) is inherited unchanged — only batch execution
    crosses the process boundary.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        procs: int = 2,
        queue_limit: int = 256,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        batching: bool = True,
        default_timeout: Optional[float] = 30.0,
        metrics: Optional[ServingMetrics] = None,
        resilience=None,
        qos: Optional[QosController] = None,
        respawn_limit: int = 3,
    ):
        if procs < 1:
            raise ServingError("procs must be >= 1")
        super().__init__(
            registry, workers=1, queue_limit=queue_limit,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            batching=batching, default_timeout=default_timeout,
            metrics=metrics, resilience=resilience, qos=qos, shards=procs,
        )
        self.procs = procs
        self.respawn_limit = respawn_limit
        self._store = None
        self._transport = None

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardedScoringService":
        if self._started:
            return self
        from repro.io.shm import SharedWeightStore
        from repro.net.chaos import ChaosTransport, plan_targets_network
        from repro.net.proc import ProcTransport

        self._started = True
        self._stop.clear()
        self._store = SharedWeightStore()
        entries = self.registry.share_weights(self._store)
        # workers must not re-inject the parent's faults or share its spill
        # directory; everything else (lineage reuse, kernels) carries over
        worker_config = self.registry.config.copy(
            spill_dir=None, fault_spec=None, enable_resilience=False,
        )
        injector = getattr(self.resilience, "injector", None)
        cls = ChaosTransport if plan_targets_network(
            getattr(injector, "plan", None)) else ProcTransport
        self._transport = cls(
            respawn_limit=self.respawn_limit,
            **cls._params_from(self.registry.config),
        )
        self._transport.add_pool("serve", self.procs)
        self._transport.bind_resilience(self.resilience)
        load = ("call", _load_models, entries, worker_config)
        try:
            # spawn and load every shard at once: each one imports numpy
            # and compiles every model
            with ThreadPoolExecutor(max_workers=self.procs) as spawner:
                attached = list(spawner.map(
                    lambda shard: self._transport.call(
                        "serve", shard, load, log_key="models"),
                    range(self.procs),
                ))
        except BaseException:
            self.stop()
            raise
        for shard, counts in enumerate(attached):
            self.metrics.record_worker_attach(
                shard, counts["segments"], counts["verified"]
            )
        for shard in range(self.procs):
            dispatcher = threading.Thread(
                target=self._worker_loop, args=(shard,),
                name=f"shard-dispatch-{shard}", daemon=True,
            )
            dispatcher.start()
            self._workers.append(dispatcher)
        return self

    def stop(self) -> None:
        if not self._started:
            return
        super().stop()
        if self._transport is not None:
            self._transport.close()
        if self._store is not None:
            self._store.close(unlink=True)
            self._store = None

    # --- dispatch -----------------------------------------------------------

    def _score_batch(self, servable, stacked: np.ndarray, shard: int,
                     n_requests: int) -> np.ndarray:
        """One batch, one transport round trip; account worker deaths.

        Only this shard's dispatcher talks to its worker, so the change
        in the worker's incarnation across the call is exactly the number
        of respawns the batch went through.
        """
        transport = self._transport
        request = ("call", _score, servable.name, servable.version, stacked)
        before = transport.incarnation("serve", shard)
        try:
            scores = transport.call("serve", shard, request, "serve.worker")
            if transport.incarnation("serve", shard) != before:
                # the fresh incarnation re-attached the weights in replay
                counts = transport.call("serve", shard, ("call", _attached))
                self.metrics.record_worker_attach(
                    shard, counts["segments"], counts["verified"]
                )
        except WorkerRespawnError as exc:
            self.metrics.record_worker_death(shard)  # the one past the limit
            raise WorkerDiedError(
                f"worker {shard} died {exc.deaths} times executing one "
                f"batch (respawn_limit={self.respawn_limit})"
            ) from exc
        except TransportError as exc:
            # the worker died and could not be brought back (spawn or
            # replay failed, or the transport closed): the slot holds a
            # dead incarnation that the next batch respawns
            self.metrics.record_worker_death(shard)
            raise WorkerDiedError(
                f"worker {shard} died executing one batch and was not "
                f"respawned: {exc}"
            ) from exc
        finally:
            respawns = transport.incarnation("serve", shard) - before
            for __ in range(respawns):
                self.metrics.record_worker_death(shard)
                self.metrics.record_worker_respawn(shard, resent=n_requests)
        self.metrics.record_worker_batch(shard, n_requests)
        return scores

    # --- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        if self._store is not None:
            snap["shared_memory"] = self._store.snapshot()
        if self._transport is not None:
            snap["transport"] = self._transport.snapshot()
        if self.qos is not None:
            snap["qos"] = self.qos.snapshot()
        return snap
