"""The sharded service on the worker transport: wire chaos and hygiene.

Serving batches ride :mod:`repro.net` frames, so a resilience plan naming
``net.*`` points must run the serve pool under the chaos transport and
still score exactly once, bit-identically.  ``stop()`` must leave nothing
behind — no child process, no transport socket, no shared-memory
segment — also after a worker was SIGKILLed and respawned.
"""

import os

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import TransportError, WorkerDiedError
from repro.io import shm as shm_mod
from repro.net.chaos import ChaosTransport
from repro.net.proc import ProcTransport
from repro.resilience.manager import ResilienceManager
from repro.serving import ModelRegistry, ShardedScoringService, shard_of

FEATURES = 6
SCRIPT = "yhat = X %*% B"
ROWS = 12


def _service(fault_spec=None, seed=5):
    rng = np.random.default_rng(8)
    registry = ModelRegistry()
    registry.register("lm", SCRIPT,
                      weights={"B": rng.standard_normal((FEATURES, 1))})
    resilience = None
    if fault_spec:
        resilience = ResilienceManager.from_config(
            ReproConfig(fault_spec=fault_spec, fault_seed=seed)
        )
    return registry, ShardedScoringService(registry, procs=2,
                                           resilience=resilience)


def _score_rows(service):
    # one row per call: every batch is a single row, so two runs compute
    # the exact same matmuls and can be compared bitwise
    x = np.random.default_rng(9).standard_normal((ROWS, FEATURES))
    return np.vstack([service.score("lm", x[i:i + 1], timeout=60.0)
                      for i in range(ROWS)])


class TestWireChaos:
    def test_scores_exactly_once_and_bitwise_under_dup_and_partition(self):
        registry, service = _service()
        try:
            with service:
                clean = _score_rows(service)
                assert type(service._transport) is ProcTransport
        finally:
            registry.close()
        registry, service = _service(
            "net.dup:p=0.3;net.partition:fail=3", seed=17
        )
        try:
            with service:
                chaos = _score_rows(service)
                assert type(service._transport) is ChaosTransport
                snap = service.snapshot()
        finally:
            registry.close()
        assert np.array_equal(chaos, clean)
        wire = snap["transport"]
        assert wire["mode"] == "chaos_tcp"
        assert wire["frames_duplicated"] > 0
        assert wire["dedup_hits"] > 0
        assert wire["partitions"] == 3
        assert wire["reconnects"] >= 3
        # link down is not peer dead: nothing died, nothing respawned
        assert wire["worker_deaths"] == 0
        assert wire["worker_respawns"] == 0
        assert sum(w["respawns"] for w in snap["workers"].values()) == 0

    def test_non_network_plan_keeps_the_plain_transport(self):
        registry, service = _service("serve.worker:fail=1")
        try:
            with service:
                assert type(service._transport) is ProcTransport
        finally:
            registry.close()


class TestUnrecoverableDeath:
    def test_failed_respawn_is_a_counted_worker_death(self):
        x = np.ones((1, FEATURES))
        registry, service = _service()
        try:
            with service:
                expected = service.score("lm", x, timeout=60.0)
                transport = service._transport
                shard = shard_of("lm", 2)
                spawn = transport._spawn

                def broken(*args, **kwargs):
                    raise TransportError("injected spawn failure")

                transport._spawn = broken
                transport._pools["serve"][shard].kill()
                # the transport cannot bring the shard back: the caller gets
                # a serving error, and the death is on the shard's record
                with pytest.raises(WorkerDiedError, match="not respawned"):
                    service.score("lm", x, timeout=60.0)
                stats = service.snapshot()["workers"][str(shard)]
                assert (stats["deaths"], stats["respawns"]) == (1, 0)
                # the next batch respawns, replays the registry, and scores
                transport._spawn = spawn
                assert np.array_equal(service.score("lm", x, timeout=60.0),
                                      expected)
                stats = service.snapshot()["workers"][str(shard)]
                assert (stats["deaths"], stats["respawns"]) == (2, 1)
        finally:
            registry.close()


def _children():
    """Pids whose parent is this process, the shm resource tracker aside."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    me = str(os.getpid())
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[1] == me and int(entry) != tracker:
            pids.add(int(entry))
    return pids


def _sockets():
    """Inodes of this process's open sockets."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            inodes.add(target)
    return inodes


def _segments():
    try:
        return {name for name in os.listdir(shm_mod.SHM_DIR)
                if name.startswith(shm_mod.SHM_PREFIX)}
    except OSError:
        return set()


class TestStopHygiene:
    def _assert_clean_after(self, fault_spec=None):
        children, sockets, segments = _children(), _sockets(), _segments()
        registry, service = _service(fault_spec)
        try:
            with service:
                _score_rows(service)
                snap = service.snapshot()
                published = set(service._store._owned)
                assert _children() - children  # the workers did run
        finally:
            registry.close()
        assert not _children() - children
        assert not _sockets() - sockets
        assert not _segments() - segments
        assert not published & _segments()
        return snap

    def test_stop_leaves_no_process_socket_or_segment(self):
        self._assert_clean_after()

    def test_stop_after_a_sigkill_and_respawn_leaves_nothing(self):
        snap = self._assert_clean_after("serve.worker:fail=1")
        assert sum(w["respawns"] for w in snap["workers"].values()) == 1
