"""The worker transport end to end: dialable addresses, authenticated
sessions, severed links, reconnects, failed replays, and workers that do
not outlive their coordinator.

These tests spawn actual OS processes (spawn context), so they share one
module-scoped transport with a fast heartbeat and near-zero reconnect
backoff instead of paying a Python+numpy interpreter start per test.
"""

import functools
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

import repro

from repro.config import ReproConfig
from repro.errors import TransportError
from repro.net import frames, serde
from repro.net.chaos import ChaosTransport
from repro.net.proc import ProcTransport
from repro.net.worker import MAC_SIZE, NONCE_SIZE, sign
from repro.tensor import BasicTensorBlock
from repro.tensor import ops


@pytest.fixture(scope="module")
def transport():
    t = ProcTransport(site_workers=2, task_workers=1, heartbeat_s=0.1,
                     request_timeout_s=20.0, reconnect_backoff_ms=1.0,
                     reconnect_backoff_max_ms=5.0)
    yield t
    t.close()


@pytest.fixture
def registry(transport):
    reg = transport.registry()
    yield reg
    reg.clear()


def _host(registry, address, data, name="X"):
    site = registry.start_site(address)
    site.put(name, BasicTensorBlock.from_numpy(np.asarray(data, dtype=float)))
    return site


#: Heartbeat interval of the coordinator below (s).
ORPHAN_HEARTBEAT_S = 0.25

#: A coordinator that hosts one site on a worker, reports the worker's
#: pid, and then idles until it is killed.
COORDINATOR = f"""
import time
from repro.net.proc import ProcTransport

transport = ProcTransport(site_workers=1, task_workers=1,
                          heartbeat_s={ORPHAN_HEARTBEAT_S})
transport.registry().start_site("orphan:9001")
print(transport._pools["fed"][0].pid, flush=True)
time.sleep(600)
"""


def _exited(pid):
    """Whether ``pid`` is gone (or a zombie nobody has reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _sever(handle):
    """Cut the coordinator->worker link without touching the worker."""
    handle.sock.shutdown(socket.SHUT_RDWR)


class TestAddressRegistry:
    def test_workers_register_dialable_addresses(self, transport, registry):
        _host(registry, "tcp-a:9001", np.ones((2, 2)))
        owner = transport._owner("tcp-a:9001")
        host, port = transport._addresses[("fed", owner)]
        assert port > 0
        # the address book entry is genuinely dialable
        probe = socket.create_connection((host, port), timeout=5.0)
        probe.close()

    def test_snapshot_surfaces_the_address_book(self, transport, registry):
        _host(registry, "tcp-b:9001", np.ones((2, 2)))
        snap = transport.snapshot()
        assert snap["mode"] == "tcp"
        owner = transport._owner("tcp-b:9001")
        assert f"fed-{owner}" in snap["addresses"]
        host, port = snap["addresses"][f"fed-{owner}"].rsplit(":", 1)
        assert int(port) > 0

    def test_handles_carry_their_service_address(self, transport, registry):
        _host(registry, "tcp-c:9001", np.ones((2, 2)))
        owner = transport._owner("tcp-c:9001")
        handle = transport._pools["fed"][owner]
        assert (handle.host, handle.port) == transport._addresses[("fed", owner)]


def _idle_worker(transport, address):
    """A site worker whose coordinator session just ended, so the next
    connection to its address is the one its accept loop takes."""
    owner = transport._owner(address)
    handle = transport._pools["fed"][owner]
    _sever(handle)
    return handle


def _stray_request(host, port, marker, answer):
    """Connect like a stranger, send ``answer`` to the worker's challenge
    and then a REQ that would create ``marker``; return whether the worker
    hung up instead of answering."""
    evil = serde.dumps(("task", functools.partial(os.mkdir, str(marker))))
    with socket.create_connection((host, port), timeout=10.0) as stray:
        challenge = frames.recv_frame(stray)
        assert challenge.kind == frames.AUTH
        if answer is not None:
            frames.send_frame(stray, frames.AUTH, 0, answer(challenge.payload))
        try:
            frames.send_frame(stray, frames.REQ, 1, evil)
            reply = frames.recv_frame(stray)
        except (TransportError, OSError):
            return True
        return reply.kind not in (frames.RES, frames.ERR, frames.READY)


class TestAuthentication:
    @pytest.mark.parametrize("answer", [
        None,  # skip the challenge, go straight to REQ
        lambda nonce: bytes(MAC_SIZE) + os.urandom(NONCE_SIZE),
        lambda nonce: sign(os.urandom(32), b"coordinator", nonce)
        + os.urandom(NONCE_SIZE),  # signed with the wrong key
    ], ids=["no-answer", "zero-mac", "wrong-key"])
    def test_unauthenticated_request_never_executes(
        self, transport, registry, tmp_path, answer
    ):
        data = np.arange(4.0).reshape(2, 2)
        site = _host(registry, "tcp-auth:9001", data)
        handle = _idle_worker(transport, "tcp-auth:9001")
        marker = tmp_path / "pwned"
        assert _stray_request(handle.host, handle.port, marker, answer)
        assert not marker.exists()
        # the worker dropped the stranger and still serves its coordinator
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
        assert transport._pools["fed"][transport._owner(
            "tcp-auth:9001")].pid == handle.pid
        assert not marker.exists()

    def test_silent_stranger_cannot_hold_the_worker(self, transport, registry):
        data = np.ones((3, 3))
        site = _host(registry, "tcp-hold:9001", data)
        handle = _idle_worker(transport, "tcp-hold:9001")
        before = transport.snapshot()
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10.0):
            # the stranger never answers; the worker gives up on it after
            # its handshake timeout and accepts the coordinator's redial
            np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
        snap = transport.snapshot()
        assert snap["worker_respawns"] == before["worker_respawns"]

    def test_registration_skips_unsigned_connections(self, transport,
                                                     tmp_path):
        marker = tmp_path / "pwned"
        evil = serde.dumps(functools.partial(os.mkdir, str(marker)))
        genuine = serde.dumps({"pid": 1, "host": "127.0.0.1", "port": 2})
        with socket.socket() as boot:
            boot.bind(("127.0.0.1", 0))
            boot.listen(8)
            address = boot.getsockname()
            for payload in (evil, bytes(MAC_SIZE) + evil,
                            sign(transport._authkey, b"register", genuine)
                            + genuine):
                with socket.create_connection(address) as conn:
                    frames.send_frame(conn, frames.READY, 0, payload)
            hello = transport._registration(boot, "fed", 0)
        assert hello == {"pid": 1, "host": "127.0.0.1", "port": 2}
        assert not marker.exists()


class TestRoundTrips:
    def test_put_fetch_round_trip(self, registry):
        data = np.arange(12.0).reshape(3, 4)
        site = _host(registry, "tcp-d:9001", data)
        assert site.has("X")
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)

    def test_task_runs_in_another_process(self, transport):
        assert transport.run_task(lambda: [os.getpid()])[0] != os.getpid()

    def test_worker_side_exception_is_typed(self, transport):
        def explode():
            raise ValueError("boom over tcp")

        with pytest.raises(ValueError, match="boom over tcp"):
            transport.run_task(explode)


class TestLinkDownVsPeerDead:
    def test_severed_link_reconnects_without_respawn(self, transport, registry):
        data = np.arange(20.0).reshape(5, 4)
        site = _host(registry, "tcp-sever:9001", data)
        owner = transport._owner("tcp-sever:9001")
        handle = transport._pools["fed"][owner]
        pid_before = handle.pid
        before = transport.snapshot()
        _sever(handle)
        # the next call hits the dead link, redials, and resends — the
        # worker process (and its hosted state) is untouched
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
        snap = transport.snapshot()
        assert snap["reconnects"] > before["reconnects"]
        assert snap["worker_deaths"] == before["worker_deaths"]
        assert snap["worker_respawns"] == before["worker_respawns"]
        assert snap["replayed_publications"] == before["replayed_publications"]
        assert transport._pools["fed"][owner].pid == pid_before

    def test_mutation_across_severed_link_executes_exactly_once(
        self, transport, registry
    ):
        site = _host(registry, "tcp-once:9001", np.zeros((1, 1)))
        owner = transport._owner("tcp-once:9001")
        for __ in range(3):
            _sever(transport._pools["fed"][owner])
            site.execute_and_store(
                "X", "X", lambda b: ops.binary_scalar("+", b, 1.0)
            )
        # three increments through three severed links: exactly 3.0
        assert site.fetch("X").to_numpy()[0, 0] == 3.0

    def test_dead_peer_respawns_at_a_fresh_address_and_replays(
        self, transport, registry
    ):
        data = np.arange(6.0).reshape(2, 3)
        site = _host(registry, "tcp-kill:9001", data)
        site.execute_and_store(
            "X", "Y", lambda b: ops.binary_scalar("+", b, 1.0)
        )
        owner = transport._owner("tcp-kill:9001")
        handle = transport._pools["fed"][owner]
        pid_before, addr_before = handle.pid, (handle.host, handle.port)
        before = transport.snapshot()
        handle.kill()
        handle.process.join(timeout=10.0)
        np.testing.assert_array_equal(site.fetch("Y").to_numpy(), data + 1.0)
        snap = transport.snapshot()
        assert snap["worker_deaths"] == before["worker_deaths"] + 1
        assert snap["worker_respawns"] == before["worker_respawns"] + 1
        assert snap["replayed_publications"] >= before["replayed_publications"] + 3
        fresh = transport._pools["fed"][owner]
        assert fresh.pid != pid_before
        assert (fresh.host, fresh.port) != addr_before
        assert transport._addresses[("fed", owner)] == (fresh.host, fresh.port)


class TestFailedReplay:
    def test_failed_replay_kills_the_incarnation_and_retries(self, tmp_path):
        flag = str(tmp_path / "flag")
        with open(flag, "w") as handle:
            handle.write("ok")

        def load(state):
            # replayable only while the flag file exists
            with open(flag) as handle:
                state["value"] = handle.read()
            return state["value"]

        t = ProcTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                          request_timeout_s=20.0, reconnect_backoff_ms=1.0,
                          reconnect_backoff_max_ms=5.0)
        try:
            t.add_pool("job", 1)
            assert t.call("job", 0, ("call", load), log_key="load") == "ok"
            os.remove(flag)
            t._pools["job"][0].kill()
            # the respawn's replay fails worker-side: a transport error, not
            # the worker's FileNotFoundError, and no half-built incarnation
            with pytest.raises(TransportError, match="replay into job worker"):
                t.call("job", 0, ("call", lambda state: state["value"]))
            failed = t._pools["job"][0]
            assert failed.incarnation == 1
            assert not failed.alive()
            with open(flag, "w") as handle:
                handle.write("again")
            # the next request respawns and replays the log once more
            assert t.call("job", 0, ("call", lambda s: s["value"])) == "again"
            assert t.incarnation("job", 0) == 2
        finally:
            t.close()


class TestLifecycle:
    def test_bye_drains_workers_gracefully(self):
        t = ProcTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                         request_timeout_s=20.0)
        reg = t.registry()
        _host(reg, "tcp-drain:9001", np.ones((2, 2)))
        procs = [h.process for pool in t._pools.values()
                 for h in pool if h is not None]
        assert procs
        t.close()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
    def test_workers_exit_when_their_coordinator_dies(self, sig):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", COORDINATOR], env=env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            worker = int(coordinator.stdout.readline())
            assert not _exited(worker)
        finally:
            coordinator.send_signal(sig)
            coordinator.wait(timeout=30.0)
            coordinator.stdout.close()
        # no BYE ever comes: the worker notices it was re-parented after at
        # most one bounded accept wait and exits on its own
        deadline = time.monotonic() + 10 * ORPHAN_HEARTBEAT_S
        while not _exited(worker):
            assert time.monotonic() < deadline, \
                f"worker {worker} outlived its coordinator"
            time.sleep(0.02)

    def test_default_singleton_is_config_keyed(self):
        # a plain default() and a default-config default() must agree...
        a = ProcTransport.default()
        b = ProcTransport.default(ReproConfig(transport="tcp"))
        assert a is b
        # ...and the plain and chaos singletons never alias each other
        assert ChaosTransport.default() is not ProcTransport.default()
        # changed transport knobs rebuild the singleton
        c = ProcTransport.default(
            ReproConfig(transport="tcp", heartbeat_interval_s=0.11)
        )
        assert c is not b
        assert c.heartbeat_s == 0.11
        c.close()
        ChaosTransport.default().close()
