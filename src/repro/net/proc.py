"""ProcTransport: federated sites, RDD executors and scoring shards as
real OS processes on dialable TCP addresses.

This is the one worker pool of the system.  The coordinator keeps small
fixed pools of spawn-context workers by role — site hosts (federated
data plane), task executors (RDD tasks), and any pool a caller adds
(:meth:`ProcTransport.add_pool`; sharded serving adds one ``serve``
worker per shard) — and talks to each over a TCP socket speaking the
:mod:`repro.net.frames` protocol.  Pools are deliberately small and
shared: a qa fuzz sweep hosts hundreds of site addresses, so addresses
hash onto site workers by ``crc32(address) % n`` instead of mapping one
process per address.

Worker lifecycle
----------------
* **Spawn + register** — each worker *listens* on its own ``host:port``
  (loopback by default, a LAN address via ``transport_host``) and
  registers that address through a one-shot bootstrap connection.  The
  coordinator keeps the **address book** (``(role, index) -> (host,
  port)``, surfaced in the stats snapshot).
* **Dial + READY** — the coordinator dials the worker with a connect
  timeout, answers the worker's HMAC challenge under the transport's
  random key (:mod:`repro.net.worker`: nothing unauthenticated is ever
  unpickled, on either side), and checks the pid in its signed READY
  greeting, so a half-open or recycled port is never mistaken for the
  right peer.
* **Heartbeat** — workers heartbeat on their socket; while awaiting a
  response the coordinator counts silent grace windows
  (``heartbeats_missed``) and probes the process.
* **Link down vs peer dead** — the two failures the coordinator must
  tell apart:

  ==============  =======================================================
  link down       process alive, connection severed (EOF, torn frame):
                  redial with :class:`~repro.resilience.retry.RetryPolicy`
                  capped-expo backoff + jitter, then resend the in-flight
                  request with the SAME id — if the worker executed it
                  during the partition, its dedup cache answers
                  STATUS_REPLAY, so the request never executes twice
  peer dead       process gone, redial budget exhausted, or a different
                  pid answered: SIGKILL + reap whatever is left, spawn a
                  fresh incarnation at a fresh address, replay the
                  publication log, then resend with the SAME id
  ==============  =======================================================

* **Replay** — the coordinator keeps a per-worker *publication log*
  (every site ``put``, ``update``, ``execute_and_store``,
  ``stop``/``start``, and any request a caller sends with a ``log_key``,
  in order) and replays it into a fresh incarnation — lineage-style
  recovery: the ops are deterministic, so the republished state is
  bit-identical.  Task executors log nothing and respawn bare.  A
  replay that fails leaves the fresh incarnation killed in its slot, so
  the next request respawns and replays again.
* **Lost ACK** — a request that gets no response within the request
  timeout is resent once with the same id; the dedup cache replays the
  recorded response if the worker had executed it.
* **Chaos** — with a resilience manager bound, the fault point a request
  names (``fed.worker``, ``rdd.worker``, ``serve.worker``) SIGKILLs the
  worker right after the request is sent, exercising exactly the
  peer-dead path on a seeded schedule.
* **Exit** — BYE drains a worker; a worker whose coordinator died
  without BYE exits on its own (:func:`repro.net.worker.worker_main`).

:meth:`ProcTransport.default` keeps a process-global instance so
repeated runs — the qa lattice, benches — reuse warm workers instead of
paying a Python+numpy spawn per run.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import random
import secrets
import signal
import socket
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    FederatedError,
    FrameProtocolError,
    TransportClosedError,
    TransportError,
    WorkerRespawnError,
)
from repro.federated.site import FederatedWorkerRegistry
from repro.net import frames, serde
from repro.net.transport import STAT_KEYS
from repro.net.worker import (
    AUTH_TIMEOUT_S,
    MAC_SIZE,
    NONCE_SIZE,
    STATUS_REPLAY,
    sign,
    verified,
    worker_main,
)
from repro.resilience.retry import RetryPolicy

#: How long one worker gets to spawn, import, and register its address.
READY_TIMEOUT_S = 60.0


class _Handle:
    """One worker incarnation: process, its session socket, its address."""

    __slots__ = ("role", "index", "incarnation", "process", "sock", "pid",
                 "host", "port")

    def __init__(self, role: str, index: int, incarnation: int, process,
                 sock: socket.socket, pid: int, host: str, port: int):
        self.role = role
        self.index = index
        self.incarnation = incarnation
        self.process = process
        self.sock = sock
        self.pid = pid
        self.host = host
        self.port = port

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        if self.alive():
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced the death
                pass


class RemoteSiteProxy:
    """The :class:`~repro.federated.site.FederatedSite` surface over RPC.

    Federated instructions and the resilient channel only see this
    surface, so the push-down semantics, privacy checks, and byte
    accounting all run *worker-side*, unchanged.  Mutating calls are
    recorded in the transport's publication log after they succeed.
    """

    def __init__(self, transport: "ProcTransport", address: str):
        self._transport = transport
        self.address = address

    def _call(self, method: str, *args, mutate: bool = False, **kwargs):
        return self._transport.site_call(
            self.address, method, args, kwargs, mutate=mutate
        )

    # hosting / reads
    def put(self, name, block, constraint=None) -> None:
        self._call("put", name, block, constraint, mutate=True)

    def has(self, name) -> bool:
        return self._call("has", name)

    def constraint(self, name):
        return self._call("constraint", name)

    def metadata(self, name):
        return self._call("metadata", name)

    def fetch(self, name):
        return self._call("fetch", name)

    # execution
    def execute_local(self, name, operation, payload_bytes=0, flops=0):
        return self._call("execute_local", name, operation, payload_bytes, flops)

    def execute_and_return(self, name, operation, payload_bytes=0, flops=0):
        return self._call(
            "execute_and_return", name, operation, payload_bytes, flops
        )

    def execute_and_store(self, name, out, operation, payload_bytes=0, flops=0):
        return self._call(
            "execute_and_store", name, out, operation, payload_bytes, flops,
            mutate=True,
        )

    def update(self, name, block) -> None:
        self._call("update", name, block, mutate=True)

    # lifecycle (logged so a respawned incarnation lands in the same state)
    def stop(self) -> None:
        self._call("stop", mutate=True)

    def start(self) -> None:
        self._call("start", mutate=True)

    @property
    def is_down(self) -> bool:
        return self._call("get_is_down")

    @property
    def metrics(self) -> dict:
        """A fresh snapshot of the worker-side site's transfer accounting."""
        return self._call("get_metrics")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteSiteProxy({self.address})"


class ProxyRegistry(FederatedWorkerRegistry):
    """An address book of :class:`RemoteSiteProxy` objects.

    Subclasses the in-process registry so the coordinator-side health
    machinery — blacklists, cooldowns, replica chains, used verbatim by
    :class:`~repro.resilience.channel.ResilientChannel` — is inherited
    unchanged; only site creation/lookup crosses the process boundary.
    """

    def __init__(self, transport: "ProcTransport"):
        super().__init__()
        self._transport = transport

    def start_site(self, address: str) -> RemoteSiteProxy:
        with self._lock:
            proxy = self._sites.get(address)
        if proxy is not None:
            return proxy
        self._transport.registry_call(address, "start_site")
        with self._lock:
            proxy = self._sites.get(address)
            if proxy is None:
                proxy = self._sites[address] = RemoteSiteProxy(
                    self._transport, address
                )
        return proxy

    def site(self, address: str) -> RemoteSiteProxy:
        with self._lock:
            proxy = self._sites.get(address)
        if proxy is None:
            raise FederatedError(f"no federated worker at {address!r}")
        return proxy

    def stop_site(self, address: str) -> None:
        self._transport.registry_call(address, "stop_site", log=False)
        self._transport.forget_address(address)
        with self._lock:
            self._sites.pop(address, None)

    def clear(self) -> None:
        self._transport.clear_sites()
        super().clear()

    def total_bytes_transferred(self) -> int:
        with self._lock:
            proxies = list(self._sites.values())
        return sum(
            proxy.metrics["bytes_sent"] + proxy.metrics["bytes_received"]
            for proxy in proxies
        )


class ProcTransport:
    """The worker-process transport (see module docstring)."""

    name = "tcp"

    _instance: Optional["ProcTransport"] = None
    _instance_lock = threading.Lock()

    #: Ceiling on link repairs for ONE attempt, so a link that dies
    #: instantly every time cannot spin forever (each repair already
    #: burned a full reconnect budget).
    MAX_LINK_REPAIRS = 8

    def __init__(self, site_workers: int = 2, task_workers: int = 2,
                 heartbeat_s: float = 0.25, request_timeout_s: float = 60.0,
                 respawn_limit: int = 3, miss_grace: float = 3.0,
                 host: str = "127.0.0.1", connect_timeout_s: float = 5.0,
                 reconnect_retries: int = 4,
                 reconnect_backoff_ms: float = 20.0,
                 reconnect_backoff_max_ms: float = 500.0):
        if site_workers < 1 or task_workers < 1:
            raise TransportError("transport needs at least one worker per pool")
        if heartbeat_s <= 0 or miss_grace < 1.0:
            raise TransportError(
                "heartbeat interval must be positive and the miss grace "
                "at least one heartbeat window"
            )
        import multiprocessing

        self._mp = multiprocessing.get_context("spawn")
        #: Session key shared with the workers through the spawn pipe.
        self._authkey = secrets.token_bytes(32)
        self.heartbeat_s = heartbeat_s
        self.request_timeout_s = request_timeout_s
        self.respawn_limit = respawn_limit
        #: Silent grace windows (multiples of the heartbeat interval)
        #: before a missed heartbeat is counted and the process probed.
        self.miss_grace = miss_grace
        self.host = host
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_policy = RetryPolicy(
            max_retries=reconnect_retries,
            backoff_ms=reconnect_backoff_ms,
            max_backoff_ms=reconnect_backoff_max_ms,
        )
        # deterministic jitter stream for reconnect backoff
        self._reconnect_rng = random.Random(0x7C9D1EB3)
        self._pools: Dict[str, List[Optional[_Handle]]] = {}
        self._slot_locks: Dict[str, List[threading.RLock]] = {}
        self.add_pool("fed", site_workers)
        self.add_pool("rdd", task_workers)
        self._seq = itertools.count(1)
        self._seq_lock = threading.Lock()
        self._task_rr = itertools.count()
        self._stats = {key: 0 for key in STAT_KEYS}
        self._stats_lock = threading.Lock()
        #: (role, index) -> log key -> ordered requests to replay into a
        #: respawn of that worker (site workers key by address).
        self._log: Dict[Tuple[str, int], Dict[str, List[Tuple]]] = {}
        self._log_lock = threading.RLock()
        #: The remote-addressable registry: (role, index) -> (host, port).
        self._addresses: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._addresses_lock = threading.Lock()
        self._registry = ProxyRegistry(self)
        self._resilience = None
        self._closed = False

    @classmethod
    def _params_from(cls, config) -> dict:
        """Constructor kwargs derived from a :class:`ReproConfig`.

        ``config=None`` resolves through a default config so a bare
        ``default()`` and a ``default(ReproConfig())`` agree on the same
        singleton instead of churning it.  Knobs the config does not
        carry (miss grace, connect timeout, reconnect retries) keep the
        constructor defaults.
        """
        if config is None:
            from repro.config import ReproConfig
            config = ReproConfig()
        return {
            "heartbeat_s": config.heartbeat_interval_s,
            "request_timeout_s": config.transport_request_timeout_s,
            "host": config.transport_host,
        }

    @classmethod
    def default(cls, config=None) -> "ProcTransport":
        """The process-global transport for this class (created on first
        use, recreated only when the config-derived knobs change)."""
        params = cls._params_from(config)
        with cls._instance_lock:
            instance = cls.__dict__.get("_instance")
            stale = (
                instance is None or instance._closed
                or getattr(instance, "_build_params", None) != params
            )
            if stale:
                if instance is not None and not instance._closed:
                    instance.close()
                instance = cls(**params)
                instance._build_params = params
                atexit.register(instance.close)
                cls._instance = instance
            return instance

    # --- runtime interface ---------------------------------------------------

    def registry(self) -> ProxyRegistry:
        """The registry of site proxies this transport hosts sites in."""
        return self._registry

    def run_task(self, task) -> List:
        """Execute one RDD per-partition task and return its records."""
        index = next(self._task_rr) % len(self._pools["rdd"])
        return self.call("rdd", index, ("task", task), "rdd.worker")

    def bind_resilience(self, resilience) -> None:
        """Attach the run's :class:`~repro.resilience.ResilienceManager`.

        Gives the transport the fault injector (for the ``fed.worker`` /
        ``rdd.worker`` SIGKILL points) and the shared stats so worker
        deaths/respawns are counted in the resilience section too.
        """
        self._resilience = resilience

    def snapshot(self) -> dict:
        """The obs ``transport`` section (stable keys: ``STAT_KEYS``)."""
        with self._stats_lock:
            snap = dict(self._stats)
        snap["mode"] = self.name
        snap["site_workers"] = len(self._pools["fed"])
        snap["task_workers"] = len(self._pools["rdd"])
        snap["live_workers"] = sum(
            1 for pool in self._pools.values()
            for handle in pool if handle is not None and handle.alive()
        )
        with self._addresses_lock:
            snap["addresses"] = {
                f"{role}-{index}": f"{host}:{port}"
                for (role, index), (host, port) in sorted(self._addresses.items())
            }
        return snap

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        handles = [handle for pool in self._pools.values()
                   for handle in pool if handle is not None]
        for pool in self._pools.values():
            pool[:] = [None] * len(pool)
        # drain every worker first, then wait for them all at once
        for handle in handles:
            try:
                frames.send_frame(handle.sock, frames.BYE, 0)
            except (OSError, TransportError):
                pass
            try:
                handle.sock.close()
            except OSError:  # pragma: no cover
                pass
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.alive():  # pragma: no cover - wedged worker
                handle.kill()
                handle.process.join(timeout=2.0)

    # --- request plumbing ----------------------------------------------------

    def add_pool(self, role: str, workers: int) -> None:
        """Add a pool of ``workers`` lazily spawned workers under ``role``."""
        if workers < 1 or role in self._pools:
            raise TransportError(f"cannot add a {workers}-worker {role!r} pool")
        self._pools[role] = [None] * workers
        self._slot_locks[role] = [threading.RLock() for __ in range(workers)]

    def call(self, role: str, index: int, request: Tuple,
             point: Optional[str] = None, log_key: Optional[str] = None):
        """One request to worker ``index`` of ``role``'s pool.

        ``point`` names the fault point whose trip SIGKILLs the worker
        mid-request.  A request sent with a ``log_key`` is appended to
        the worker's publication log once it succeeds, so every later
        incarnation of the worker receives it again before anything else.
        """
        result = self._round_trip(role, index, request, point)
        if log_key is not None:
            with self._log_lock:
                self._log.setdefault((role, index), {}).setdefault(
                    log_key, []).append(request)
        return result

    def incarnation(self, role: str, index: int) -> int:
        """Respawns so far of worker ``index`` of ``role`` (-1: unspawned)."""
        handle = self._pools[role][index]
        return -1 if handle is None else handle.incarnation

    def site_call(self, address: str, method: str, args: Tuple = (),
                  kwargs: Optional[dict] = None, mutate: bool = False):
        """One RPC to the worker hosting ``address``; log mutations."""
        request = ("site", address, method, args, kwargs or {})
        return self.call("fed", self._owner(address), request, "fed.worker",
                         address if mutate else None)

    def registry_call(self, address: str, method: str, log: bool = True) -> None:
        """A registry-level RPC (site creation/removal) for one address."""
        self.call("fed", self._owner(address), ("reg", method, (address,)),
                  "fed.worker", address if log else None)

    def forget_address(self, address: str) -> None:
        with self._log_lock:
            self._log.get(("fed", self._owner(address)), {}).pop(address, None)

    def clear_sites(self) -> None:
        """Wipe hosted state on every live site worker and drop its log."""
        with self._log_lock:
            for index in range(len(self._pools["fed"])):
                self._log.pop(("fed", index), None)
        for index, handle in enumerate(self._pools["fed"]):
            if handle is None:
                continue
            try:
                self._round_trip("fed", index, ("reg", "clear", ()), None)
            except (TransportError, OSError):  # pragma: no cover - dying pool
                pass

    def _owner(self, address: str) -> int:
        return zlib.crc32(address.encode()) % len(self._pools["fed"])

    def _next_id(self) -> int:
        with self._seq_lock:
            return next(self._seq)

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount

    def _bump_shared(self, key: str) -> None:
        """Count a lifecycle event here and in the bound resilience stats."""
        self._bump(key)
        if self._resilience is not None:
            self._resilience.stats.incr(key)

    # --- worker lifecycle ----------------------------------------------------

    def _dial(self, host: str, port: int) -> Tuple[socket.socket, int]:
        """Connect to a worker's service address and read its greeting.

        Returns ``(socket, pid)``.  The handshake is what detects
        half-open connections and strangers: a listener that accepts but
        whose process is wedged, or a recycled port owned by anyone
        without the transport key, fails the AUTH/READY exchange within
        ``connect_timeout_s`` instead of wedging the coordinator, and its
        greeting is never unpickled.
        """
        sock = socket.create_connection(
            (host, port), timeout=self.connect_timeout_s
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.connect_timeout_s)
            challenge = frames.recv_frame(sock)
            if challenge.kind != frames.AUTH \
                    or len(challenge.payload) != NONCE_SIZE:
                raise FrameProtocolError(
                    f"worker at {host}:{port}: expected an AUTH challenge, "
                    f"got kind {challenge.kind}"
                )
            nonce = secrets.token_bytes(NONCE_SIZE)
            frames.send_frame(
                sock, frames.AUTH, 0,
                sign(self._authkey, b"coordinator", challenge.payload) + nonce,
            )
            greeting = frames.recv_frame(sock)
            if greeting.kind != frames.READY or not verified(
                    self._authkey, b"worker", nonce,
                    greeting.payload[:MAC_SIZE]):
                raise FrameProtocolError(
                    f"worker at {host}:{port}: no READY greeting signed "
                    f"with the transport key"
                )
            hello = serde.loads(greeting.payload[MAC_SIZE:])
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.heartbeat_s)
        return sock, hello["pid"]

    def _spawn(self, role: str, index: int, incarnation: int) -> _Handle:
        """Start a worker, take its address registration, and dial it."""
        if self._closed:
            raise TransportError("transport is closed")
        boot = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        process = None
        try:
            boot.bind((self.host, 0))
            boot.listen(8)
            process = self._mp.Process(
                target=worker_main,
                args=(self.host, boot.getsockname()[1], self.host, role,
                      index, self.heartbeat_s, self._authkey),
                name=f"net-{role}-{index}.{incarnation}",
                daemon=True,
            )
            process.start()
            hello = self._registration(boot, role, index)
            host, port = hello["host"], hello["port"]
            sock, pid = self._dial(host, port)
            if pid != hello["pid"]:
                sock.close()
                raise TransportError(
                    f"{role} worker {index} at {host}:{port} answered with "
                    f"pid {pid}, expected {hello['pid']}"
                )
        except BaseException:
            if process is not None and process.pid is not None:
                process.kill()
                process.join(timeout=2.0)
            raise
        finally:
            boot.close()
        with self._addresses_lock:
            self._addresses[(role, index)] = (host, port)
        return _Handle(role, index, incarnation, process, sock, pid, host, port)

    def _registration(self, boot: socket.socket, role: str,
                      index: int) -> dict:
        """The worker's signed address registration on ``boot``.

        Connections that do not carry a registration signed with the
        transport key are dropped unread, and the wait goes on until the
        real one arrives or :data:`READY_TIMEOUT_S` runs out.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            boot.settimeout(max(deadline - time.monotonic(), 0.001))
            try:
                conn, __ = boot.accept()
            except socket.timeout:
                raise TransportError(
                    f"{role} worker {index} did not register within "
                    f"{READY_TIMEOUT_S:.0f}s"
                ) from None
            with conn:
                # the real worker registers as soon as it connects: a
                # silent stranger gets a short read, not the whole budget
                conn.settimeout(min(max(deadline - time.monotonic(), 0.001),
                                    AUTH_TIMEOUT_S))
                try:
                    ready = frames.recv_frame(conn)
                except (TransportError, OSError):
                    continue
            payload = ready.payload
            if ready.kind == frames.READY and verified(
                    self._authkey, b"register", payload[MAC_SIZE:],
                    payload[:MAC_SIZE]):
                return serde.loads(payload[MAC_SIZE:])

    def _ensure(self, role: str, index: int) -> _Handle:
        # caller holds the slot lock
        handle = self._pools[role][index]
        if handle is None:
            handle = self._spawn(role, index, incarnation=0)
            self._pools[role][index] = handle
        elif handle.sock.fileno() < 0:
            # a respawn whose spawn failed left the dead link behind
            handle = self._respawn(role, index)
        return handle

    def _respawn(self, role: str, index: int) -> _Handle:
        """Fresh incarnation + publication replay.

        If the replay fails, the fresh incarnation is killed but stays in
        the slot, so the next request finds a dead peer and respawns and
        replays again instead of running on half-published state.  A
        death mid replay raises :class:`TransportClosedError` (the death
        loop counts it); any other failure surfaces as
        :class:`TransportError`.
        """
        dead = self._pools[role][index]
        try:
            dead.sock.close()
        except OSError:  # pragma: no cover
            pass
        # "dead" may still run (wedged, or its listener unreachable): make
        # sure it is gone and reaped before a fresh incarnation replaces it
        dead.kill()
        dead.process.join(timeout=2.0)
        handle = self._spawn(role, index, incarnation=dead.incarnation + 1)
        self._pools[role][index] = handle
        self._bump_shared("worker_respawns")
        try:
            self._replay(handle, role, index)
        except Exception as exc:
            handle.kill()
            handle.process.join(timeout=2.0)
            if isinstance(exc, TransportError):
                raise
            raise TransportError(
                f"replay into {role} worker {index} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return handle

    def _replay(self, handle: _Handle, role: str, index: int) -> None:
        """Resend every logged request of this worker, in order (puts
        overwrite, so a later respawn's full replay still converges)."""
        with self._log_lock:
            requests = [
                request
                for __, entries in sorted(self._log.get((role, index), {}).items())
                for request in entries
            ]
        for request in requests:
            self._attempt(handle, self._next_id(), serde.dumps(request))
        if requests:
            self._bump("replayed_publications", len(requests))

    def _reconnect(self, handle: _Handle) -> bool:
        """Repair a severed link to a live worker.

        Redials the worker's registered address under the reconnect
        policy's capped-expo backoff + deterministic jitter.  Returns
        ``False`` when the peer is dead (process gone, budget exhausted,
        or a different pid greeted us) — the caller then escalates to
        respawn + replay.
        """
        try:
            handle.sock.close()
        except OSError:  # pragma: no cover
            pass
        attempt = 0
        while True:
            if not handle.alive():
                return False
            try:
                sock, pid = self._dial(handle.host, handle.port)
            except (OSError, TransportError):
                if attempt >= self.reconnect_policy.max_retries:
                    return False
                delay = self.reconnect_policy.delay_s(
                    attempt, self._reconnect_rng
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if pid != handle.pid:
                # a stranger on a recycled port, or a raced incarnation:
                # either way this is not the peer we were talking to
                sock.close()
                return False
            handle.sock = sock
            self._bump("reconnects")
            return True

    # --- the round trip ------------------------------------------------------

    def _round_trip(self, role: str, index: int, request: Tuple,
                    point: Optional[str]):
        """Send one request; survive worker deaths by respawn + resend."""
        body = serde.dumps(request)
        request_id = self._next_id()
        deaths = 0
        with self._slot_locks[role][index]:
            while True:
                try:
                    if deaths:
                        # a death mid replay (here or in _ensure) lands in
                        # the handler below and respawns again
                        handle = self._respawn(role, index)
                        self._bump_shared("resent_requests")
                    else:
                        handle = self._ensure(role, index)
                    # a resend reuses the SAME request id (idempotent)
                    return self._attempt(handle, request_id, body, point)
                except (TransportClosedError, FrameProtocolError) as exc:
                    deaths += 1
                    self._bump_shared("worker_deaths")
                    if deaths > self.respawn_limit:
                        raise WorkerRespawnError(role, index, deaths) from exc

    def _attempt(self, handle: _Handle, request_id: int, body: bytes,
                 point: Optional[str] = None):
        """One request on one incarnation, wrapped in link repair.

        Every EOF/torn-frame failure first tries :meth:`_reconnect` and
        resends the same id; only a provably dead peer propagates the
        error to the death loop of :meth:`_round_trip`.
        """
        repairs = 0
        while True:
            try:
                return self._exchange(handle, request_id, body, point)
            except (TransportClosedError, FrameProtocolError):
                repairs += 1
                if repairs > self.MAX_LINK_REPAIRS \
                        or not self._reconnect(handle):
                    raise  # peer dead: the death loop respawns + replays
                # link repaired: resend the SAME id; a request that
                # executed during the partition is answered from the
                # dedup cache (STATUS_REPLAY), never re-executed
                point = None  # a kill fault gets one shot per attempt

    def _exchange(self, handle: _Handle, request_id: int, body: bytes,
                  point: Optional[str] = None):
        """One send + await on one connection; raises when it breaks."""
        self._send(handle, frames.REQ, request_id, body)
        if point is not None and self._resilience is not None \
                and self._resilience.trip(point):
            # seeded chaos: SIGKILL the worker mid-request; the death loop
            # must make this invisible to the caller
            handle.kill()
        grace_s = self.heartbeat_s * self.miss_grace
        deadline = time.monotonic() + self.request_timeout_s
        last_frame = time.monotonic()
        resent = False
        while True:
            try:
                frame = self._recv(handle)
            except socket.timeout:
                now = time.monotonic()
                if now - last_frame > grace_s:
                    self._bump("heartbeats_missed")
                    last_frame = now  # one miss per silent grace window
                    if not handle.alive():
                        raise TransportClosedError(
                            f"{handle.role} worker {handle.index} died "
                            f"(silent and process gone)"
                        ) from None
                if now > deadline:
                    if not resent and handle.alive():
                        # lost-ACK recovery: resend the SAME id; the dedup
                        # cache replays if the worker already executed it
                        self._send(handle, frames.REQ, request_id, body)
                        self._bump("resent_requests")
                        resent = True
                        deadline = now + self.request_timeout_s
                        continue
                    handle.kill()
                    raise TransportClosedError(
                        f"{handle.role} worker {handle.index} wedged on "
                        f"request {request_id} (no response in "
                        f"{self.request_timeout_s:.0f}s)"
                    ) from None
                continue
            last_frame = time.monotonic()
            if frame.kind == frames.HEARTBEAT:
                self._bump("heartbeats_seen")
                continue
            if frame.kind not in (frames.RES, frames.ERR):
                continue  # e.g. a READY greeting after a reconnect
            status, data = frame.payload[:1], frame.payload[1:]
            if status == STATUS_REPLAY:
                # counted even for stale ids: a duplicated request answers
                # once normally and once as a replay, and the replay can
                # land while a later request is already in flight
                self._bump("dedup_hits")
            if frame.request_id != request_id:
                continue  # stale response to an abandoned id
            if frame.kind == frames.RES:
                return serde.loads(data)
            raise pickle.loads(data)

    def _send(self, handle: _Handle, kind: int, request_id: int,
              payload: bytes) -> None:
        sent = frames.send_frame(handle.sock, kind, request_id, payload)
        with self._stats_lock:
            self._stats["frames_sent"] += 1
            self._stats["bytes_sent"] += sent

    def _recv(self, handle: _Handle) -> frames.Frame:
        frame = frames.recv_frame(handle.sock)
        with self._stats_lock:
            self._stats["frames_received"] += 1
            self._stats["bytes_received"] += frames.frame_size(len(frame.payload))
        return frame
