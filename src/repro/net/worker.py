"""Entry point of one transport worker process.

A worker is a spawn-context OS process that serves REQ frames until it
reads BYE (or is killed, or its coordinator dies).  One worker serves any
role — federated site host, RDD task executor, scoring shard — because
the request payload carries its own dispatch tag:

* ``("site", address, method, args, kwargs)`` / ``("reg", method, args)``
  — a federated site, or the worker's site registry;
* ``("task", fn)`` — a stateless RDD partition task, ``fn()``;
* ``("call", fn, *args)`` — ``fn(state, *args)`` for a module-level
  function of another layer, against the worker's ``state`` dict (a
  scoring shard keeps its models there).  Values left in ``state`` are
  closed when the worker exits.

:func:`worker_main` *listens* on its own host:port, registers the address
with the coordinator through a one-shot bootstrap connection, then serves
coordinator sessions one at a time from an accept loop.  Worker state
(hosted tensors, ``state``, the dedup cache) survives across sessions,
which is what makes a network partition recoverable: the coordinator
reconnects and resends, and the worker either still has the response
recorded (replay) or executes it for the first time — never twice.

Idempotency (the dedup cache)
-----------------------------
Every request carries a coordinator-assigned id.  The worker records the
response bytes of the last :data:`DEDUP_CAPACITY` requests; a repeated id
— the coordinator resending after a lost ACK or a severed link — replays
the recorded response instead of re-executing.  A side-effecting op
(``put``, ``update``, ``execute_and_store``) therefore cannot
double-execute, and the replayed response is flagged so the coordinator
can count ``dedup_hits``.

Authentication
--------------
Every worker listens on a real address, so a session must prove it comes
from the coordinator before the worker unpickles a single byte of it.
Each transport draws a random key at construction and hands it to its
workers over the spawn pipe (never the network).  The registration on
the bootstrap connection carries an HMAC of its payload under that key,
and every session opens with a mutual challenge-response (:func:`sign`):

1. worker -> coordinator: AUTH frame, a fresh nonce;
2. coordinator -> worker: AUTH frame, the MAC of that nonce plus a
   nonce of its own;
3. worker -> coordinator: READY frame, the MAC of the coordinator's
   nonce followed by the greeting.

A connection that answers the challenge wrongly, with another frame
kind, or not within :data:`AUTH_TIMEOUT_S` is dropped before anything is
decoded, and the worker returns to its accept loop — a stray connection
can neither run code nor hold the worker for long.

Liveness
--------
A daemon thread emits a HEARTBEAT frame every ``heartbeat_s`` on the
session socket (sends are serialised by a lock).  The coordinator counts
frames while awaiting a response; a silent interval with a dead process
is a worker death, triggering respawn + publication replay.  In the other
direction, the accept loop wakes every ``heartbeat_s`` and exits once the
worker has been re-parented: a coordinator that died without sending BYE
(SIGKILL, SIGTERM) can never dial again, so its workers do not outlive it.

Errors
------
Per-request exceptions are pickled into ERR frames (falling back to a
stringified :class:`~repro.errors.TransportError` for unpicklable ones —
though every :mod:`repro.errors` type round-trips by contract) and
re-raised coordinator-side with their types and attributes intact.  A
corrupt frame on the wire severs the *session* (the framing is no longer
trustworthy) but never kills the worker: the accept loop just waits for
the coordinator to reconnect.
"""

from __future__ import annotations

import collections
import hashlib
import hmac
import os
import pickle
import socket
import threading
from typing import Optional

from repro.net import frames

#: Responses remembered for request-id dedup, per worker incarnation.
DEDUP_CAPACITY = 512

#: Response-payload status prefix (first byte of RES/ERR payloads).
STATUS_OK = b"\x00"
STATUS_REPLAY = b"\x01"
STATUS_ERR = b"\x02"

#: Random bytes per handshake nonce, and bytes per MAC (HMAC-SHA256).
NONCE_SIZE = 32
MAC_SIZE = 32

#: How long a fresh connection gets to answer the worker's challenge.
AUTH_TIMEOUT_S = 2.0


def sign(authkey: bytes, label: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 of ``data`` under the transport key, bound to ``label``
    (``b"register"``, ``b"coordinator"`` or ``b"worker"``), so no message
    of one handshake step can stand in for another."""
    return hmac.new(authkey, label + b"\x00" + data, hashlib.sha256).digest()


def verified(authkey: bytes, label: bytes, data: bytes, mac: bytes) -> bool:
    """Whether ``mac`` is :func:`sign`'s MAC of ``data`` (constant time)."""
    return hmac.compare_digest(sign(authkey, label, data), mac)


def _authenticate(sock: socket.socket, authkey: bytes) -> Optional[bytes]:
    """The worker's side of the session handshake (steps 1 and 2).

    Returns the coordinator's nonce once its MAC checks out, or ``None``
    when the peer failed the challenge in any way.
    """
    from repro.errors import TransportError

    nonce = os.urandom(NONCE_SIZE)
    sock.settimeout(AUTH_TIMEOUT_S)
    try:
        frames.send_frame(sock, frames.AUTH, 0, nonce)
        answer = frames.recv_frame(sock)
    except (TransportError, OSError):  # includes socket.timeout
        return None
    payload = answer.payload
    if answer.kind != frames.AUTH or len(payload) != MAC_SIZE + NONCE_SIZE \
            or not verified(authkey, b"coordinator", nonce, payload[:MAC_SIZE]):
        return None
    sock.settimeout(None)
    return payload[MAC_SIZE:]


def _portable(exc: BaseException) -> bytes:
    """Pickled form of an exception that is safe to unpickle coordinator-side."""
    from repro.errors import TransportError

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:  # noqa: BLE001 - unpicklable payload/ctor
        return pickle.dumps(TransportError(f"{type(exc).__name__}: {exc}"))


def _dispatch(registry, state, request):
    """Execute one decoded request against worker-local state."""
    from repro.errors import TransportError

    kind = request[0]
    if kind == "site":
        __, address, method, args, kwargs = request
        site = registry.site(address)
        if method == "get_metrics":
            return dict(site.metrics)
        if method == "get_is_down":
            return site.is_down
        return getattr(site, method)(*args, **kwargs)
    if kind == "reg":
        __, method, args = request
        getattr(registry, method)(*args)
        return True
    if kind == "task":
        return request[1]()
    if kind == "call":
        return request[1](state, *request[2:])
    raise TransportError(f"unknown request kind {kind!r}")


def _heartbeat_loop(sock: socket.socket, send_lock: threading.Lock,
                    interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            with send_lock:
                frames.send_frame(sock, frames.HEARTBEAT, 0)
        except Exception:  # noqa: BLE001 - coordinator gone; main loop exits too
            return


def _serve_connection(sock: socket.socket, registry, state, dedup,
                      heartbeat_s: float, hello: dict, authkey: bytes) -> str:
    """Serve one connection until it ends; state outlives the session.

    Authenticates the peer first (``"unauthenticated"`` if it fails),
    then greets with a READY frame carrying ``hello`` — signed over the
    coordinator's nonce; the coordinator uses the pid to verify it
    reconnected to the same incarnation — and starts a
    per-session heartbeat thread, then answers REQ frames.  Returns why
    the session ended: ``"bye"`` (orderly drain — the worker should
    exit), ``"closed"`` (EOF/reset — the link died, the worker may
    accept a new session) or ``"corrupt"`` (undecodable frame — the
    stream cannot be resynchronised, so the session is severed).
    """
    from repro.errors import FrameProtocolError, TransportClosedError
    from repro.net import serde

    challenge = _authenticate(sock, authkey)
    if challenge is None:
        return "unauthenticated"
    send_lock = threading.Lock()
    stop = threading.Event()
    try:
        with send_lock:
            frames.send_frame(
                sock, frames.READY, 0,
                sign(authkey, b"worker", challenge) + serde.dumps(hello),
            )
    except (TransportClosedError, OSError):
        return "closed"
    beat = threading.Thread(
        target=_heartbeat_loop, args=(sock, send_lock, heartbeat_s, stop),
        name="worker-heartbeat", daemon=True,
    )
    beat.start()
    try:
        while True:
            try:
                frame = frames.recv_frame(sock)
            except TransportClosedError:
                return "closed"
            except FrameProtocolError:
                return "corrupt"
            if frame.kind == frames.BYE:
                return "bye"
            if frame.kind != frames.REQ:
                continue  # tolerate unexpected kinds instead of dying
            cached = dedup.get(frame.request_id)
            if cached is not None:
                kind, body = cached
                try:
                    with send_lock:
                        frames.send_frame(
                            sock, kind, frame.request_id, STATUS_REPLAY + body
                        )
                except (TransportClosedError, OSError):
                    return "closed"
                continue
            try:
                result = _dispatch(registry, state, serde.loads(frame.payload))
                kind, body = frames.RES, serde.dumps(result)
            except BaseException as exc:  # noqa: BLE001 - typed error propagation
                kind, body = frames.ERR, _portable(exc)
            # record BEFORE sending: if the link dies mid-send, the resent
            # request must hit the cache, not execute again
            dedup[frame.request_id] = (kind, body)
            while len(dedup) > DEDUP_CAPACITY:
                dedup.popitem(last=False)
            try:
                with send_lock:
                    frames.send_frame(
                        sock, kind, frame.request_id, STATUS_OK + body
                    )
            except (TransportClosedError, OSError):
                return "closed"
    finally:
        stop.set()


def worker_main(boot_host: str, boot_port: int, bind_host: str,
                role: str, index: int, heartbeat_s: float,
                authkey: bytes) -> None:
    """Listen on a real address and serve coordinator sessions until BYE.

    Binds an ephemeral port on ``bind_host``, registers
    ``{pid, host, port}`` (signed with ``authkey``) with the coordinator
    through a one-shot bootstrap connection, then accepts authenticated
    coordinator sessions one at a time.  A severed or corrupted session returns to the accept loop
    with all hosted state intact — reconnect-and-resend is the
    coordinator's job.  BYE (graceful drain) ends the process, and so
    does losing the coordinator: the accept wait is bounded by
    ``heartbeat_s`` and the loop exits once the parent pid changes.
    """
    from repro.federated.site import FederatedWorkerRegistry
    from repro.net import serde

    coordinator = os.getppid()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind_host, 0))
    listener.listen(8)
    listener.settimeout(heartbeat_s)
    host, port = listener.getsockname()[:2]
    boot = socket.create_connection((boot_host, boot_port))
    try:
        registration = serde.dumps({
            "pid": os.getpid(), "host": host, "port": port,
            "role": role, "index": index,
        })
        frames.send_frame(boot, frames.READY, 0,
                          sign(authkey, b"register", registration)
                          + registration)
    finally:
        try:
            boot.close()
        except OSError:  # pragma: no cover
            pass
    # worker-local state: a private registry (never the singleton — the
    # coordinator's publication log is the source of truth), the state of
    # "call" requests, and the dedup cache
    registry = FederatedWorkerRegistry()
    state: dict = {}
    dedup: "collections.OrderedDict[int, tuple]" = collections.OrderedDict()
    hello = {"pid": os.getpid(), "role": role, "index": index}
    try:
        while True:
            try:
                sock, __ = listener.accept()
            except socket.timeout:
                if os.getppid() != coordinator:
                    break  # re-parented: nobody is left to dial us
                continue
            except OSError:  # pragma: no cover - listener torn down
                break
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                reason = _serve_connection(
                    sock, registry, state, dedup, heartbeat_s, hello, authkey
                )
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            if reason == "bye":
                break
    finally:
        try:
            listener.close()
        except OSError:  # pragma: no cover
            pass
        for resource in state.values():
            resource.close()
