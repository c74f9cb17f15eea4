"""repro.net: the process-boundary transport layer (DESIGN.md §13).

Selects *where* federated sites, RDD tasks and scoring shards execute:

* ``transport="inproc"`` (the tier-1 default) has no transport object:
  thread simulations, zero overhead;
* :class:`ProcTransport` — the one worker pool: spawn-context OS
  processes listening on dialable TCP addresses, speaking the
  length-prefixed, checksummed, request-id-tagged frame protocol of
  :mod:`repro.net.frames`, with heartbeat liveness, reconnect + same-id
  resend answered from a dedup cache when a link drops, and respawn +
  publication replay when a worker dies;
* :class:`ChaosTransport` — the same pool under seeded wire-level fault
  injection (``net.drop``/``net.delay_ms``/``net.dup``/``net.corrupt``/
  ``net.partition``).

``for_config``/``registry_for`` resolve the mode from a
:class:`~repro.config.ReproConfig` (``transport="inproc"|"tcp"``).
"""

from repro.net.transport import for_config, registry_for

__all__ = [
    "ChaosTransport",
    "ProcTransport",
    "for_config",
    "registry_for",
]


def __getattr__(name):
    # The process transports pull in multiprocessing; import them lazily.
    if name == "ProcTransport":
        from repro.net.proc import ProcTransport

        return ProcTransport
    if name == "ChaosTransport":
        from repro.net.chaos import ChaosTransport

        return ChaosTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
