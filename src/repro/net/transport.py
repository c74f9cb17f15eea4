"""Transport selection: where federated sites and RDD tasks execute.

``transport="inproc"`` (the tier-1 default) has no transport object:
:func:`for_config` returns ``None`` and the runtime keeps sites in the
default in-process registry and runs tasks as direct calls.
``transport="tcp"`` selects :class:`~repro.net.proc.ProcTransport`, which
moves both behind real OS processes on dialable TCP addresses and a frame
protocol, so the resilience and checkpoint layers face genuine process
deaths and severed links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.net.proc import ProcTransport

#: Stable key set of the transport stats snapshot, so obs reports and CI
#: assertions can rely on the keys existing.
STAT_KEYS = (
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "heartbeats_seen",
    "heartbeats_missed",
    "worker_deaths",
    "worker_respawns",
    "resent_requests",
    "dedup_hits",
    "replayed_publications",
    # link lifecycle and wire chaos
    "reconnects",
    "partitions",
    "frames_dropped",
    "frames_duplicated",
    "frames_corrupt_rejected",
)


def for_config(config) -> Optional["ProcTransport"]:
    """The transport a :class:`~repro.config.ReproConfig` selects.

    Returns ``None`` for ``inproc`` — the runtime treats a missing
    transport as the direct in-process path, keeping every hot-path check
    a single ``is None`` like the other optional subsystems.
    """
    if getattr(config, "transport", "inproc") != "tcp":
        return None
    from repro.net.chaos import ChaosTransport, spec_targets_network

    if spec_targets_network(getattr(config, "fault_spec", None)):
        # wire faults requested: interpose the chaos layer
        return ChaosTransport.default(config)
    from repro.net.proc import ProcTransport

    return ProcTransport.default(config)


def registry_for(config):
    """The federated registry for a config's transport mode."""
    transport = for_config(config)
    if transport is not None:
        return transport.registry()
    from repro.federated.site import FederatedWorkerRegistry

    return FederatedWorkerRegistry.default()
