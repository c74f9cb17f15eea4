"""Transport chaos demo: kill workers or sever links mid-run, lose nothing.

Runs the two workloads of the repro.net acceptance bar with federated
sites and RDD executors as *real OS processes* listening on loopback
addresses (``transport="tcp"``, the one worker transport), under a
seeded fault plan:

* a row-federated L2SVM training loop — the faulted site worker recovers
  (respawn + publication replay, or reconnect + same-id resend) and the
  re-hosted shards stay bit-identical;
* a distributed blocked matmul — the faulted executor recovers and the
  in-flight task is resent under the same request id (the dedup cache
  makes the retry idempotent).

Two fault families:

* ``--faults kill`` (default) — the ``fed.worker``/``rdd.worker`` points
  SIGKILL one worker mid-run: peer dead, so respawn + replay.
* ``--faults wire`` — the ``net.partition``/``net.drop`` wire points sever
  the link mid-stream and vanish frames, so recovery is reconnect +
  resend with the request answered from the worker's dedup cache
  (STATUS_REPLAY), never re-executed.

Both results are compared bit-for-bit against fault-free in-process
runs, and a JSON report (CI asserts on it) is written when given a path.

Run:

    PYTHONPATH=src python examples/proc_transport_chaos.py [report.json]
    PYTHONPATH=src python examples/proc_transport_chaos.py \
        --faults wire [report.json]
"""

import argparse
import json
import sys

import numpy as np

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.net import registry_for
from repro.tensor import BasicTensorBlock

L2SVM_SCRIPT = """
Xf = federated(addresses=list("demo-a:9001/X", "demo-b:9001/X"),
               ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:10) {
  margin = Xf %*% w
  diff = margin - y
  grad = t(Xf) %*% diff
  w = w - (0.1 / nrow(Xf)) * grad
}
obj = sum(diff * diff)
"""

MATMUL_SCRIPT = """
Z = matrix(0, nrow(X), ncol(Y))
for (i in 1:4) {
  Z = Z + X %*% Y
}
s = sum(Z)
"""

#: Shrinks the per-operator budget so every matrix op runs on the RDD
#: backend, and keeps chaos retries free of real backoff sleeps.
SPARK = {"operator_memory_fraction": 1e-7, "block_size": 4}
FAST_RETRY = {"retry_budget": 5, "retry_backoff_ms": 0.0,
              "retry_backoff_max_ms": 0.0}


def run_federated(config):
    rng = np.random.default_rng(51)
    rows, features = 80, 5
    data = rng.random((rows, features))
    labels = data @ rng.standard_normal((features, 1))
    split = rows // 2
    inputs = {
        "y": labels,
        "R1": np.asarray([[0.0, 0.0, float(split), float(features)]]),
        "R2": np.asarray([[float(split), 0.0, float(rows), float(features)]]),
    }
    registry = registry_for(config)
    registry.clear()
    registry.start_site("demo-a:9001").put(
        "X", BasicTensorBlock.from_numpy(data[:split])
    )
    registry.start_site("demo-b:9001").put(
        "X", BasicTensorBlock.from_numpy(data[split:])
    )
    try:
        ml = MLContext(config)
        result = ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"])
        return np.asarray(result.matrix("w")), ml
    finally:
        registry.clear()


def run_matmul(config):
    rng = np.random.default_rng(53)
    inputs = {"X": rng.random((12, 10)), "Y": rng.random((10, 6))}
    ml = MLContext(config)
    result = ml.execute(MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"])
    return np.asarray(result.matrix("Z")), ml


#: Per-family chaos overrides for the two workloads.  The kill points
#: SIGKILL a worker mid-request; the wire points sever the link mid-stream
#: (reconnect + same-id resend), duplicate frames (absorbed by the dedup
#: cache — guarantees observed STATUS_REPLAY answers), and vanish the
#: occasional frame (recovered by the request-timeout resend, so the tcp
#: runs also shrink the round-trip deadline).
_CHAOS_FAMILIES = {
    "kill": {
        "fed": {"fault_spec": "fed.worker:fail=2", "fault_seed": 61},
        "rdd": {"fault_spec": "rdd.worker:fail=2", "fault_seed": 67},
    },
    "wire": {
        "fed": {
            "fault_spec": "net.partition:fail=2;net.dup:fail=2;"
                          "net.drop:fail=1",
            "fault_seed": 71,
            "heartbeat_interval_s": 0.1,
            "transport_request_timeout_s": 1.0,
        },
        "rdd": {
            "fault_spec": "net.partition:fail=1;net.dup:fail=2",
            "fault_seed": 73,
            "heartbeat_interval_s": 0.1,
        },
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default=None,
                        help="write the JSON report here")
    parser.add_argument("--faults", choices=sorted(_CHAOS_FAMILIES),
                        default="kill",
                        help="SIGKILL workers, or fault the wire")
    args = parser.parse_args(argv)
    chaos = _CHAOS_FAMILIES[args.faults]

    clean_w, __ = run_federated(ReproConfig())
    chaos_w, fed_ml = run_federated(ReproConfig(
        transport="tcp", enable_stats=True, **chaos["fed"], **FAST_RETRY,
    ))
    fed_section = fed_ml.stats().snapshot()["transport"]
    fed_identical = bool(np.array_equal(chaos_w, clean_w))
    print(f"federated L2SVM: identical={fed_identical} "
          f"deaths={fed_section['worker_deaths']} "
          f"respawns={fed_section['worker_respawns']} "
          f"replayed={fed_section['replayed_publications']} "
          f"partitions={fed_section['partitions']} "
          f"reconnects={fed_section['reconnects']} "
          f"dedup_hits={fed_section['dedup_hits']}")

    clean_z, __ = run_matmul(ReproConfig(**SPARK))
    chaos_z, rdd_ml = run_matmul(ReproConfig(
        transport="tcp", enable_stats=True,
        **chaos["rdd"], **SPARK, **FAST_RETRY,
    ))
    rdd_section = rdd_ml.stats().snapshot()["transport"]
    rdd_identical = bool(np.array_equal(chaos_z, clean_z))
    print(f"blocked matmul:  identical={rdd_identical} "
          f"deaths={rdd_section['worker_deaths']} "
          f"respawns={rdd_section['worker_respawns']} "
          f"partitions={rdd_section['partitions']} "
          f"reconnects={rdd_section['reconnects']} "
          f"dedup_hits={rdd_section['dedup_hits']}")

    report = {
        "faults": args.faults,
        "federated": {"identical": fed_identical, **fed_section},
        "rdd": {"identical": rdd_identical, **rdd_section},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.faults == "kill":
        ok = (fed_identical and rdd_identical
              and fed_section["worker_respawns"] > 0
              and rdd_section["worker_respawns"] > 0)
    else:
        ok = (fed_identical and rdd_identical
              and fed_section["partitions"] > 0
              and fed_section["reconnects"] > 0
              and fed_section["dedup_hits"] > 0
              and rdd_section["reconnects"] > 0
              and rdd_section["dedup_hits"] > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
