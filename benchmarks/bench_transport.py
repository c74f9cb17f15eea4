"""Transport overhead on a federated L2SVM loop (documented, not gated).

Runs the same row-federated L2SVM training loop twice — sites as
in-process thread sims (``transport=inproc``), and sites behind real OS
worker processes listening on dialable loopback addresses
(``transport=tcp``) — and reports the wall-clock ratio plus the worker
transport's wire accounting.  The ratio is *documented* rather than
gated: the worker transport buys genuine SIGKILL-able isolation and
survivable links, and its cost (pickling every request, socket round
trips, heartbeats) depends heavily on the host.  Worker spawn cost is
excluded by warming the pool before timing, matching the long-lived-
daemon deployment the transport models.

Run directly to write ``benchmarks/results/BENCH_transport.json``::

    PYTHONPATH=src python benchmarks/bench_transport.py [out.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.net import registry_for
from repro.tensor import BasicTensorBlock

ROUNDS = 5

L2SVM_SCRIPT = """
Xf = federated(addresses=list("bench-a:9001/X", "bench-b:9001/X"),
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

ROWS, FEATURES = 200, 8


def _inputs(seed=41):
    rng = np.random.default_rng(seed)
    data = rng.random((ROWS, FEATURES))
    labels = data @ rng.standard_normal((FEATURES, 1))
    split = ROWS // 2
    inputs = {
        "y": labels,
        "R1": np.asarray([[0.0, 0.0, float(split), float(FEATURES)]]),
        "R2": np.asarray([[float(split), 0.0, float(ROWS), float(FEATURES)]]),
    }
    return data, split, inputs


def _timed_run(config, data, split, inputs):
    registry = registry_for(config)
    registry.clear()
    registry.start_site("bench-a:9001").put(
        "X", BasicTensorBlock.from_numpy(data[:split])
    )
    registry.start_site("bench-b:9001").put(
        "X", BasicTensorBlock.from_numpy(data[split:])
    )
    try:
        start = time.perf_counter()
        result = MLContext(config).execute(
            L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"]
        )
        elapsed = time.perf_counter() - start
        return elapsed, result.scalar("obj")
    finally:
        registry.clear()


def measure() -> dict:
    data, split, inputs = _inputs()
    inproc_cfg = ReproConfig()
    tcp_cfg = ReproConfig(transport="tcp")
    # warm the worker pool (interpreter + numpy import per process) so the
    # measured ratio reflects steady-state RPC overhead, not spawn cost
    _timed_run(tcp_cfg, data, split, inputs)
    inproc_s = tcp_s = float("inf")
    inproc_obj = tcp_obj = None
    for _ in range(ROUNDS):
        elapsed, inproc_obj = _timed_run(inproc_cfg, data, split, inputs)
        inproc_s = min(inproc_s, elapsed)
        elapsed, tcp_obj = _timed_run(tcp_cfg, data, split, inputs)
        tcp_s = min(tcp_s, elapsed)
    from repro.net.proc import ProcTransport

    snap = ProcTransport.default().snapshot()
    return {
        "workload": "federated L2SVM, 10 sweeps, "
                    f"{ROWS}x{FEATURES} over 2 sites",
        "rounds": ROUNDS,
        "cpu_count": os.cpu_count(),
        "inproc_s": inproc_s,
        "tcp_s": tcp_s,
        "tcp_over_inproc": tcp_s / inproc_s,
        "results_identical": bool(inproc_obj == tcp_obj),
        "tcp_frames_sent": snap["frames_sent"],
        "tcp_bytes_sent": snap["bytes_sent"],
        "tcp_bytes_received": snap["bytes_received"],
        "tcp_reconnects": snap["reconnects"],
        "worker_deaths": snap["worker_deaths"],
        "gated": False,
    }


def main(argv=None) -> int:
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results", "BENCH_transport.json")
    out_path = (argv or sys.argv[1:] or [default])[0]
    results = measure()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"inproc {results['inproc_s'] * 1e3:.1f}ms  "
        f"tcp {results['tcp_s'] * 1e3:.1f}ms "
        f"({results['tcp_over_inproc']:.2f}x)  "
        f"(identical={results['results_identical']})"
    )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
