"""Serving smoke bench: micro-batching vs. one-request-at-a-time.

Registers a linear scoring model, fires a burst of single-row requests at
the service twice — once with batching disabled (every request is its own
script execution) and once with micro-batching — and reports throughput,
latency percentiles, queue depth, and the batch-size histogram.

With ``--procs`` the bench instead measures the *multi-process* data
plane: a 1/2/4/8-worker scaling curve over :class:`ShardedScoringService`
(shared-memory weights, one OS process per shard), plus an optional
kill-one-worker chaos run (``--kill-worker``) that SIGKILLs a worker
mid-batch under a seeded fault plan and checks bit-identical results.

Runs as ``repro-serve-bench``, as ``python -m repro.serving.bench``, or
through ``benchmarks/bench_serving.py``; writes ``BENCH_serving.json``
with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.config import ReproConfig
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService

#: DML scoring script of the bench model: linear scores plus a model-side
#: normaliser (a weights-only tsmm) so lineage reuse on the weight sub-DAG
#: is observable: its key is stable across requests while X changes.
SCORING_SCRIPT = """
norm = sum(t(B) %*% B)
yhat = (X %*% B) / sqrt(norm)
"""


def _make_registry(features: int, seed: int) -> ModelRegistry:
    config = ReproConfig(enable_lineage=True, reuse_policy="full")
    registry = ModelRegistry(config)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((features, 1))
    registry.register("lm-score", SCORING_SCRIPT, weights={"B": weights})
    return registry


def _fire_burst(service: ScoringService, rows: List[np.ndarray],
                timeout: float) -> float:
    """Submit every row, wait for all futures; returns the elapsed seconds."""
    start = time.monotonic()
    futures = [service.submit("lm-score", row, timeout=timeout) for row in rows]
    for future in futures:
        future.result(timeout)
    return time.monotonic() - start


def run_smoke_bench(
    requests: int = 1000,
    features: int = 16,
    workers: int = 4,
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
    timeout: float = 120.0,
    seed: int = 7,
) -> dict:
    """The smoke-bench report dict (see module docstring)."""
    rng = np.random.default_rng(seed + 1)
    rows = [rng.standard_normal(features) for _ in range(requests)]

    def run(batching: bool) -> dict:
        registry = _make_registry(features, seed)
        expected = None
        try:
            service = ScoringService(
                registry, workers=workers, queue_limit=requests,
                max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
                batching=batching, default_timeout=timeout,
            )
            with service:
                elapsed = _fire_burst(service, rows, timeout)
                # correctness spot check against the closed form
                sample = service.score("lm-score", rows[0], timeout=timeout)
                weights = registry.get("lm-score").weights["B"].acquire_local()
                b = weights.to_numpy()
                expected = float(
                    (rows[0].reshape(1, -1) @ b / np.sqrt((b * b).sum()))[0, 0]
                )
                assert abs(float(sample[0, 0]) - expected) < 1e-9
                snapshot = service.snapshot()
        finally:
            registry.close()
        return {
            "elapsed_s": elapsed,
            "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
            "metrics": snapshot,
        }

    unbatched = run(batching=False)
    batched = run(batching=True)
    speedup = (
        batched["throughput_rps"] / unbatched["throughput_rps"]
        if unbatched["throughput_rps"] > 0 else 0.0
    )
    return {
        "bench": "serving_smoke",
        "requests": requests,
        "features": features,
        "workers": workers,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "unbatched": unbatched,
        "batched": batched,
        "batching_speedup": speedup,
    }


def _expected_score(row: np.ndarray, b: np.ndarray) -> float:
    return float((row.reshape(1, -1) @ b / np.sqrt((b * b).sum()))[0, 0])


def run_scaling_bench(
    requests: int = 400,
    features: int = 16,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
    timeout: float = 120.0,
    seed: int = 7,
    kill_worker: bool = False,
) -> dict:
    """Throughput curve over OS worker-process counts (the sharded plane).

    Each point of the curve spins up a fresh registry and a
    :class:`ShardedScoringService` with ``procs`` workers, fires the same
    burst of single-row requests, spot-checks one result against the
    closed form, and records throughput plus the worker/shared-memory
    counters.  ``scaling`` maps each count to its speedup over the
    1-worker point.  With ``kill_worker`` a final 2-worker run injects
    ``serve.worker:fail=1`` (seeded) so one worker is SIGKILLed mid-batch;
    the run asserts every result still matches and reports the recovery
    counters CI gates on.
    """
    from repro.resilience.manager import ResilienceManager
    from repro.serving.workers import ShardedScoringService

    rng = np.random.default_rng(seed + 1)
    rows = [rng.standard_normal(features) for _ in range(requests)]

    def run(procs: int, fault_spec: Optional[str] = None) -> dict:
        registry = _make_registry(features, seed)
        resilience = None
        if fault_spec:
            resilience = ResilienceManager.from_config(
                ReproConfig(fault_spec=fault_spec, fault_seed=seed)
            )
        try:
            service = ShardedScoringService(
                # 2x headroom: the whole burst sits queued at once and must
                # stay under the PR 3 load-shed watermark (90% of the limit)
                registry, procs=procs, queue_limit=requests * 2,
                max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
                default_timeout=timeout, resilience=resilience,
            )
            with service:
                elapsed = _fire_burst(service, rows, timeout)
                sample = service.score("lm-score", rows[0], timeout=timeout)
                weights = registry.get("lm-score").weights["B"].acquire_local()
                expected = _expected_score(rows[0], weights.to_numpy())
                assert abs(float(sample[0, 0]) - expected) < 1e-9
                snapshot = service.snapshot()
        finally:
            registry.close()
        workers = snapshot.get("workers", {})
        point = {
            "procs": procs,
            "elapsed_s": elapsed,
            "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
            "shm_segments_attached": sum(
                w["shm_segments_attached"] for w in workers.values()),
            "shm_checksums_verified": sum(
                w["shm_checksums_verified"] for w in workers.values()),
            "worker_deaths": sum(w["deaths"] for w in workers.values()),
            "worker_respawns": sum(w["respawns"] for w in workers.values()),
            "resent_requests": sum(
                w["resent_requests"] for w in workers.values()),
            "metrics": snapshot,
        }
        if resilience is not None:
            point["resilience"] = resilience.stats.snapshot()
        return point

    curve = {str(count): run(count) for count in worker_counts}
    base = curve[str(worker_counts[0])]["throughput_rps"]
    scaling = {
        key: (point["throughput_rps"] / base if base > 0 else 0.0)
        for key, point in curve.items()
    }
    report = {
        "bench": "serving_scaling",
        "requests": requests,
        "features": features,
        "worker_counts": list(worker_counts),
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "cpu_count": os.cpu_count(),
        "curve": curve,
        "scaling": scaling,
    }
    if kill_worker:
        chaos = run(2, fault_spec="serve.worker:fail=1")
        # the SIGKILL happened and recovery re-sent the in-flight batch
        assert chaos["worker_deaths"] >= 1, "kill-worker run saw no death"
        assert chaos["worker_respawns"] >= 1, "worker was not respawned"
        report["kill_worker"] = chaos
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-bench",
        description="Concurrent model-scoring smoke bench (micro-batching).",
    )
    parser.add_argument("--requests", type=int, default=1000,
                        help="burst size (single-row scoring requests)")
    parser.add_argument("--features", type=int, default=16,
                        help="feature-vector width")
    parser.add_argument("--workers", type=int, default=4,
                        help="scoring worker threads")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="micro-batch size cap")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batch linger time")
    parser.add_argument("--procs", metavar="N[,N...]", default=None,
                        help="run the multi-process scaling bench over these "
                             "worker-process counts (e.g. 1,2,4,8)")
    parser.add_argument("--kill-worker", action="store_true",
                        help="add a kill-one-worker chaos run to the "
                             "scaling bench (implies --procs)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report (e.g. BENCH_serving.json)")
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.features < 1:
        parser.error("--features must be >= 1")

    if args.procs is not None or args.kill_worker:
        try:
            counts = [int(part) for part in (args.procs or "1,2").split(",")]
        except ValueError:
            parser.error("--procs must be a comma-separated list of ints")
        if any(count < 1 for count in counts):
            parser.error("--procs counts must be >= 1")
        report = run_scaling_bench(
            requests=args.requests, features=args.features,
            worker_counts=counts, max_batch_size=args.max_batch,
            max_wait_ms=args.max_wait_ms, kill_worker=args.kill_worker,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.out:
            write_report(report, args.out)
        if any(point["throughput_rps"] <= 0 for point in report["curve"].values()):
            print("error: a scaling point has zero throughput", file=sys.stderr)
            return 1
        return 0

    report = run_smoke_bench(
        requests=args.requests, features=args.features, workers=args.workers,
        max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        write_report(report, args.out)
    if report["batched"]["throughput_rps"] <= 0:
        print("error: batched throughput is zero", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
