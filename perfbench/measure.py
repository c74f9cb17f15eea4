"""Measurement loops, per-layer accounting, hygiene checks and the result.

Imported by ``run.py`` once the environment is pinned (BLAS threads,
``TMPDIR``) and ``src`` is on the path.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict

import numpy as np
import scipy

import repro
import tracing
from serving import NOMINAL_RATE, P99_LIMIT_MS, SEARCH_STEPS, ServeOpen
from workloads import BATCH_WORKLOADS

#: Per-layer metrics of a traced run, with units (the BENCHMARK.json list).
PER_LAYER_UNITS = {
    "io.read_s": "s", "io.read_mb_per_s": "MB/s", "io.write_s": "s",
    "lineage.probe_s": "s", "lineage.probes_n": "count",
    "lineage.hit_ratio": "1",
    "lang.parse_s": "s", "compiler.compile_s": "s",
    "compiler.rewrites_s": "s", "compiler.sizes_s": "s",
    "compiler.instgen_s": "s", "compiler.recompile_s": "s",
    "compiler.recompile_n": "count",
    "runtime.dispatch_self_s": "s", "api.self_s": "s",
    "trace.exec_self_s": "s", "trace.compiled_n": "count",
    "trace.hit_ratio": "1",
    "tensor.matmult_s": "s", "tensor.index_s": "s",
    "tensor.elementwise_s": "s", "tensor.solve_s": "s",
    "tensor.other_s": "s", "tensor.calls_n": "count",
    "bufferpool.api_s": "s", "bufferpool.spills_n": "count",
    "bufferpool.spill_mb": "MB", "bufferpool.restores_n": "count",
    "bufferpool.compressed_share": "1", "bufferpool.prefetch_hit_ratio": "1",
    "net.site_call_s": "s", "net.calls_n": "count", "net.serde_s": "s",
    "net.send_s": "s", "net.recv_wait_s": "s", "net.mb_moved": "MB",
    "net.resent_n": "count",
    "serving.submit_us": "us", "serving.queue_wait_ms": "ms",
    "serving.batch_exec_ms": "ms", "serving.batch_rows_mean": "count",
    "serving.rejected_n": "count",
    "loadgen.lag_ms": "ms",
    "serve.p99_ms": "ms", "serve.max_rps": "1/s",
    "span.job_wall_s": "s", "span.unattributed_s": "s",
    "span.untraced_job_s": "s", "span.overhead_ratio": "1",
}

SETUP_REPEATS = 3
MIN_JOBS = 3
#: Share of a serve_open run spent at the nominal rate (rest: rate search).
NOMINAL_SHARE = 0.75
#: Length of one serve_open window (s): ``job_s`` is the median of the
#: windows' p50 latencies, as a batch workload's is the median of its jobs.
WINDOW_S = 1.0
#: Traced jobs whose spans are kept for the Chrome trace file.
KEPT_TRACE_JOBS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# environment stamp and hygiene
# ---------------------------------------------------------------------------


def _blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (-1 when it cannot be asked)."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def _git_sha(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unavailable"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unavailable"


def _source_digest(root: str) -> str:
    """sha256 over ``src``'s Python files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(root: str, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _children() -> list:
    """Live child processes of this process, from /proc."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rshm-")}
    except OSError:
        return set()


def leftovers(run_dir: str, shm_before: set) -> list:
    """What the run left behind: child processes, segments, temp files."""
    tracker = getattr(multiprocessing.resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # the spawn helper; it owns no work of ours
    found = [f"child process {pid}" for pid in _children()]
    found += [f"shared memory {name}"
              for name in sorted(_shm_segments() - shm_before)]
    found += [f"temp file {name}" for name in sorted(os.listdir(run_dir))]
    return found


class OpenPools:
    """Buffer pools the program opens, so the run can close them.

    Every ``MLContext`` execution opens a buffer pool, and under paging a
    prefetch/writeback thread, that nothing in the public API closes.
    The run closes them with ``BufferPool.close`` after each job (outside
    the timed region) and warm-up, so threads and spill files do not pile
    up across jobs; ``threads_left`` counts the threads closing stopped.
    """

    def __init__(self):
        from repro.runtime.bufferpool import BufferPool

        self._cls, self._init = BufferPool, BufferPool.__init__
        self.pools = []
        self.threads_left = 0
        init, opened = self._init, self.pools

        def tracked(pool, *args, **kwargs):
            init(pool, *args, **kwargs)
            opened.append(pool)

        BufferPool.__init__ = tracked

    def close_all(self) -> None:
        before = threading.active_count()
        while self.pools:
            self.pools.pop().close()
        self.threads_left += before - threading.active_count()

    def uninstall(self) -> None:
        self.close_all()
        self._cls.__init__ = self._init


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------


class LayerAccount:
    """Per-layer sums over the traced jobs of one run."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.sums = defaultdict(float)
        self.jobs = 0
        self.kept = []

    def job(self, begin: float, end: float, transport_before, transport_after,
            pools) -> None:
        tracer = self.tracer
        spans = tracer.clear()
        if len(self.kept) < KEPT_TRACE_JOBS:
            self.kept.append((begin, spans))
        owned, unattributed = tracing.self_times(spans, begin, end)
        sums = self.sums
        for metric, names in tracing.SELF_TIME_METRICS.items():
            sums[metric] += sum(owned.get(name, 0.0) for name in names)
        sums["span.unattributed_s"] += unattributed
        sums["span.job_wall_s"] += end - begin
        for name, start, stop, *_ids in spans:
            if name.startswith("tensor."):
                sums["tensor.calls_n"] += 1
            elif name == "net.site_call":
                sums["net.calls_n"] += 1
            elif name == "compiler.recompile":
                sums["compiler.recompile_n"] += 1
            elif name == "io.read":
                sums["io.read_total_s"] += stop - start
        sums["io.read_bytes"] += tracer.read_bytes
        tracer.read_bytes = 0
        for pool in pools:
            for key, value in pool.stats.items():
                sums["pool." + key] += value
        for cache in tracer.created.pop("reuse", []):
            stats = cache.snapshot()
            sums["lineage.probes"] += stats["probes"]
            sums["lineage.hits"] += stats["hits_full"] + stats["hits_partial"]
        for cache in tracer.created.pop("traces", []):
            stats = cache.snapshot()
            sums["trace.compiled"] += stats["traces_compiled"]
            sums["trace.hits"] += stats["trace_hits"]
        sums["trace.offers"] += tracer.trace_offers
        tracer.trace_offers = 0
        if transport_before is not None:
            moved = sum(transport_after[k] - transport_before[k]
                        for k in ("bytes_sent", "bytes_received"))
            sums["net.bytes"] += moved
            sums["net.resent"] += (transport_after["resent_requests"]
                                   - transport_before["resent_requests"])
        self.jobs += 1

    def metrics(self) -> dict:
        s, n = self.sums, max(self.jobs, 1)
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for metric in tracing.SELF_TIME_METRICS:
            out[metric] = s[metric] / n
        for metric in ("tensor.calls_n", "net.calls_n", "compiler.recompile_n",
                       "span.unattributed_s", "span.job_wall_s"):
            out[metric] = s[metric] / n
        out["io.read_mb_per_s"] = _ratio(s["io.read_bytes"] / 1e6,
                                         s["io.read_total_s"])
        out["lineage.probes_n"] = s["lineage.probes"] / n
        out["lineage.hit_ratio"] = _ratio(s["lineage.hits"], s["lineage.probes"])
        out["trace.compiled_n"] = s["trace.compiled"] / n
        out["trace.hit_ratio"] = _ratio(s["trace.hits"], s["trace.offers"])
        spills = s["pool.compressed_spills"] + s["pool.raw_spills"]
        out["bufferpool.spills_n"] = spills / n
        out["bufferpool.spill_mb"] = s["pool.spill_bytes_written"] / 1e6 / n
        out["bufferpool.restores_n"] = s["pool.restores"] / n
        out["bufferpool.compressed_share"] = _ratio(
            s["pool.compressed_spills"], spills)
        out["bufferpool.prefetch_hit_ratio"] = _ratio(
            s["pool.prefetch_hits"], s["pool.prefetch_requests"])
        out["net.mb_moved"] = s["net.bytes"] / 1e6 / n
        out["net.resent_n"] = s["net.resent"] / n
        return out


def _set_up(make, run_dir: str, warm_up=None, after=None):
    """Set a workload up ``SETUP_REPEATS`` times and keep the last one.

    ``warm_up`` runs inside each timed setup, ``after`` after it.
    Returns the workload and the time of each setup, warm-up included.
    """
    setup_times, workload = [], None
    for rep in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        workload = make(os.path.join(run_dir, f"setup-{rep}"))
        start = time.perf_counter()
        workload.setup()
        if warm_up is not None:
            warm_up(workload)
        setup_times.append(time.perf_counter() - start)
        if after is not None:
            after(workload)
    return workload, setup_times


def run_batch(cls, args, run_dir: str, result: dict, pools: OpenPools) -> None:
    def warm_up(workload):  # imports, caches, worker pools
        outputs = workload.job()
        result["attempted"] += 1
        result["failed"] += not workload.check(outputs)
        pools.close_all()

    workload, setup_times = _set_up(
        lambda workdir: cls(args.seed, workdir), run_dir, warm_up)
    result["samples"]["setup_s"] = setup_times
    tracer = tracing.Tracer() if args.trace else None
    account = LayerAccount(tracer) if tracer else None
    transport = getattr(workload, "transport", None)
    times, traced_times = [], []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            traced = tracer is not None and len(traced_times) < len(times)
            if traced:
                tracer.install()
                tracer.clear()
                before = transport.snapshot() if transport else None
            start = time.perf_counter()
            ok = False
            try:
                outputs = workload.job()
                end = time.perf_counter()
                ok = workload.check(outputs)
            except Exception:  # noqa: BLE001 - a failed job is a data point
                end = time.perf_counter()
                traceback.print_exc(file=sys.stderr)
            finally:
                if traced:
                    tracer.uninstall()
            result["attempted"] += 1
            if not ok:
                result["failed"] += 1
            if traced:
                after = transport.snapshot() if transport else None
                account.job(start, end, before, after, pools.pools)
                traced_times.append(end - start)
            else:
                times.append(end - start)
            pools.close_all()
            outputs = None
            gc.collect()  # between jobs, so no job pays for another's garbage
            if time.perf_counter() >= deadline and len(times) >= MIN_JOBS \
                    and (tracer is None or len(traced_times) >= MIN_JOBS):
                break
    finally:
        workload.teardown()
    result["samples"]["job_s"] = times
    result["e2e"] = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if account is not None:
        layers = account.metrics()
        layers["span.untraced_job_s"] = statistics.median(times)
        layers["span.overhead_ratio"] = (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
        result["samples"]["traced_job_s"] = traced_times
        result["layers"] = layers
        result["trace_jobs"] = account.kept


# ---------------------------------------------------------------------------
# serve_open
# ---------------------------------------------------------------------------


def run_serve(args, run_dir: str, result: dict) -> None:
    tracer = tracing.Tracer() if args.trace else None
    # the nominal phase is split over the service instances the repeated
    # setup builds: one instance's luck (what the host did meanwhile)
    # moved a run's median by up to 40%
    chunks = 1 if tracer is None else 2
    chunk_s = args.seconds * NOMINAL_SHARE / (SETUP_REPEATS * chunks)
    # each untraced chunk is cut into windows, so a burst of host noise
    # moves the windows it falls in, not the run's median
    windows = max(1, round(chunk_s / WINDOW_S))
    phases = []

    def nominal(workload):
        for chunk in range(chunks):
            traced = chunk == 1
            if traced:
                tracer.install()
                try:
                    phases.append(
                        (True, workload.run_rate(NOMINAL_RATE, chunk_s)))
                finally:
                    tracer.uninstall()
                continue
            for _ in range(windows):
                phases.append((False, workload.run_rate(
                    NOMINAL_RATE, chunk_s / windows)))

    workload, setup_times = _set_up(
        lambda workdir: ServeOpen(args.seed, workdir), run_dir, after=nominal)
    result["samples"]["setup_s"] = setup_times
    try:
        # the search's peak rate differs from run to run, and with it the
        # memory of the requests in flight: take the peak before it
        peak_rss_mb = _peak_rss_mb()
        max_rate, probes = workload.search_max_rate(
            args.seconds * (1 - NOMINAL_SHARE) / SEARCH_STEPS)
        rejected = sum(model["rejected"] for model in
                       workload.service.snapshot().get("models", {}).values())
    finally:
        workload.teardown()
    plain = [phase for traced, phase in phases if not traced]
    latencies = np.concatenate([phase.latencies for phase in plain])
    lags = np.concatenate([phase.lags for phase in plain])
    for _traced, phase in phases:
        result["attempted"] += phase.attempted
        result["failed"] += phase.lost + phase.wrong
    for probe in probes:
        # the search drives the service past saturation on purpose: lost
        # requests there are its signal, wrong answers are still failures
        result["attempted"] += probe.attempted
        result["failed"] += probe.wrong
    window_p50s = [phase.percentile_ms(50) / 1e3 for phase in plain]
    result["samples"]["job_s"] = window_p50s
    p50 = statistics.median(window_p50s)
    p99 = float(np.percentile(latencies, 99))
    result["serve"] = {
        "nominal_rate": NOMINAL_RATE, "p99_limit_ms": P99_LIMIT_MS,
        "requests": int(len(latencies)), "windows": len(plain),
        "pooled_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "beyond_p99": int(np.sum(latencies > p99)),
        "p50_ms": p50 * 1e3, "p99_ms": p99 * 1e3,
        "lag_p50_ms": float(np.percentile(lags, 50)) * 1e3,
        "lag_max_ms": float(np.max(lags)) * 1e3,
        "max_rps": max_rate,
        "probes": [{"rate": p.rate, "p99_ms": p.percentile_ms(99),
                    "lost": p.lost, "meets_limit": p.meets_limit()}
                   for p in probes],
    }
    result["e2e"] = {
        "setup_s": statistics.median(setup_times),
        "job_s": p50,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        traced = [phase for was_traced, phase in phases if was_traced]
        traced_lat = np.concatenate([phase.latencies for phase in traced])
        spans = tracer.clear()
        submits = [stop - start for name, start, stop, *_ in spans
                   if name == "serving.submit"]
        layers = {name: 0.0 for name in PER_LAYER_UNITS}
        layers["serving.submit_us"] = float(np.median(submits)) * 1e6
        layers["serving.queue_wait_ms"] = float(
            np.median(tracer.queue_waits)) * 1e3
        layers["serving.batch_exec_ms"] = float(
            np.median([secs for _rows, secs in tracer.batches])) * 1e3
        layers["serving.batch_rows_mean"] = float(
            np.mean([rows for rows, _secs in tracer.batches]))
        layers["serving.rejected_n"] = float(rejected)
        layers["loadgen.lag_ms"] = float(np.percentile(lags, 50)) * 1e3
        layers["serve.p99_ms"] = p99 * 1e3
        layers["serve.max_rps"] = max_rate
        layers["span.untraced_job_s"] = p50
        layers["span.overhead_ratio"] = (
            float(np.percentile(traced_lat, 50)) / p50 - 1.0)
        result["layers"] = layers
        result["trace_jobs"] = [(spans[0][1] if spans else 0.0,
                                 spans[:200_000])]


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def _report(result: dict, args) -> dict:
    """Human-readable lines, then the metrics of the final JSON line."""
    samples = result["samples"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    counts = {"setup_s": len(samples.get("setup_s", [])),
              "job_s": len(samples.get("job_s", [])),
              "peak_rss_mb": 1}
    serve = result.get("serve")
    if serve:
        counts["job_s"] = serve["windows"]
        print(f"# serve: nominal {serve['nominal_rate']:.0f} req/s, "
              f"{serve['requests']} requests in {serve['windows']} windows, "
              f"p50 {serve['p50_ms']:.3f} ms (median of the windows' p50; "
              f"{serve['pooled_p50_ms']:.3f} ms over all requests), "
              f"p99 {serve['p99_ms']:.3f} ms "
              f"({serve['beyond_p99']} samples beyond), generator lag p50 "
              f"{serve['lag_p50_ms']:.3f} ms max {serve['lag_max_ms']:.1f} ms, "
              f"max rate {serve['max_rps']:.0f} req/s")
        for probe in serve["probes"]:
            print(f"#   probe {probe['rate']:9.1f} req/s  p99 "
                  f"{probe['p99_ms']:9.2f} ms  lost {probe['lost']}  "
                  f"{'meets' if probe['meets_limit'] else 'misses'} "
                  f"{serve['p99_limit_ms']:.0f} ms")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_ratio {_ratio(failed, attempted):.6f} "
          f"({failed} of {attempted} operations)")
    if result["pool_threads_left"]:
        print(f"# the program left {result['pool_threads_left']} buffer-pool "
              f"threads running after its jobs; the run closed their pools")
    for problem in result["leftovers"]:
        print(f"# leftover: {problem}")
    if args.trace:
        metrics = result["layers"]
        units = PER_LAYER_UNITS
        wall = metrics["span.job_wall_s"]
        if wall:
            covered = sum(metrics[m] for m in tracing.SELF_TIME_METRICS)
            print(f"# attribution: layers {covered:.6f} s + unattributed "
                  f"{metrics['span.unattributed_s']:.6f} s = wall {wall:.6f} s "
                  f"per traced job; tracing overhead "
                  f"{metrics['span.overhead_ratio'] * 100:+.1f}%")
    else:
        metrics = result["e2e"]
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        count = counts.get(name, "")
        print(f"{name:32s} {value:14.6f} {units[name]:6s} "
              f"{'n=' + str(count) if count != '' else ''}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def run(args, root: str, state: str, run_dir: str) -> int:
    src = os.path.join(root, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2
    shm_before = _shm_segments()
    result = {"env": environment(root, args), "attempted": 0, "failed": 0,
              "samples": {}}
    pools = OpenPools()
    try:
        if args.workload == "serve_open":
            run_serve(args, run_dir, result)
        else:
            run_batch(BATCH_WORKLOADS[args.workload], args, run_dir, result,
                      pools)
    except Exception:  # noqa: BLE001 - no result line on a broken run
        traceback.print_exc()
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1
    finally:
        pools.uninstall()
    result["pool_threads_left"] = pools.threads_left
    result["leftovers"] = leftovers(run_dir, shm_before)
    shutil.rmtree(run_dir, ignore_errors=True)
    result["failed"] += len(result["leftovers"])
    trace_jobs = result.pop("trace_jobs", None)
    metrics = _report(result, args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if trace_jobs:
        tracing.write_chrome_trace(
            os.path.join(state, "traces", tag + ".json"), trace_jobs)
    result["metrics"] = metrics
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    with open(os.path.join(state, "results", tag + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0
