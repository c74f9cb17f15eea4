"""Lifecycle benchmark of the repro system: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lmds_csv --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``lmds_csv`` — the paper's Fig 5(a)/(c) script: read CSV, k=20 lmDS
  models with lineage reuse, write the model CSV;
* ``steplm_paged`` — steplm with the buffer pool below its working set;
* ``fed_l2svm_tcp`` — a federated gradient loop over two tcp site workers;
* ``serve_open`` — open-loop single-row scoring over worker processes.

Batch workloads run one job at a time (closed loop, one client) for
``--seconds`` and report the median job time; ``serve_open`` holds a
nominal rate, then searches for the highest rate meeting its p99 limit.
Setup is repeated three times and its median reported, so
work moved into setup shows.  Every output is checked against an
independent NumPy oracle.  ``--trace 1`` instead interleaves traced and
untraced jobs and reports per-layer self time and counts (``tracing.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (failed, refused, timed-out or wrong operations, plus anything
the run left behind) and ``metrics``.  The full result, with samples and
an environment stamp, goes to ``.perfbench/results/``; the spans of a
traced run go to ``.perfbench/traces/`` as Chrome trace-event JSON.
``compare.py`` diffs two result directories.
"""

from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("lmds_csv", "steplm_paged", "fed_l2svm_tcp", "serve_open")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: {src}/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    run_dir = os.path.join(state, "tmp", f"run-{os.getpid()}")
    os.makedirs(run_dir)
    # before NumPy loads: one BLAS thread (the OpenBLAS build allows 64;
    # with one per core, steplm_paged slowed by 53% when a fifth of each
    # core was taken away, 33% with one), and keep every temp file of this
    # process and its workers inside the checkout
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["TMPDIR"] = run_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    import measure

    return measure.run(args, root, state, run_dir)


if __name__ == "__main__":
    sys.exit(main())
