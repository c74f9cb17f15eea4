"""The four lifecycle workloads, each with its inputs, job and oracle.

Every workload generates its inputs from the run seed, so the program
only ever sees generated data.  Batch workloads expose ``setup``,
``job`` (the timed unit: ``MLContext`` construction to outputs
returned), ``check`` (an independent NumPy oracle) and ``teardown``.
``serve_open`` is request-driven and is measured by ``serving.py``.

Inputs are written with NumPy (``np.savetxt`` plus a hand-written
``.mtd`` file), never with the ``repro.io`` writers, so a change to the
system's CSV writer cannot move ``setup_s``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig

#: The paper's Figure 5(a)/(c) script: read CSV, k lmDS models, write CSV.
HYPEROPT_SCRIPT = """
X = read(x_path)
y = read(y_path)
k = nrow(lambdas)
B = matrix(0, ncol(X), k)
for (i in 1:k) {
  B[, i] = lmDS(X, y, reg=as.scalar(lambdas[i, 1]))
}
write(B, out_path, format="csv")
"""

#: An AIC threshold of 20 keeps pure-noise features out (the best of 24
#: noise candidates gains about chi2(1) - 2, far below 20) while every
#: planted feature gains thousands.
STEPLM_SCRIPT = "[B, S] = steplm(X, y, reg=0.000001, thr=20)"

#: The federated least-squares gradient loop of ``bench_transport``, sized
#: so payload bytes matter, not only per-frame latency.
FED_ITERATIONS = 20
FED_STEP = 0.1
FED_SCRIPT = """
Xf = federated(addresses=list(A1, A2), ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:%d) {
  margin = Xf %%*%% w
  diff = margin - y
  grad = t(Xf) %%*%% diff
  w = w - (%r / nrow(Xf)) * grad
}
obj = sum(diff * diff)
""" % (FED_ITERATIONS, FED_STEP)

#: Site addresses hash onto the tcp transport's two site workers by
#: ``crc32(address) % 2``; these two land on different workers, so the
#: job really talks to two processes.
FED_SITES = ("site-0:7001", "site-1:7001")


def _write_csv(path: str, data: np.ndarray) -> None:
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    meta = {"rows": data.shape[0], "cols": data.shape[1],
            "nnz": int(np.count_nonzero(data)), "data_type": "matrix",
            "format": "csv", "header": False}
    with open(path + ".mtd", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def pin_to_last_core() -> set:
    """Move this process to its last core; return the affinity to restore.

    Worker processes inherit the affinity, so a request/response workload
    that calls this before it spawns runs coordinator and workers on one
    core.  On a 2-core VM with a fifth of each core taken away (a
    SCHED_FIFO spinner standing in for hypervisor steal), fed_l2svm_tcp
    slowed by 57% and serve_open's p50 by 23% with coordinator and workers
    on different cores, each hop waiting to be woken on a core that was
    not running; on one core they slowed by 16-19% and 12-18%.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def _relerr(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


class BatchWorkload:
    """Base of the closed-loop workloads (one job at a time, one client)."""

    name = "abstract"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def job(self):
        raise NotImplementedError

    def check(self, outputs) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class LmdsCsv(BatchWorkload):
    """Fig 5(a)/(c): read dense X, y CSV, k=20 lmDS models, write CSV."""

    name = "lmds_csv"
    rows, cols, k = 8000, 96, 20
    #: Relative tolerance of each model column vs the NumPy ridge solve.
    rtol = 1e-6

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.X = rng.random((self.rows, self.cols))
        beta = rng.random((self.cols, 1))
        self.y = self.X @ beta + 0.01 * rng.standard_normal((self.rows, 1))
        self.lambdas = np.logspace(-7, 2, self.k).reshape(-1, 1)
        self.x_path = os.path.join(self.workdir, "X.csv")
        self.y_path = os.path.join(self.workdir, "y.csv")
        self.out_path = os.path.join(self.workdir, "models.csv")
        _write_csv(self.x_path, self.X)
        _write_csv(self.y_path, self.y)
        self.config = ReproConfig(
            native_blas=True, matmult_tile=64, enable_lineage=True,
            reuse_policy="full", spill_dir=os.path.join(self.workdir, "spill"),
        )
        xtx, xty = self.X.T @ self.X, self.X.T @ self.y
        eye = np.eye(self.cols)
        self.expected = np.hstack([
            np.linalg.solve(xtx + lam * eye, xty) for lam in self.lambdas[:, 0]
        ])

    def job(self):
        MLContext(self.config).execute(HYPEROPT_SCRIPT, inputs={
            "x_path": self.x_path, "y_path": self.y_path,
            "out_path": self.out_path, "lambdas": self.lambdas,
        })

    def check(self, outputs) -> bool:
        models = np.loadtxt(self.out_path, delimiter=",", ndmin=2)
        os.unlink(self.out_path)
        return models.shape == self.expected.shape \
            and _relerr(models, self.expected) <= self.rtol


class SteplmPaged(BatchWorkload):
    """steplm (paper Example 1) under a buffer pool below its working set."""

    name = "steplm_paged"
    rows, continuous, coded = 20000, 16, 16
    #: Planted features per column kind; steplm selects exactly these, so
    #: every seed does the same number of selection rounds.
    planted_per_kind = 4
    #: Pool budget far below the 5 MB input plus its cbind growth, so
    #: spills and restores take about half of a job.
    pool_budget = 2 * 1024**2
    #: Relative tolerance of B vs NumPy least squares on the selected S.
    rtol = 1e-6

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        # coded columns mimic transformencode output (small integer codes),
        # so CLA-compressed spills occur next to raw ones; the column
        # layout is fixed and only the values vary with the seed, so every
        # seed pages the same amount of data
        levels = 3 + np.arange(self.coded) % 6
        coded = np.column_stack([
            rng.integers(1, level + 1, size=self.rows) for level in levels
        ]).astype(np.float64)
        cont = rng.standard_normal((self.rows, self.continuous))
        self.X = np.hstack([cont, coded])
        step = self.continuous // self.planted_per_kind
        self.planted = [kind + j * step for kind in (0, self.continuous)
                        for j in range(self.planted_per_kind)]
        coef = rng.uniform(1.0, 3.0, size=len(self.planted))
        self.y = (self.X[:, self.planted] @ coef).reshape(-1, 1) \
            + 0.5 * rng.standard_normal((self.rows, 1))
        # one parfor worker: candidates run in order, so every run pages
        # the same blocks instead of interleaving two threads' accesses
        self.config = ReproConfig(
            bufferpool_budget_override=self.pool_budget, parallelism=1,
            spill_dir=os.path.join(self.workdir, "spill"),
        )

    def job(self):
        ml = MLContext(self.config)
        result = ml.execute(STEPLM_SCRIPT, inputs={"X": self.X, "y": self.y},
                            outputs=["B", "S"])
        outputs = result.matrix("B"), result.matrix("S")
        result.close()
        return outputs

    def check(self, outputs) -> bool:
        B, S = outputs
        S = S.ravel()
        chosen = [int(j) for j in np.argsort(S, kind="stable") if S[j] > 0]
        positions = sorted(S[chosen].tolist())
        if positions != list(range(1, len(chosen) + 1)) \
                or sorted(chosen) != self.planted:
            return False
        design = np.hstack([np.ones((self.rows, 1)), self.X[:, chosen]])
        beta, *_ = np.linalg.lstsq(design, self.y, rcond=None)
        expected = np.zeros((self.X.shape[1] + 1, 1))
        expected[0] = beta[0]
        for pos, j in enumerate(chosen, start=1):
            expected[j + 1] = beta[pos]
        return B.shape == expected.shape and _relerr(B, expected) <= self.rtol


class FedL2svmTcp(BatchWorkload):
    """Federated gradient loop over two tcp site workers."""

    name = "fed_l2svm_tcp"
    rows, cols = 100000, 32
    #: Relative tolerance of w and obj vs the plain NumPy replay.
    rtol = 1e-9

    def setup(self) -> None:
        from repro.net import for_config

        rng = np.random.default_rng(self.seed)
        self.X = rng.random((self.rows, self.cols))
        self.y = self.X @ rng.standard_normal((self.cols, 1))
        split = self.rows // 2
        self.config = ReproConfig(
            transport="tcp", spill_dir=os.path.join(self.workdir, "spill"))
        self.inputs = {
            "y": self.y, "A1": FED_SITES[0] + "/X", "A2": FED_SITES[1] + "/X",
            "R1": np.asarray([[0.0, 0.0, split, self.cols]]),
            "R2": np.asarray([[split, 0.0, self.rows, self.cols]]),
        }
        from repro.tensor import BasicTensorBlock

        self.cpus = pin_to_last_core()
        self.transport = for_config(self.config)
        self.registry = self.transport.registry()
        self.registry.clear()
        for address, part in zip(FED_SITES, (self.X[:split], self.X[split:])):
            self.registry.start_site(address).put(
                "X", BasicTensorBlock.from_numpy(part))
        w = np.zeros((self.cols, 1))
        for _ in range(FED_ITERATIONS):
            diff = self.X @ w - self.y
            w = w - (FED_STEP / self.rows) * (self.X.T @ diff)
        self.expected_w = w
        self.expected_obj = float(np.sum(diff * diff))

    def job(self):
        result = MLContext(self.config).execute(
            FED_SCRIPT, inputs=self.inputs, outputs=["w", "obj"])
        outputs = result.matrix("w"), result.scalar("obj")
        result.close()
        return outputs

    def check(self, outputs) -> bool:
        w, obj = outputs
        return w.shape == self.expected_w.shape \
            and _relerr(w, self.expected_w) <= self.rtol \
            and abs(obj - self.expected_obj) <= self.rtol * abs(self.expected_obj)

    def teardown(self) -> None:
        self.registry.clear()
        self.transport.close()
        os.sched_setaffinity(0, self.cpus)
        super().teardown()


BATCH_WORKLOADS = {cls.name: cls for cls in (LmdsCsv, SteplmPaged, FedL2svmTcp)}
