"""Benches A7 (generated readers) and A8 (steplm partial reuse) of DESIGN.md."""

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.io import csv as csv_io
from repro.io.formats import DelimitedFormat
from repro.io.generator import generate_reader
from repro.tensor import BasicTensorBlock

# ---------------------------------------------------------------------------
# A7: generated readers vs. the generic CSV reader
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("io") / "wide.csv")
    data = np.random.default_rng(6).random((20_000, 12))
    csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(data), path)
    return path, data


class TestA7Readers:
    def test_a7_generic_reader(self, benchmark, csv_file):
        path, data = csv_file
        result = benchmark.pedantic(
            lambda: csv_io.read_csv_matrix(path), rounds=3, iterations=1
        )
        assert result.shape == data.shape

    def test_a7_generated_reader(self, benchmark, csv_file):
        path, data = csv_file
        reader = generate_reader(DelimitedFormat("bench"))
        result = benchmark.pedantic(lambda: reader(path), rounds=3, iterations=1)
        assert result.shape == data.shape

    def test_a7_generated_projection_reader(self, benchmark, csv_file):
        # projecting 3 of 12 columns: generated code never parses the rest
        path, data = csv_file
        reader = generate_reader(DelimitedFormat("bench_proj", select_columns=(0, 5, 11)))
        result = benchmark.pedantic(lambda: reader(path), rounds=3, iterations=1)
        assert result.shape == (data.shape[0], 3)

    def test_a7_all_readers_agree(self, csv_file):
        path, data = csv_file
        generic = csv_io.read_csv_matrix(path).to_numpy()
        generated = generate_reader(DelimitedFormat("check"))(path).to_numpy()
        np.testing.assert_array_equal(generic, data)
        np.testing.assert_array_equal(generated, data)


# ---------------------------------------------------------------------------
# A8: steplm with and without partial reuse (the Example 1 case)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def steplm_problem():
    rng = np.random.default_rng(7)
    x = rng.random((3_000, 24))
    y = (
        3.0 * x[:, [2]] - 2.0 * x[:, [9]] + 1.5 * x[:, [17]]
        + 0.01 * rng.standard_normal((3_000, 1))
    )
    return x, y


class TestA8SteplmPartialReuse:
    def _run(self, problem, policy):
        x, y = problem
        config = ReproConfig(
            parallelism=4,
            enable_lineage=policy != "none",
            reuse_policy=policy,
        )
        ml = MLContext(config)
        result = ml.execute("[B, S] = steplm(X, y, thr=0.01)",
                            inputs={"X": x, "y": y}, outputs=["B", "S"])
        return ml, result

    def test_a8_steplm_plain(self, benchmark, steplm_problem):
        __, result = benchmark.pedantic(
            lambda: self._run(steplm_problem, "none"), rounds=1, iterations=1
        )
        assert result.matrix("S").max() > 0

    def test_a8_steplm_full_reuse(self, benchmark, steplm_problem):
        __, result = benchmark.pedantic(
            lambda: self._run(steplm_problem, "full"), rounds=1, iterations=1
        )
        assert result.matrix("S").max() > 0

    def test_a8_steplm_partial_reuse(self, benchmark, steplm_problem):
        ml, result = benchmark.pedantic(
            lambda: self._run(steplm_problem, "full_partial"), rounds=1, iterations=1
        )
        assert ml.reuse_cache.stats["hits_partial"] > 0

    def test_a8_selection_stable_across_policies(self, steplm_problem):
        selections = {}
        for policy in ("none", "full", "full_partial"):
            __, result = self._run(steplm_problem, policy)
            selections[policy] = tuple(result.matrix("S").ravel())
        assert selections["none"] == selections["full"] == selections["full_partial"]
