"""Tests for generators, CSV ingestion, normalization, splits, and sweeps."""

import math
import warnings

import numpy as np
import pytest

from anovafit import (
    ConfigError,
    DataError,
    Dataset,
    FriedmanSpec,
    NumericalError,
    SplitPlan,
    friedman_eval,
    friedman_sample,
    load_csv,
    median_evaluate,
    normalize,
    rng_stream,
    split,
)
from anovafit import errors
from anovafit.datasets import Normalization, apply_normalization

from conftest import NoDraws


def reference_friedman(which, x):
    """Literal scalar reimplementation of the three benchmark formulas."""
    s1 = 100.0 * x[0]
    if which == 1:
        return (
            10.0 * math.sin(math.pi * x[0] * x[1])
            + 20.0 * (x[2] - 0.5) ** 2
            + 10.0 * x[3]
            + 5.0 * x[4]
        )
    s2 = 520.0 * math.pi * x[1] + 40.0 * math.pi
    s4 = 10.0 * x[3] + 1.0
    inner = s2 * x[2] - 1.0 / (s2 * s4)
    if which == 2:
        return math.sqrt(s1**2 + inner**2)
    if s1 == 0.0:
        return math.copysign(math.pi / 2.0, inner)
    return math.atan(inner / s1)


class TestFriedmanEval:
    def test_first_function_midpoint(self):
        x = np.full(10, 0.5)
        want = 10.0 * math.sin(math.pi * 0.25) + 10.0 * 0.5 + 5.0 * 0.5
        np.testing.assert_allclose(friedman_eval(FriedmanSpec(1), x), want, rtol=1e-15)
        np.testing.assert_allclose(friedman_eval(FriedmanSpec(1), x), 14.5710678, rtol=1e-7)

    def test_second_function_at_origin(self):
        value = friedman_eval(FriedmanSpec(2), np.zeros(4))
        np.testing.assert_allclose(value, 1.0 / (40.0 * math.pi), rtol=1e-14)

    def test_first_function_ignores_trailing_variables(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=10)
        y = x.copy()
        y[5:] = rng.uniform(size=5)
        spec = FriedmanSpec(1)
        assert friedman_eval(spec, x) == friedman_eval(spec, y)

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_independent_formula(self, which):
        spec = FriedmanSpec(which)
        rng = np.random.default_rng(which)
        nodes = rng.uniform(size=(1000, spec.dimension))
        got = friedman_eval(spec, nodes)
        want = np.array([reference_friedman(which, x) for x in nodes])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_third_function_singularity_limit(self):
        spec = FriedmanSpec(3)
        up = friedman_eval(spec, np.array([0.0, 0.5, 0.9, 0.5]))
        np.testing.assert_allclose(up, math.pi / 2.0, rtol=1e-12)
        down = friedman_eval(spec, np.array([0.0, 0.5, 0.0, 0.5]))
        np.testing.assert_allclose(down, -math.pi / 2.0, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            friedman_eval(FriedmanSpec(2), np.zeros(3))

    def test_which_validation(self):
        with pytest.raises(ConfigError):
            FriedmanSpec(4)


class TestFriedmanSample:
    def test_targets_replay_eval_plus_noise(self):
        # nodes first, then the noise, from the one generator of the seed
        spec = FriedmanSpec(3)
        ds = friedman_sample(spec, 50, 7)
        gen = np.random.default_rng(7)
        nodes = gen.uniform(0.0, 1.0, size=(50, spec.dimension))
        noise = spec.noise_scale * gen.standard_normal(50)
        np.testing.assert_array_equal(ds.nodes, nodes)
        np.testing.assert_array_equal(ds.targets, friedman_eval(spec, nodes) + noise)

    def test_noise_statistics(self):
        spec = FriedmanSpec(1)
        ds = friedman_sample(spec, 200, 11)
        residual = ds.targets - friedman_eval(spec, ds.nodes)
        assert abs(residual.mean()) < 0.25
        assert 0.8 < residual.std(ddof=1) < 1.2

    def test_seed_determinism(self):
        a = friedman_sample(FriedmanSpec(2), 40, 3)
        b = friedman_sample(FriedmanSpec(2), 40, 3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.targets, b.targets)

    def test_numpy_integer_seed(self):
        a = friedman_sample(FriedmanSpec(1), 5, np.int64(3))
        b = friedman_sample(FriedmanSpec(1), 5, 3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.targets, b.targets)

    def test_numpy_integer_size(self):
        a = friedman_sample(FriedmanSpec(1), np.int64(5), 3)
        b = friedman_sample(FriedmanSpec(1), 5, 3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.targets, b.targets)

    def test_nodes_inside_unit_cube(self):
        ds = friedman_sample(FriedmanSpec(1), 100, 5)
        assert ds.dimension == 10
        assert np.all(ds.nodes >= 0.0) and np.all(ds.nodes <= 1.0)

    def test_sample_beyond_physical_memory_is_refused_before_any_draw(self, monkeypatch):
        # Friedman-1 rows hold 10 coordinates and a target: 5 rows take 440 bytes
        monkeypatch.setattr(errors, "physical_memory", lambda: 440)
        assert friedman_sample(FriedmanSpec(1), 5, 0).size == 5
        monkeypatch.setattr(errors, "physical_memory", lambda: 439)
        with pytest.raises(ConfigError, match="a sample of 5 rows of 440 bytes exceeds the 439"):
            friedman_sample(FriedmanSpec(1), 5, NoDraws(np.random.PCG64(0)))

    def test_hostile_sample_size_is_a_config_error(self):
        # 8.8e15 bytes, beyond any machine's memory
        with pytest.raises(ConfigError, match=f"a sample of {10**15} rows of {88 * 10**15} bytes"):
            friedman_sample(FriedmanSpec(1), 10**15, NoDraws(np.random.PCG64(0)))


class TestRngStream:
    def test_purposes_are_independent(self):
        a = rng_stream(1, 0, "train").uniform(size=4)
        b = rng_stream(1, 0, "test").uniform(size=4)
        c = rng_stream(1, 1, "train").uniform(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, rng_stream(1, 0, "train").uniform(size=4))

    def test_unknown_purpose(self):
        with pytest.raises(ValueError):
            rng_stream(1, 0, "bogus")


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y")
        assert ds.size == 3 and ds.dimension == 2
        assert ds.columns == ("a", "b")
        np.testing.assert_array_equal(ds.targets, [3.0, 6.0, 9.0])

    def test_target_first_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a\n1,2\n3,4\n")
        ds = load_csv(path, "y")
        np.testing.assert_array_equal(ds.targets, [1.0, 3.0])
        np.testing.assert_array_equal(ds.nodes[:, 0], [2.0, 4.0])

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\nNaN,4\n")
        with pytest.raises(DataError, match=r"data.csv:3.*'a'"):
            load_csv(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,huh\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, "y")

    def test_missing_target(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="target column"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, "y")

    @pytest.mark.parametrize(
        "text, want",
        [
            ("a,y\r\n1,2\r\n\r\n3,4", ([[1.0], [3.0]], [2.0, 4.0])),
            ('"a","y"\n"1.5", 2 \n -3 ,"4e1"\n', ([[1.5], [-3.0]], [2.0, 40.0])),
            ("a,b,y\n1,2,3\n", ([[1.0, 2.0]], [3.0])),
            ("a,y\n1,2\n \n3,4\n", r"data.csv:3: expected 2 cells, got 1"),
            ("a,y\n1,2\n\n3,x\n", r"data.csv:4: column 'y': non-numeric cell 'x'"),
            ("a,y\n", r"data.csv: no data rows"),
            ("a,y\n\n\n", r"data.csv: no data rows"),
            ("a,b,y\n1,2,3\n4,5\n", r"data.csv:3: expected 3 cells, got 2"),
            ("a,y\n1,2\n3,inf\n", r"data.csv:3: column 'y': non-finite cell 'inf'"),
            ("a,y\nNaN,2\n", r"data.csv:2: column 'a': non-finite cell 'NaN'"),
            ("a,y\n1,2\n3,\n", r"data.csv:3: column 'y': non-numeric cell ''"),
            ("a,y\n1,1_0\n", r"data.csv:2: column 'y': non-numeric cell '1_0'"),
            ("a,y\n\uff11,2\n", r"data.csv:2: column 'a': non-numeric cell"),
            ("y\n1\n2\n", r"data.csv: no feature columns besides the target"),
            ("a,a,y\n1,2,3\n", r"data.csv: header repeats column 'a'"),
            ("y,a,y\n1,2,3\n", r"data.csv: header repeats column 'y'"),
        ],
        ids=[
            "crlf-blank-line-no-final-newline",
            "quoted-and-padded",
            "single-row",
            "whitespace-only-line",
            "blank-line-before-bad-cell",
            "header-only",
            "blank-body",
            "short-row",
            "inf",
            "nan",
            "empty-cell",
            "digit-separator",
            "full-width-digit",
            "target-only",
            "repeated-feature",
            "repeated-target",
        ],
    )
    def test_grammar(self, tmp_path, text, want):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(DataError, match=want):
                    load_csv(path, "y")
                return
            ds = load_csv(path, "y")
        nodes, targets = want
        np.testing.assert_array_equal(ds.nodes, nodes)
        np.testing.assert_array_equal(ds.targets, targets)
        assert ds.columns == tuple("ab"[: len(nodes[0])])

    def test_featureless_input(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ds = load_csv(path, None)
        assert ds.dimension == 2
        np.testing.assert_array_equal(ds.targets, [0.0, 0.0])


class TestNormalize:
    def test_midpoint_maps_to_half(self):
        ds = Dataset(np.array([[2.0], [3.0], [4.0]]), np.zeros(3), ("a",))
        out = normalize(ds)
        np.testing.assert_allclose(out.nodes[:, 0], [0.0, 0.5, 1.0])

    def test_test_values_clamp_to_unit_interval(self):
        train = Dataset(np.array([[0.0], [10.0]]), np.zeros(2), ("a",))
        test = Dataset(np.array([[-5.0], [15.0], [5.0]]), np.zeros(3), ("a",))
        out = apply_normalization(test, normalize(train).normalization)
        np.testing.assert_allclose(out.nodes[:, 0], [0.0, 1.0, 0.5])

    def test_already_unit_data_unchanged(self):
        rng = np.random.default_rng(2)
        nodes = rng.uniform(size=(20, 3))
        nodes[0] = 0.0
        nodes[1] = 1.0
        ds = Dataset(nodes, np.zeros(20), ("a", "b", "c"))
        out = normalize(ds)
        np.testing.assert_allclose(out.nodes, nodes, atol=1e-15)

    def test_idempotent_with_same_reference(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.uniform(5, 9, size=(15, 2)), rng.uniform(size=15), ("a", "b"))
        once = normalize(ds)
        assert normalize(once) is once

    def test_constant_column_maps_to_half(self):
        ds = Dataset(np.full((4, 2), [3.0, 1.0]), np.zeros(4), ("a", "b"))
        out = normalize(ds)
        np.testing.assert_array_equal(out.nodes[:, 0], np.full(4, 0.5))

    def test_target_normalization_flag(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([10.0, 30.0]), ("a",))
        out = normalize(ds, include_target=True)
        np.testing.assert_allclose(out.targets, [0.0, 1.0])
        assert out.normalization.target_min == 10.0
        assert out.normalization.target_max == 30.0

    def test_apply_recorded_stats(self):
        train = Dataset(np.array([[0.0], [4.0]]), np.array([1.0, 5.0]), ("a",))
        fitted = normalize(train, include_target=True)
        other = Dataset(np.array([[2.0]]), np.array([3.0]), ("a",))
        out = apply_normalization(other, fitted.normalization)
        np.testing.assert_allclose(out.nodes[:, 0], [0.5])
        np.testing.assert_allclose(out.targets, [0.5])

    def test_targets_mapped_exactly_when_the_extrema_include_them(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([2.0, 6.0]), ("a",))
        features = Normalization(np.array([1.0]), np.array([3.0]))
        both = Normalization(np.array([1.0]), np.array([3.0]), 2.0, 10.0)
        np.testing.assert_array_equal(apply_normalization(ds, features).targets, [2.0, 6.0])
        np.testing.assert_array_equal(apply_normalization(ds, both).targets, [0.0, 0.5])
        for stats in (features, both):
            np.testing.assert_array_equal(apply_normalization(ds, stats).nodes[:, 0], [0.0, 1.0])

    def test_a_normalized_dataset_is_not_mapped_again(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), np.zeros(3), ("a",))
        once = normalize(ds)
        other = normalize(Dataset(np.array([[0.0], [10.0]]), np.zeros(2), ("a",)))
        with pytest.raises(ConfigError, match="dataset is already normalized"):
            apply_normalization(once, other.normalization)


def _toy_dataset(size=10, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(size=(size, dim)),
        rng.uniform(size=size),
        tuple(f"x{i}" for i in range(1, dim + 1)),
    )


class TestSplit:
    def test_sizes(self):
        train, test = _split_helper(0.7, 10, 0)
        assert train.size == 7 and test.size == 3

    def test_deterministic(self):
        a = _split_helper(0.7, 30, 2)
        b = _split_helper(0.7, 30, 2)
        assert np.array_equal(a[0].nodes, b[0].nodes)
        assert np.array_equal(a[1].targets, b[1].targets)

    def test_partition_is_disjoint_and_complete(self):
        ds = _toy_dataset(size=40)
        plan = SplitPlan(train_fraction=0.6, repetitions=4, seed=9)
        train, test = split(ds, plan, 1)
        rows = {tuple(r) for r in ds.nodes}
        got = {tuple(r) for r in train.nodes} | {tuple(r) for r in test.nodes}
        assert got == rows
        assert train.size + test.size == ds.size

    def test_repetitions_differ(self):
        ds = _toy_dataset(size=30)
        plan = SplitPlan(train_fraction=0.5, repetitions=5, seed=1)
        seen = set()
        for rep in range(5):
            train, _ = split(ds, plan, rep)
            seen.add(tuple(map(tuple, train.nodes)))
        assert len(seen) == 5

    def test_empty_side_rejected(self):
        ds = _toy_dataset(size=3)
        with pytest.raises(DataError):
            split(ds, SplitPlan(train_fraction=0.01), 0)

    def test_rep_index_bounds(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError):
            split(ds, SplitPlan(train_fraction=0.5, repetitions=2), 2)

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            SplitPlan()
        with pytest.raises(ConfigError):
            SplitPlan(train_fraction=0.5, train_size=10, test_size=5)
        with pytest.raises(ConfigError):
            SplitPlan(train_fraction=1.5)
        with pytest.raises(ConfigError):
            SplitPlan(train_size=10)
        with pytest.raises(ConfigError):
            SplitPlan(train_fraction=0.5, repetitions=0)


def _split_helper(fraction, size, seed):
    ds = _toy_dataset(size=size, seed=seed)
    return split(ds, SplitPlan(train_fraction=fraction, seed=seed), 0)


class TestMedianEvaluate:
    def test_single_repetition(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=1)
        summary = median_evaluate(lambda tr, te: {"metric": 4.5}, ds, plan)
        assert summary.median == 4.5
        assert summary.repetitions == 1 and summary.failures == 0

    def test_median_of_three(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=3)
        canned = iter([1.0, 2.0, 9.0])
        summary = median_evaluate(lambda tr, te: {"metric": next(canned)}, ds, plan)
        assert summary.median == 2.0
        assert summary.values == (1.0, 2.0, 9.0)

    def test_failures_recorded_not_fatal(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=4)
        calls = iter([1.0, None, 3.0, None])

        def recipe(tr, te):
            value = next(calls)
            if value is None:
                raise NumericalError("boom")
            return {"metric": value}

        summary = median_evaluate(recipe, ds, plan)
        assert summary.failures == 2
        assert summary.median == 2.0

    def test_records_are_the_successful_repetitions_in_order(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=4)
        calls = iter([{"metric": 5.0, "n": 1}, None,
                      {"metric": 3.0, "n": 4}, {"metric": 4.0, "n": 2}])

        def recipe(tr, te):
            record = next(calls)
            if record is None:
                raise NumericalError("boom")
            return record

        summary = median_evaluate(recipe, ds, plan)
        assert summary.records == (
            {"rep": 0, "metric": 5.0, "n": 1},
            {"rep": 2, "metric": 3.0, "n": 4},
            {"rep": 3, "metric": 4.0, "n": 2},
        )
        assert summary.values == (5.0, 3.0, 4.0)
        assert (summary.median, summary.median_of("n")) == (4.0, 2.0)
        assert [f["rep"] for f in summary.failed_reps] == [1]

    def test_all_failures_raise(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=2)

        def recipe(tr, te):
            raise NumericalError("boom")

        with pytest.raises(NumericalError, match="all 2 repetitions failed"):
            median_evaluate(recipe, ds, plan)

    @pytest.mark.parametrize(
        "error", [DataError("bad"), FloatingPointError("bad"), np.linalg.LinAlgError("bad")]
    )
    def test_counted_failure_is_recorded(self, error):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=3)
        calls = []

        def recipe(tr, te):
            calls.append(tr)
            if len(calls) == 2:
                raise error
            return {"metric": 1.0}

        summary = median_evaluate(recipe, ds, plan)
        assert summary.failures == 1
        assert summary.failed_reps == (
            {"rep": 1, "type": type(error).__name__, "message": "bad"},
        )
        assert summary.to_json_obj()["failed_reps"] == list(summary.failed_reps)

    def test_programming_error_propagates(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=3)
        calls = []

        def recipe(tr, te):
            calls.append(tr)
            raise TypeError("bug")

        with pytest.raises(TypeError, match="bug"):
            median_evaluate(recipe, ds, plan)
        assert len(calls) == 1

    def test_config_error_propagates(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=3)
        calls = []

        def recipe(tr, te):
            calls.append(tr)
            raise ConfigError("a bad setting")

        with pytest.raises(ConfigError, match="a bad setting"):
            median_evaluate(recipe, ds, plan)
        assert len(calls) == 1

    def test_data_error_in_split_propagates(self):
        ds = _toy_dataset(size=3)
        plan = SplitPlan(train_fraction=0.1, repetitions=2)
        with pytest.raises(DataError, match="empty side"):
            median_evaluate(lambda tr, te: {"metric": 1.0}, ds, plan)

    def test_synthetic_source_generates_fresh_sets(self):
        plan = SplitPlan(train_size=30, test_size=50, repetitions=2, seed=5)
        sizes = []

        def recipe(tr, te):
            sizes.append((tr.size, te.size))
            return {"metric": 1.0}

        median_evaluate(recipe, FriedmanSpec(2), plan)
        assert sizes == [(30, 50), (30, 50)]

    def test_synthetic_source_needs_generated_plan(self):
        plan = SplitPlan(train_fraction=0.5)
        with pytest.raises(ConfigError):
            median_evaluate(lambda tr, te: {"metric": 1.0}, FriedmanSpec(1), plan)

    def test_summary_json_keys(self):
        ds = _toy_dataset(size=20)
        plan = SplitPlan(train_fraction=0.5, repetitions=1)
        summary = median_evaluate(lambda tr, te: {"metric": 2.0}, ds, plan)
        assert summary.to_json_obj() == {
            "median": 2.0,
            "q1": 2.0,
            "q3": 2.0,
            "repetitions": 1,
            "failures": 0,
            "failed_reps": [],
        }


class TestDatasetValidation:
    def test_non_finite_targets_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([1.0, np.inf]), ("a",))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.zeros(3), ("a",))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.zeros(2), ("a",))
