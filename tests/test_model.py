"""Tests for fitting, prediction, interpretation, and refinement."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    ConfigError,
    DataError,
    Dataset,
    DegenerateModelError,
    DesignOperator,
    DomainError,
    Model,
    Normalization,
    SensitivityReport,
    SolverConfig,
    TermSet,
    analyze,
    attribute_ranking,
    build_index_union,
    drop_variables,
    eval_tensor,
    fit,
    friedman_sample,
    gsi,
    incremental_expand,
    load_model,
    lsqr_solve,
    mse,
    predict,
    predict_term,
    relative_error,
    rmse,
    save_model,
    superposition_terms,
    threshold_active_set,
    variance,
)
from anovafit import basis, terms
from anovafit import model as model_module
from anovafit.datasets import FriedmanSpec, rng_stream
from anovafit.operators import NODE_BLOCK, dense_design_matrix

from conftest import gauss_legendre, random_termset, term_sets


def planted_model(dimension, terms, bandwidths, coefficients, kind=BasisKind.COSINE):
    """Model with hand-set coefficients, bypassing the solver."""
    termset = TermSet(dimension, terms)
    profile = BandwidthProfile.from_list(bandwidths)
    union = build_index_union(termset, profile, kind)
    coeffs = np.asarray(coefficients, dtype=kind.dtype)
    assert coeffs.shape == (union.size,)
    return Model(
        kind=kind,
        terms=termset,
        bandwidths=profile,
        index_union=union,
        coefficients=coeffs,
        regularization=0.0,
        iterations=0,
        relative_residual=0.0,
        stop_reason="tolerance",
        oversampling=2.0,
        real_output=not kind.is_complex,
    )


def naive_predict(model, nodes):
    """Independent per-point summation over the full frequency vectors."""
    full = model.index_union.frequencies_full()
    out = np.zeros(len(nodes), dtype=model.kind.dtype)
    for m, x in enumerate(np.asarray(nodes, dtype=float)):
        acc = model.kind.dtype.type(0.0)
        for c, k in zip(model.coefficients, full):
            acc += c * eval_tensor(model.kind, k, x)
        out[m] = acc
    return out.real if model.real_output else out


class TestFit:
    def test_constant_data_constant_model(self):
        nodes = np.random.default_rng(0).uniform(size=(12, 2))
        model = fit(
            nodes,
            np.full(12, 5.0),
            TermSet(2, ()),
            BandwidthProfile(),
            BasisKind.COSINE,
        )
        np.testing.assert_allclose(model.coefficients, [5.0], rtol=1e-12)
        np.testing.assert_allclose(predict(model, nodes), np.full(12, 5.0), rtol=1e-12)

    def test_recovers_planted_expansion(self):
        rng = np.random.default_rng(4)
        termset = superposition_terms(3, 2)
        bw = BandwidthProfile.from_list([4, 2])
        union = build_index_union(termset, bw, BasisKind.COSINE)
        planted = rng.standard_normal(union.size)
        nodes = rng.uniform(size=(4 * union.size, 3))
        reference = planted_model(3, termset.terms, [4, 2], planted)
        values = predict(reference, nodes)
        model = fit(nodes, values, termset, bw, BasisKind.COSINE,
                    SolverConfig(tolerance=1e-13))
        np.testing.assert_allclose(model.coefficients, planted, rtol=1e-7, atol=1e-9)

    def test_friedman1_final_setting_reaches_reference_scale(self):
        # 200 noisy training points, 1000 noisy test points, the final
        # six-term active set: test MSE lands near the reference value
        spec = FriedmanSpec(1)
        train = friedman_sample(spec, 200, rng_stream(0, 0, "train"))
        test = friedman_sample(spec, 1000, rng_stream(0, 0, "test"))
        active = TermSet(10, ((1,), (2,), (3,), (4,), (5,), (1, 2)), 2)
        model = fit(
            train.nodes,
            train.targets,
            active,
            BandwidthProfile.from_list([6, 4]),
            BasisKind.COSINE,
            SolverConfig(regularization=1.0),
        )
        assert len(model.coefficients) == 35
        error = mse(test.targets, predict(model, test.nodes))
        assert 0.9 < error < 2.5

    def test_low_oversampling_warns(self):
        rng = np.random.default_rng(1)
        termset = superposition_terms(2, 2)
        bw = BandwidthProfile.from_list([4, 4])
        with pytest.warns(UserWarning, match="oversampling"):
            fit(rng.uniform(size=(8, 2)), rng.standard_normal(8), termset, bw,
                BasisKind.COSINE)

    def test_empty_data_rejected(self):
        # each solver rejects it, before the oversampling warning of a solved fit
        for lam in (0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="zero-length system"):
                    fit(np.zeros((0, 2)), np.zeros(0), superposition_terms(2, 1),
                        BandwidthProfile.from_list([2]), BasisKind.COSINE, SolverConfig(lam))


class TestSolvePath:
    """Which solver ``fit`` runs, on the Friedman-1 ranking stage (200 x 76)."""

    LAM = 3.0

    @staticmethod
    def _train():
        return friedman_sample(FriedmanSpec(1), 200, rng_stream(0, 0, "train"))

    @staticmethod
    def _union():
        return build_index_union(
            superposition_terms(10, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
        )

    def _fit(self, **config):
        train = self._train()
        return fit(train.nodes, train.targets, superposition_terms(10, 2),
                   BandwidthProfile.from_list([4, 2]), BasisKind.COSINE,
                   SolverConfig(**config))

    def test_stage_fit_is_direct_and_agrees_with_lsqr(self):
        direct = self._fit(regularization=self.LAM)
        assert (direct.stop_reason, direct.iterations) == ("direct", 0)
        train = self._train()
        lsqr = lsqr_solve(DesignOperator(train.nodes, self._union()), train.targets,
                          SolverConfig(regularization=self.LAM, tolerance=1e-8))
        assert lsqr.stop_reason == "tolerance" and lsqr.iterations > 0
        rel = np.linalg.norm(direct.coefficients - lsqr.coefficients)
        assert rel / np.linalg.norm(direct.coefficients) < 1e-6

    def test_iteration_cap_does_not_choose_the_solver(self):
        capped = self._fit(regularization=self.LAM, max_iterations=5)
        assert (capped.stop_reason, capped.iterations) == ("direct", 0)
        uncapped = self._fit(regularization=self.LAM)
        assert np.array_equal(capped.coefficients, uncapped.coefficients)

    def test_direct_fit_is_bitwise_repeatable(self):
        first = self._fit(regularization=self.LAM)
        second = self._fit(regularization=self.LAM)
        assert first.stop_reason == "direct"
        assert np.array_equal(first.coefficients, second.coefficients)

    def test_zero_regularization_runs_lsqr(self, monkeypatch):
        # within the size rule: LSQR applies through the operator's dense matrix
        assert 200 * 76**2 <= model_module.DIRECT_SOLVE_MAX_WORK
        built = []

        def recording(*args):
            built.append(DesignOperator(*args))
            return built[-1]

        monkeypatch.setattr(model_module, "DesignOperator", recording)
        model = self._fit()
        assert model.stop_reason == "tolerance" and model.iterations > 0
        assert built[0]._dense is not None
        train = self._train()
        structured = lsqr_solve(DesignOperator(train.nodes, self._union()), train.targets)
        gap = np.linalg.norm(model.coefficients - structured.coefficients)
        assert gap <= 1e-10 * np.linalg.norm(structured.coefficients)  # 2.3e-13 measured

    def test_size_rule(self, monkeypatch):
        work = 200 * 76**2
        monkeypatch.setattr(model_module, "DIRECT_SOLVE_MAX_WORK", work)
        assert self._fit(regularization=self.LAM).stop_reason == "direct"
        monkeypatch.setattr(model_module, "DIRECT_SOLVE_MAX_WORK", work - 1)
        assert self._fit(regularization=self.LAM).stop_reason == "tolerance"

    def test_conditioning_guard(self, monkeypatch):
        dense = DesignOperator(self._train().nodes, self._union()).dense()
        # the rule: (||F||_F^2 + lam) / lam * eps <= DIRECT_SOLVE_MAX_ERROR
        bound = (np.sum(dense**2) + self.LAM) / self.LAM * np.finfo(np.float64).eps
        monkeypatch.setattr(model_module, "DIRECT_SOLVE_MAX_ERROR", 1.001 * bound)
        assert self._fit(regularization=self.LAM).stop_reason == "direct"
        monkeypatch.setattr(model_module, "DIRECT_SOLVE_MAX_ERROR", 0.999 * bound)
        below = self._fit(regularization=self.LAM)
        assert below.stop_reason != "direct" and below.iterations > 0
        monkeypatch.undo()
        assert self._fit(regularization=1e-9).stop_reason != "direct"

    def test_tolerance_does_not_choose_the_solver(self):
        # tolerances below (||F||_F^2 + lam) / lam * eps at lam = 3 (1.1e-12) and
        # above it at lam = 1e-9 (3.3e-3): the path follows the guard's constant alone
        tight = self._fit(regularization=self.LAM, tolerance=1e-13)
        assert (tight.stop_reason, tight.iterations) == ("direct", 0)
        assert self._fit(regularization=1e-9, tolerance=0.5).stop_reason != "direct"


def test_default_tolerance_costs_no_accuracy():
    """The default tolerance (1e-6) against 1e-8 on a noisy fit above the size rule.

    A d=10, ds=2, N=(6,4) cosine fit (456 columns) to 2000 rows of Friedman-1
    plus unit noise at lam = 1, scored on 2000 fresh rows.  Over seeds 0-49 the
    default took 20-21 iterations against 26-28, both stopping on the
    tolerance, and its held-out MSE lay within [-6.9e-7, +1.2e-6] relative of
    the 1e-8 fit's (-4.5e-7 at seed 0); the band below is 2.5 times the widest.
    """
    rng = np.random.default_rng(0)
    train, test = (friedman_sample(FriedmanSpec(1), 2000, rng) for _ in range(2))
    termset, profile = superposition_terms(10, 2), BandwidthProfile.from_list([6, 4])
    assert 2000 * 456**2 > model_module.DIRECT_SOLVE_MAX_WORK
    default, tight = (
        fit(train.nodes, train.targets, termset, profile, BasisKind.COSINE, config)
        for config in (SolverConfig(regularization=1.0),
                       SolverConfig(regularization=1.0, tolerance=1e-8))
    )
    assert default.stop_reason == tight.stop_reason == "tolerance"
    assert default.iterations < tight.iterations
    mse_default, mse_tight = (mse(test.targets, predict(m, test.nodes)) for m in (default, tight))
    assert abs(mse_default - mse_tight) <= 3e-6 * mse_tight


@functools.lru_cache(maxsize=None)
def _grid_free_problem(kind, bandwidths, rows):
    """Nodes, targets and the dense oracle of ``TestNoFrequencyGrid``'s term set."""
    rng = np.random.default_rng(rows)
    X = rng.uniform(*kind.domain, size=(rows, 4))
    y = rng.normal(size=rows)
    profile = BandwidthProfile(dict(bandwidths))
    union = build_index_union(TestNoFrequencyGrid.TERMS, profile, kind)
    return X, y, dense_design_matrix(X, union)


class TestNoFrequencyGrid:
    """``fit`` and ``predict`` read bandwidths and variable positions, and build no grid."""

    # orders 1 and 3 of d = 4, order 2 skipped
    TERMS = TermSet(4, ((1,), (2,), (4,), (1, 2, 4), (2, 3, 4)))
    # bandwidths, rows, lam, stop reason, bound on the coefficients' relative gap to
    # the oracle's solution (largest over the bases measured: 2.1e-14, 2.7e-7,
    # 5.4e-10).  70 columns on 100 rows lie within the size rule (solved directly
    # at lam > 0, by LSQR through the dense matrix at lam = 0); 714 columns on 20
    # rows lie above it (LSQR on the structured applies)
    CASES = {
        "direct": (((1, 6), (3, 4)), 100, 1.0, "direct", 1e-12),
        "lsqr_within_rule": (((1, 6), (3, 4)), 100, 0.0, "tolerance", 1e-5),
        "lsqr_above_rule": (((1, 10), (3, 8)), 20, 1.0, "tolerance", 1e-8),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_fit_and_predict_match_the_dense_oracle(self, kind, case, monkeypatch):
        bandwidths, rows, lam, stop, bound = self.CASES[case]
        X, y, F = _grid_free_problem(kind, bandwidths, rows)
        assert (rows * F.shape[1] ** 2 <= model_module.DIRECT_SOLVE_MAX_WORK) == (
            case != "lsqr_above_rule"
        )

        def refusing(*args):
            raise AssertionError("a frequency grid was built")

        with monkeypatch.context() as patch:
            for module in (basis, terms):
                patch.setattr(module, "full_grid_1d", refusing)
            with warnings.catch_warnings():
                # 20 rows under 714 columns: the oversampling warning, as intended
                warnings.simplefilter("ignore", UserWarning)
                model = fit(X, y, self.TERMS, BandwidthProfile(dict(bandwidths)), kind,
                            SolverConfig(regularization=lam, tolerance=1e-8))
            values = predict(model, X)
        assert model.stop_reason == stop
        if lam:
            # (F^H F + lam I)^-1 F^H y, through the rows x rows system
            expected = F.conj().T @ np.linalg.solve(F @ F.conj().T + lam * np.eye(rows), y)
        else:
            expected = np.linalg.lstsq(F, y, rcond=None)[0]
        gap = np.linalg.norm(model.coefficients - expected) / np.linalg.norm(expected)
        assert gap < bound
        # 8.1e-15 measured
        assert np.allclose(values, (F @ model.coefficients).real, rtol=0.0, atol=1e-12)


class TestPredict:
    def test_constant_model(self):
        model = planted_model(2, (), [], [2.5])
        np.testing.assert_array_equal(predict(model, [[0.3, 0.4]]), [2.5])

    def test_training_nodes_match_operator_product(self):
        rng = np.random.default_rng(6)
        termset = superposition_terms(2, 2)
        bw = BandwidthProfile.from_list([4, 2])
        nodes = rng.uniform(size=(30, 2))
        model = fit(nodes, rng.standard_normal(30), termset, bw, BasisKind.COSINE)
        from anovafit import DesignOperator

        op = DesignOperator(nodes, model.index_union)
        np.testing.assert_allclose(
            predict(model, nodes), op.matvec(model.coefficients), rtol=1e-14
        )

    @pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
    def test_matches_naive_summation(self, kind):
        rng = np.random.default_rng(7)
        termset = superposition_terms(3, 2)
        bw = BandwidthProfile.from_list([4, 2])
        union = build_index_union(termset, bw, kind)
        coeffs = rng.standard_normal(union.size)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(union.size)
        model = planted_model(3, termset.terms, [4, 2], coeffs, kind)
        lo, hi = kind.domain
        nodes = rng.uniform(lo, hi, size=(12, 3))
        got = predict(model, nodes)
        want = naive_predict(model, nodes)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes_rejected(self, kind, bad):
        termset = superposition_terms(3, 1)
        union = build_index_union(termset, BandwidthProfile.from_list([4]), kind)
        model = planted_model(3, termset.terms, [4], np.ones(union.size), kind)
        with pytest.raises(DomainError, match="finite") as info:
            predict(model, [[bad, 0.1, 0.1]])
        assert isinstance(info.value, DataError)

    @pytest.mark.parametrize(
        "kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_zero_rows_give_empty_prediction(self, kind, order):
        terms = superposition_terms(3, order).terms
        union = build_index_union(
            TermSet(3, terms), BandwidthProfile.from_list([4, 4, 4][:order]), kind
        )
        coeffs = np.arange(union.size, dtype=kind.dtype)
        model = planted_model(3, terms, [4, 4, 4][:order], coeffs, kind)
        values = predict(model, np.empty((0, 3)))
        assert values.shape == (0,)
        assert values.dtype == (np.float64 if model.real_output else np.complex128)

    @staticmethod
    def _blocked_instance(kind, order, rows):
        """Planted d=5 model up to ``order`` and ``rows`` nodes.

        Its orders differ in grid length and in the variables they use.
        """
        terms = ((1,), (2,), (3,), (4,), (5,), (1, 2), (2, 4), (3, 4), (1, 2, 4), (2, 3, 4))
        terms = tuple(u for u in terms if len(u) <= order)
        bandwidths = [6, 4, 4][:order]
        rng = np.random.default_rng(12)
        profile = BandwidthProfile.from_list(bandwidths)
        size = build_index_union(TermSet(5, terms), profile, kind).size
        coeffs = rng.standard_normal(size)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(size)
        lo, hi = kind.domain
        nodes = rng.uniform(lo, hi, size=(rows, 5))
        return planted_model(5, terms, bandwidths, coeffs, kind), nodes

    @pytest.mark.parametrize(
        "kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.filterwarnings("error")
    def test_row_blocks_equal_one_operator(self, kind, order):
        block = NODE_BLOCK
        model, nodes = self._blocked_instance(kind, order, 2 * block + 17)
        term = model.terms.terms[-1]
        sl = model.index_union.slice_for(term)
        only_term = np.zeros_like(model.coefficients)
        only_term[sl] = model.coefficients[sl]
        finish = np.real if model.real_output else np.asarray
        for got, coeffs in (
            (predict(model, nodes), model.coefficients),
            (predict_term(model, term, nodes), only_term),
        ):
            # bitwise: each block is one operator's matvec on its own rows
            for start in range(0, len(nodes), block):
                op = DesignOperator(nodes[start:start + block], model.index_union)
                np.testing.assert_array_equal(
                    got[start:start + block], finish(op.matvec(coeffs))
                )
            # to rounding only: BLAS may round a row differently at another
            # position of a longer product
            whole = DesignOperator(nodes, model.index_union).matvec(coeffs)
            np.testing.assert_allclose(got, finish(whole), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize(
        "kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]
    )
    def test_row_blocks_keep_the_node_errors(self, kind):
        model, nodes = self._blocked_instance(kind, 2, 2 * NODE_BLOCK + 17)
        with pytest.raises(DataError, match="coordinates"):
            predict(model, np.empty((0, 4)))
        with pytest.raises(DataError, match="coordinates"):
            predict_term(model, (1,), np.empty((0, 6)))
        nodes[-1, 2] = np.nan if kind.is_complex else 1.5
        with pytest.raises(DomainError):
            predict(model, nodes)
        with pytest.raises(DomainError):
            predict_term(model, (1,), nodes)

    def test_row_blocks_bound_prediction_memory(self):
        block = NODE_BLOCK
        model, nodes = self._blocked_instance(BasisKind.COSINE, 3, 3 * block + 5)

        def peak(rows):
            tracemalloc.start()
            try:
                predict(model, nodes[:rows])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * block + 5) <= 1.5 * peak(block)

    def test_term_decomposition_sums_to_prediction(self):
        rng = np.random.default_rng(8)
        spec = FriedmanSpec(2)
        train = friedman_sample(spec, 150, rng)
        termset = superposition_terms(4, 2)
        model = fit(train.nodes, train.targets, termset,
                    BandwidthProfile.from_list([4, 2]), BasisKind.COSINE)
        nodes = rng.uniform(size=(40, 4))
        total = sum(predict_term(model, u, nodes) for u in termset)
        np.testing.assert_allclose(predict(model, nodes), total, rtol=1e-12, atol=1e-12)

    def test_term_prediction_details(self):
        # coefficients live only on term {1}; term {2} contributes nothing
        model = planted_model(2, ((1,), (2,)), [4], [1.0, 0.5, -0.25, 2.0, 0, 0, 0])
        nodes = np.random.default_rng(9).uniform(size=(10, 2))
        np.testing.assert_array_equal(predict_term(model, (2,), nodes), np.zeros(10))
        np.testing.assert_allclose(predict_term(model, (), nodes), np.full(10, 1.0))
        with pytest.raises(ValueError, match="not part"):
            predict_term(model, (1, 2), nodes)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(
            [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]
        ),
        max_order=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_term_predictions_sum_to_prediction(self, kind, max_order, seed):
        rng = np.random.default_rng(seed)
        dimension = int(rng.integers(max_order, 6))
        termset = random_termset(rng, dimension, max_order)
        bandwidths = [int(rng.choice([2, 4, 6]))]
        bandwidths += [int(rng.choice([2, 4])) for _ in range(max_order - 1)]
        union = build_index_union(termset, BandwidthProfile.from_list(bandwidths), kind)
        coeffs = rng.standard_normal(union.size)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(union.size)
        model = planted_model(dimension, termset.terms, bandwidths, coeffs, kind)
        lo, hi = kind.domain
        nodes = rng.uniform(lo, hi, size=(int(rng.integers(1, 20)), dimension))
        total = sum(predict_term(model, u, nodes) for u in termset)
        np.testing.assert_allclose(total, predict(model, nodes), rtol=1e-10, atol=1e-10)
        absent = next(
            (u for u in superposition_terms(dimension, max_order) if u not in termset),
            (dimension + 1,),
        )
        with pytest.raises(ConfigError, match="not part"):
            predict_term(model, absent, nodes)


class TestVarianceAndGsi:
    def test_constant_model_has_zero_variance(self):
        model = planted_model(2, ((1,),), [2], [7.0, 0.0])
        assert variance(model) == 0.0
        with pytest.raises(DegenerateModelError):
            gsi(model)

    def test_parseval_arithmetic(self):
        model = planted_model(2, ((1,), (2,)), [2], [1.0, 3.0, 4.0])
        assert variance(model) == 25.0

    def test_variance_homogeneity(self):
        model = planted_model(2, ((1,), (2,)), [2], [1.0, 3.0, 4.0])
        doubled = planted_model(2, ((1,), (2,)), [2], [2.0, 6.0, 8.0])
        assert variance(doubled) == 4.0 * variance(model)

    def test_share_arithmetic(self):
        # squared sums 3 and 1 over the two singleton terms
        model = planted_model(2, ((1,), (2,)), [4], [0.5, 1, 1, 1, 1, 0, 0])
        report = gsi(model)
        rho = dict(report.indices)
        np.testing.assert_allclose(rho[(1,)], 0.75, rtol=1e-14)
        np.testing.assert_allclose(rho[(2,)], 0.25, rtol=1e-14)

    def test_single_active_term_gets_everything(self):
        model = planted_model(3, ((2,),), [4], [0.0, 1.0, 2.0, -1.0])
        report = gsi(model)
        assert dict(report.indices)[(2,)] == 1.0

    def test_sorted_indices_deterministic(self):
        report = SensitivityReport(
            dimension=3,
            variance=1.0,
            indices=(((1,), 0.25), ((2,), 0.25), ((1, 2), 0.5)),
        )
        assert report.sorted_indices() == (((1, 2), 0.5), ((1,), 0.25), ((2,), 0.25))

    def test_quadrature_variance_identity(self):
        # integral of |Sf - constant|^2 over the unit square equals the
        # coefficient-space variance
        rng = np.random.default_rng(10)
        termset = superposition_terms(2, 2)
        bw = BandwidthProfile.from_list([4, 4])
        union = build_index_union(termset, bw, BasisKind.COSINE)
        model = planted_model(
            2, termset.terms, [4, 4], rng.standard_normal(union.size)
        )
        x, wx = gauss_legendre(40, 0.0, 1.0)
        grid = np.array([(a, b) for a in x for b in x])
        weights = np.array([wa * wb for wa in wx for wb in wx])
        values = predict(model, grid) - model.coefficients[0]
        integral = float(np.sum(weights * np.abs(values) ** 2))
        np.testing.assert_allclose(integral, variance(model), atol=1e-6)


class TestRanking:
    def test_hand_computed_example(self):
        report = SensitivityReport(
            dimension=2,
            variance=1.0,
            indices=(((1,), 0.5), ((2,), 0.3), ((1, 2), 0.2)),
        )
        ranking = attribute_ranking(report)
        np.testing.assert_allclose(ranking, [0.7 / 1.2, 0.5 / 1.2], rtol=1e-12)

    def test_ranking_without_mass_is_degenerate(self):
        report = SensitivityReport(dimension=2, variance=1.0, indices=(((1,), 0.0),))
        with pytest.raises(DegenerateModelError, match="no sensitivity mass"):
            attribute_ranking(report)

    def test_single_variable_takes_all(self):
        report = SensitivityReport(
            dimension=3, variance=1.0, indices=(((2,), 1.0),)
        )
        ranking = attribute_ranking(report)
        np.testing.assert_array_equal(ranking, [0.0, 1.0, 0.0])

    def test_count_weights_divide_shared_orders(self):
        # orders with many terms per variable get down-weighted
        termset = superposition_terms(3, 2)
        report = SensitivityReport(
            dimension=3,
            variance=1.0,
            indices=tuple((u, 1.0 / 6.0) for u in termset.nonempty_terms),
        )
        ranking = attribute_ranking(report)
        np.testing.assert_allclose(ranking, [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)

    def test_friedman1_informative_variables_clear_the_bands(self):
        # the five informative variables rank above 0.07, the five inert
        # ones below 0.02, for the order-2 fit with N=(4,2) and lambda=3
        from anovafit.bench import FRIEDMAN_RECIPES, friedman_rep_data, run_recipe

        train, _ = friedman_rep_data(1, 0, 0)
        _, (report,) = run_recipe(FRIEDMAN_RECIPES[1][:1], train)
        assert min(report.ranking[:5]) > 0.07
        assert max(report.ranking[5:]) < 0.02

    def test_friedman2_dominant_terms(self):
        # terms {2}, {3}, {2,3} dominate the sensitivity mass
        from anovafit.bench import FRIEDMAN_RECIPES, friedman_rep_data, run_recipe

        for rep in range(3):
            train, _ = friedman_rep_data(2, rep, 0)
            _, (report,) = run_recipe(FRIEDMAN_RECIPES[2][:1], train)
            dominant = {(2,), (3,), (2, 3)}
            for term, rho in report.indices:
                if term in dominant:
                    assert rho > 0.1
                else:
                    assert rho < 0.02

    def test_scale_invariance_of_interpretation(self):
        rng = np.random.default_rng(11)
        spec = FriedmanSpec(2)
        train = friedman_sample(spec, 120, rng)
        termset = superposition_terms(4, 2)
        bw = BandwidthProfile.from_list([4, 2])
        base = analyze(
            fit(train.nodes, train.targets, termset, bw, BasisKind.COSINE)
        )
        scaled = analyze(
            fit(train.nodes, 3.7 * train.targets, termset, bw, BasisKind.COSINE)
        )
        for (u, rho_a), (_, rho_b) in zip(base.indices, scaled.indices):
            np.testing.assert_allclose(rho_a, rho_b, atol=1e-9)
        np.testing.assert_allclose(base.ranking, scaled.ranking, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=19,
            max_size=19,
        )
    )
    def test_normalizations_hold_for_random_coefficients(self, coeffs):
        # d = 4, order 2, N = (4, 2): 1 + 4*3 + 6*1 = 19 coefficients
        model = planted_model(4, superposition_terms(4, 2).terms, [4, 2], coeffs)
        if variance(model) == 0.0:
            return
        report = analyze(model)
        total_rho = sum(value for _, value in report.indices)
        np.testing.assert_allclose(total_rho, 1.0, atol=1e-10)
        np.testing.assert_allclose(report.ranking.sum(), 1.0, atol=1e-10)


    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(
            [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]
        ),
        termset=term_sets(),
        n_higher=st.sampled_from([2, 4]),
        lam=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @pytest.mark.filterwarnings("ignore:.*oversampling:UserWarning")
    def test_fitted_indices_and_ranking_sum_to_one(self, kind, termset, n_higher, lam, seed):
        assume(len(termset) > 1)
        rng = np.random.default_rng(seed)
        lo, hi = kind.domain
        nodes = rng.uniform(lo, hi, size=(40, termset.dimension))
        model = fit(
            nodes, rng.standard_normal(40), termset,
            BandwidthProfile.from_list([4, n_higher, n_higher]), kind,
            SolverConfig(regularization=lam),
        )
        assume(variance(model) > 0.0)
        report = analyze(model)
        rho = np.array([value for _, value in report.indices])
        assert [u for u, _ in report.indices] == list(termset.nonempty_terms)
        assert np.all(rho >= 0.0) and np.all(report.ranking >= 0.0)
        assert abs(rho.sum() - 1.0) <= 1e-12
        assert abs(report.ranking.sum() - 1.0) <= 1e-12


class TestRefinement:
    REPORT = SensitivityReport(
        dimension=2,
        variance=1.0,
        indices=(((1,), 0.5), ((2,), 0.3), ((1, 2), 0.2)),
    )
    TERMS = superposition_terms(2, 2)

    def test_threshold_below_min_keeps_everything(self):
        kept = threshold_active_set(self.REPORT, self.TERMS, (0.01, 0.01))
        assert kept == self.TERMS

    def test_threshold_above_max_keeps_only_empty(self):
        kept = threshold_active_set(self.REPORT, self.TERMS, (0.6, 0.6))
        assert kept.terms == ((),)

    def test_threshold_per_order(self):
        kept = threshold_active_set(self.REPORT, self.TERMS, (0.4, 0.1))
        assert kept.terms == ((), (1,), (1, 2))

    def test_threshold_missing_order_raises(self):
        with pytest.raises(ConfigError):
            threshold_active_set(self.REPORT, self.TERMS, (0.1,))
        with pytest.raises(ConfigError):
            threshold_active_set(self.REPORT, self.TERMS, (0.1, 1.5))
        with pytest.raises(ConfigError):
            threshold_active_set(self.REPORT, self.TERMS, (0.1, 0.1, 0.1))

    def test_single_threshold_applies_to_every_order(self):
        kept = threshold_active_set(self.REPORT, self.TERMS, 0.25)
        assert kept.terms == ((), (1,), (2,))
        assert threshold_active_set(self.REPORT, self.TERMS, 0.3).terms == ((), (1,))
        only_empty = TermSet(2, ())
        assert threshold_active_set(self.REPORT, only_empty, 0.5) == only_empty
        for bad in (0.0, 1.5, float("nan")):
            with pytest.raises(ConfigError, match="gsi thresholds"):
                threshold_active_set(self.REPORT, only_empty, bad)

    @settings(max_examples=40, deadline=None)
    @given(termset=term_sets(), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore:.*oversampling:UserWarning")
    def test_single_threshold_and_ranked_above_match_explicit_forms(
        self, termset, data, seed
    ):
        assume(len(termset) > 1)
        rng = np.random.default_rng(seed)
        model = fit(
            rng.random((40, termset.dimension)), rng.standard_normal(40), termset,
            BandwidthProfile.from_list([4, 2, 2]), BasisKind.COSINE,
            SolverConfig(regularization=1.0),
        )
        assume(variance(model) > 0.0)
        report = analyze(model)
        # thresholds drawn from the report's own values test the strict ">"
        rho = [value for _, value in report.indices if 0.0 < value < 1.0]
        eps = data.draw(st.sampled_from(rho + [0.01, 0.5]))
        kept = threshold_active_set(report, termset, eps)
        assert kept == threshold_active_set(report, termset, (eps,) * termset.max_order)
        assert kept.nonempty_terms == tuple(u for u, value in report.indices if value > eps)
        scores = [float(r) for r in report.ranking if r < 1.0]
        theta = data.draw(st.sampled_from(scores + [0.0, 0.05]))
        assert report.ranked_above(theta) == tuple(
            i for i in range(1, termset.dimension + 1) if report.ranking[i - 1] > theta
        )

    def test_ranked_above_validation(self):
        report = SensitivityReport(4, 1.0, (), ranking=np.array([0.4, 0.3, 0.3, 0.0]))
        assert report.ranked_above(0.0) == (1, 2, 3)
        assert report.ranked_above(0.3) == (1,)
        for theta in (-0.1, 1.0, float("nan")):
            with pytest.raises(ConfigError, match="ranking threshold"):
                report.ranked_above(theta)
        with pytest.raises(ConfigError, match="no ranking"):
            SensitivityReport(4, 1.0, ()).ranked_above(0.1)

    def test_drop_variables_counts(self):
        u2 = superposition_terms(10, 2)
        reduced = drop_variables(u2, range(1, 6))
        assert len(reduced) == 16  # 1 + 5 + 10
        assert drop_variables(u2, range(1, 11)) == u2
        small = drop_variables(superposition_terms(4, 2), (1, 2, 3))
        assert len(small) == 7

    def test_drop_variables_validation(self):
        # one message, naming the range, for every bad keep set
        for keep in [(), (0, 1), (0,), (1, 3), (1.0,), (True,), ("1",), [1.7, 2]]:
            with pytest.raises(ConfigError, match=r"^keep set must be nonempty integers "
                                                  r"within 1\.\.2, got \("):
                drop_variables(self.TERMS, keep)

    def test_expand_adds_pairs(self):
        termset = superposition_terms(5, 1)
        report = SensitivityReport(
            dimension=5,
            variance=1.0,
            indices=(),
            ranking=np.array([0.3, 0.3, 0.3, 0.05, 0.05]),
        )
        expanded = incremental_expand(report, termset, 0.1, 2)
        added = set(expanded.terms) - set(termset.terms)
        assert added == {(1, 2), (1, 3), (2, 3)}
        assert expanded.superposition_threshold == 2

    def test_expand_adds_triples(self):
        termset = superposition_terms(6, 2)
        ranking = np.array([0.24, 0.24, 0.24, 0.24, 0.02, 0.02])
        report = SensitivityReport(6, 1.0, (), ranking=ranking)
        expanded = incremental_expand(report, termset, 0.1, 3)
        added = set(expanded.terms) - set(termset.terms)
        assert added == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}

    def test_expand_at_zero_threshold_pools_every_positively_ranked_variable(self):
        termset = superposition_terms(5, 1)
        report = SensitivityReport(5, 1.0, (), ranking=np.array([0.5, 0.0, 0.25, 0.25, 0.0]))
        expanded = incremental_expand(report, termset, 0.0, 2)
        assert set(expanded.terms) - set(termset.terms) == {(1, 3), (1, 4), (3, 4)}

    def test_expand_without_qualifying_variable_warns(self):
        termset = superposition_terms(5, 1)
        report = SensitivityReport(
            5, 1.0, (), ranking=np.full(5, 0.2)
        )
        with pytest.warns(UserWarning, match="unchanged"):
            out = incremental_expand(report, termset, 0.9, 2)
        assert out == termset

    def test_expand_with_a_pool_too_small_for_a_new_subset(self):
        # one variable above the threshold forms no pair: the set comes back as is, unwarned
        termset = superposition_terms(5, 1)
        report = SensitivityReport(5, 1.0, (), ranking=np.array([0.6, 0.1, 0.1, 0.1, 0.1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert incremental_expand(report, termset, 0.2, 2) is termset

    def test_expand_validation(self):
        termset = superposition_terms(5, 2)
        report = SensitivityReport(5, 1.0, (), ranking=np.full(5, 0.2))
        with pytest.raises(ConfigError):
            incremental_expand(report, termset, 0.1, 2)
        with pytest.raises(ConfigError):
            incremental_expand(report, termset, 0.1, 5)
        with pytest.raises(ValueError, match="ranking"):
            incremental_expand(
                SensitivityReport(5, 1.0, ()),
                superposition_terms(5, 1),
                0.1,
                2,
            )

    def test_expand_beyond_physical_memory_is_refused_before_listing(self, no_enumeration):
        # all 40 variables pooled: orders 3 to 20 hold 6.2e11 subsets, over 1e14 bytes
        termset = TermSet(40, tuple((i,) for i in range(1, 41)), 2)
        report = SensitivityReport(40, 1.0, (), ranking=np.full(40, 1 / 40))
        with pytest.raises(ConfigError, match=r"an expansion of \d+ terms up to order \d+ of"):
            incremental_expand(report, termset, 0.0, 20)

    def test_expand_threshold_validation(self):
        termset = superposition_terms(5, 1)
        report = SensitivityReport(5, 1.0, (), ranking=np.full(5, 0.2))
        # one rule, SensitivityReport.ranked_above's: [0, 1)
        for threshold in (1.0, -0.5, float("nan")):
            with pytest.raises(ConfigError, match=r"ranking threshold must lie in \[0, 1\)"):
                incremental_expand(report, termset, threshold, 2)
        assert incremental_expand(report, termset, 0.0, 2).superposition_threshold == 2
        with pytest.raises(ConfigError, match="expansion order"):
            incremental_expand(report, termset, 0.1, 0)


class TestMetrics:
    def test_identical_vectors(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0
        assert rmse(y, y) == 0.0
        assert relative_error(y, y) == 0.0

    def test_unit_offsets(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_relative_error_normalization(self):
        assert relative_error([3.0, 4.0], [0.0, 0.0]) == 1.0

    def test_zero_reference_rejected(self):
        with pytest.raises(DataError):
            relative_error([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])


class TestSerialization:
    def test_round_trip_real(self, tmp_path):
        rng = np.random.default_rng(12)
        spec = FriedmanSpec(2)
        train = friedman_sample(spec, 100, rng)
        model = fit(train.nodes, train.targets, superposition_terms(4, 2),
                    BandwidthProfile.from_list([4, 2]), BasisKind.COSINE,
                    SolverConfig(regularization=0.5))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.terms == model.terms
        assert loaded.regularization == 0.5
        nodes = rng.uniform(size=(20, 4))
        np.testing.assert_array_equal(predict(loaded, nodes), predict(model, nodes))

    def test_round_trip_complex(self, tmp_path):
        rng = np.random.default_rng(13)
        termset = superposition_terms(2, 1)
        bw = BandwidthProfile.from_list([4])
        nodes = rng.uniform(-0.5, 0.5, size=(40, 2))
        values = rng.standard_normal(40)
        model = fit(nodes, values, termset, bw, BasisKind.EXPONENTIAL)
        assert np.iscomplexobj(model.coefficients)
        assert model.real_output
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        predictions = predict(loaded, nodes)
        assert not np.iscomplexobj(predictions)

    def test_malformed_model_object(self):
        from anovafit.model import model_from_obj

        with pytest.raises(DataError):
            model_from_obj({"basis": "cos"})

    def test_normalization_block_validated(self):
        from anovafit.model import model_from_obj, model_to_obj

        rng = np.random.default_rng(14)
        model = fit(rng.uniform(size=(30, 2)), rng.standard_normal(30),
                    superposition_terms(2, 1), BandwidthProfile.from_list([4]),
                    BasisKind.COSINE)
        obj = model_to_obj(model)
        assert "normalization" not in obj
        good = {"feature_min": [0.0, 1.0], "feature_max": [2.0, 3.0],
                "target_min": -1.0, "target_max": 4.0}
        stats = model_from_obj({**obj, "normalization": good}).normalization
        assert stats.feature_max.tolist() == [2.0, 3.0] and stats.target_max == 4.0
        features = {**good, "target_min": None, "target_max": None}
        for block in (good, features):
            assert model_to_obj(model_from_obj({**obj, "normalization": block}))[
                "normalization"] == block
        for bad in ({"feature_max": [2.0]}, {"target_min": "low"}, {"target_max": None}):
            with pytest.raises(DataError):
                model_from_obj({**obj, "normalization": {**good, **bad}})
        for key in ("target_min", "target_max"):
            block = {k: v for k, v in good.items() if k != key}
            with pytest.raises(DataError, match=key):
                model_from_obj({**obj, "normalization": block})

    def test_report_json_shape(self):
        report = SensitivityReport(
            dimension=2,
            variance=2.0,
            indices=(((1,), 0.75), ((2,), 0.25)),
            ranking=np.array([0.8, 0.2]),
        )
        obj = report.to_json_obj()
        assert obj["variance"] == 2.0
        assert obj["gsi"][0] == {"term": [1], "rho": 0.75}
        assert obj["ranking"] == [0.8, 0.2]


def _union(n2=2):
    return build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, n2]), BasisKind.COSINE
    )


def _fitted():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(40, 3))
    return fit(x, x[:, 0] - x[:, 1] * x[:, 2], superposition_terms(3, 2),
               BandwidthProfile.from_list([4, 2]), BasisKind.COSINE)


RECORDS = {
    "union": _union,
    "model": _fitted,
    "report": lambda: analyze(_fitted()),
    "dataset": lambda: Dataset(np.eye(2), np.ones(2), ("a", "b")),
    "normalization": lambda: Normalization(np.zeros(2), np.ones(2), 0.0, 1.0),
    "lsqr": lambda: lsqr_solve(
        DesignOperator(np.random.default_rng(16).uniform(size=(20, 3)), _union()), np.ones(20)
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_without_raising(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == a
    # equal arguments share one cached union; the records holding data compare by identity
    assert (a == b) is (name == "union")
    if name == "union":
        assert hash(a) == hash(b)
        assert a != _union(4)
