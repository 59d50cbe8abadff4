"""Tests for term sets, bandwidth profiles, and frequency index unions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    ConfigError,
    TermSet,
    build_index_union,
    errors,
    full_grid_1d,
    load_termset,
    save_termset,
    superposition_terms,
    terms,
)

from conftest import term_sets


class TestTermSet:
    def test_superposition_counts(self):
        assert len(superposition_terms(10, 2)) == 56  # 1 + 10 + 45
        assert len(superposition_terms(4, 4)) == 16  # full power set
        assert len(superposition_terms(5, 1)) == 6

    def test_superposition_threshold_range(self):
        with pytest.raises(ConfigError):
            superposition_terms(5, 0)
        with pytest.raises(ConfigError):
            superposition_terms(5, 6)

    def test_empty_term_always_present_once(self):
        ts = TermSet(3, ((1,), (2, 3)))
        assert ts.terms[0] == ()
        assert ts.terms.count(()) == 1
        # passing it explicitly is also fine
        ts2 = TermSet(3, ((), (1,), (2, 3)))
        assert ts2.terms == ts.terms

    def test_order_lexicographic_enumeration(self):
        ts = superposition_terms(4, 2)
        # position 8 among the nonempty terms is {2,3}
        assert ts.nonempty_terms[7] == (2, 3)
        assert ts.nonempty_terms[:4] == ((1,), (2,), (3,), (4,))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TermSet(3, ((1, 2), (2, 1)))

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError):
            TermSet(3, ((1, 4),))

    def test_contains_and_variables(self):
        ts = TermSet(5, ((1,), (2, 4)))
        assert (4, 2) in ts
        assert (3,) not in ts

    def test_json_round_trip(self, tmp_path):
        ts = superposition_terms(4, 2)
        path = tmp_path / "terms.json"
        save_termset(ts, path)
        loaded = load_termset(path)
        assert loaded == ts


class TestEnumerationSize:
    def test_term_set_beyond_physical_memory_is_refused_before_listing(self, no_enumeration):
        # 6.19e11 terms of 40 variables up to order 20: over 1e14 bytes of tuples
        with pytest.raises(ConfigError, match=r"a term set of \d+ terms up to order \d+ of"):
            superposition_terms(40, 20)

    def test_the_bound_is_the_tuples_alone(self, monkeypatch):
        # orders 3 to 6 of 30 variables: 767746 tuples of 40 + 8 o bytes on CPython 3.11
        count = sum(math.comb(30, order) for order in range(3, 7))
        nbytes = sum(math.comb(30, o) * sys.getsizeof(tuple(range(o))) for o in range(3, 7))
        monkeypatch.setattr(errors, "physical_memory", lambda: nbytes)
        terms.check_subsets(30, range(3, 7), "an expansion")
        monkeypatch.setattr(errors, "physical_memory", lambda: nbytes - 1)
        with pytest.raises(ConfigError, match=f"an expansion of {count} terms up to order 6 "
                                              f"of {nbytes} bytes exceeds the {nbytes - 1}"):
            terms.check_subsets(30, range(3, 7), "an expansion")

    def test_what_fits_is_listed(self):
        terms.check_subsets(30, range(3, 7), "an expansion")  # about 66 MB
        assert len(superposition_terms(10, 10)) == 1024


class TestFullGrid:
    def test_nonperiodic_grid(self):
        np.testing.assert_array_equal(full_grid_1d(BasisKind.COSINE, 4), [1, 2, 3])
        np.testing.assert_array_equal(full_grid_1d(BasisKind.COSINE, 2), [1])
        np.testing.assert_array_equal(full_grid_1d(BasisKind.CHEBYSHEV, 6), [1, 2, 3, 4, 5])

    def test_periodic_grid_excludes_zero(self):
        np.testing.assert_array_equal(
            full_grid_1d(BasisKind.EXPONENTIAL, 4), [-2, -1, 1]
        )
        np.testing.assert_array_equal(
            full_grid_1d(BasisKind.EXPONENTIAL, 2), [-1]
        )

    @pytest.mark.parametrize("bad", [0, -2, 3, 7])
    def test_invalid_bandwidths(self, bad):
        with pytest.raises(ConfigError):
            full_grid_1d(BasisKind.COSINE, bad)

    @pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_grid_has_n_minus_one_elements(self, kind, n):
        grid = full_grid_1d(kind, n)
        assert len(grid) == n - 1
        assert 0 not in grid


class TestBandwidthProfile:
    def test_from_list_and_lookup(self):
        bw = BandwidthProfile.from_list([6, 4])
        assert bw.for_order(1) == 6
        assert bw.for_order(2) == 4

    def test_missing_order_is_an_error(self):
        bw = BandwidthProfile.from_list([6])
        with pytest.raises(ConfigError, match="order 2"):
            bw.for_order(2)

    @pytest.mark.parametrize("bad", [1, 3, 0, -4])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            BandwidthProfile({1: bad})

    def test_json_format(self):
        bw = BandwidthProfile.from_list([4, 2])
        assert bw.to_json_obj() == {"1": 4, "2": 2}
        assert BandwidthProfile.from_json_obj({"1": 4, "2": 2}) == bw


class TestIndexUnion:
    def test_reference_counts(self):
        # order-2 truncation in 10 variables
        u2 = superposition_terms(10, 2)
        union = build_index_union(u2, BandwidthProfile.from_list([4, 2]), BasisKind.COSINE)
        assert union.size == 76

        # five singletons plus one pair
        star = TermSet(10, ((1,), (2,), (3,), (4,), (5,), (1, 2)))
        union = build_index_union(star, BandwidthProfile.from_list([6, 4]), BasisKind.COSINE)
        assert union.size == 35

    def test_empty_termset_is_single_zero_frequency(self):
        ts = TermSet(3, ())
        union = build_index_union(ts, BandwidthProfile(), BasisKind.COSINE)
        assert union.size == 1
        np.testing.assert_array_equal(union.frequencies_full(), [[0, 0, 0]])

    def test_missing_bandwidth_raises(self):
        ts = superposition_terms(3, 2)
        with pytest.raises(ConfigError):
            build_index_union(ts, BandwidthProfile.from_list([4]), BasisKind.COSINE)

    @pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
    def test_supports_match_owning_terms(self, kind):
        ts = superposition_terms(4, 3)
        union = build_index_union(ts, BandwidthProfile.from_list([4, 2, 2]), kind)
        full = union.frequencies_full()
        for term in union.terms:
            block = full[union.slice_for(term)]
            for k in block:
                support = tuple(np.flatnonzero(k) + 1)
                assert support == term

    @settings(max_examples=40, deadline=None)
    @given(
        termset=term_sets(), kind=st.sampled_from(list(BasisKind)), n=st.sampled_from([2, 4, 6])
    )
    def test_order_blocks_tile_the_union(self, termset, kind, n):
        union = build_index_union(termset, BandwidthProfile.from_list([n, n, n]), kind)
        grids = {order: full_grid_1d(kind, o.bandwidth) for order, o in union.layout.items()}
        assert list(union.layout) == sorted(grids)
        assert union.variables.tolist() == sorted({i for u in union.terms for i in u})
        stop = 1
        for order in sorted(grids):
            layout = union.layout[order]
            block, factors, own, pos = layout.block, layout.factors, layout.own, layout.pos
            owned = [u for u in union.terms if len(u) == order]
            assert block.start == stop == union.slice_for(owned[0]).start
            assert block.stop == union.slice_for(owned[-1]).stop
            assert factors.shape == pos.shape == (len(owned), order)
            assert factors.tolist() == [list(u) for u in owned]
            assert union.variables[own].tolist() == sorted(set(factors.ravel().tolist()))
            np.testing.assert_array_equal(union.variables[own][pos], factors)
            np.testing.assert_array_equal(layout.lead[layout.q], pos[:, :-1])
            stop = block.stop
        assert stop == union.size

    def test_frequencies_globally_distinct(self):
        ts = superposition_terms(4, 2)
        union = build_index_union(ts, BandwidthProfile.from_list([6, 4]), BasisKind.COSINE)
        full = union.frequencies_full()
        assert len({tuple(k) for k in full}) == union.size

    def test_zero_frequency_only_in_empty_term(self):
        ts = superposition_terms(3, 2)
        union = build_index_union(ts, BandwidthProfile.from_list([4, 2]), BasisKind.EXPONENTIAL)
        full = union.frequencies_full()
        zero_rows = np.flatnonzero(~full.any(axis=1))
        np.testing.assert_array_equal(zero_rows, [0])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_size_formula_matches_enumeration(self, data):
        d = data.draw(st.integers(min_value=1, max_value=6))
        ds = data.draw(st.integers(min_value=1, max_value=min(d, 3)))
        kind = data.draw(st.sampled_from([BasisKind.COSINE, BasisKind.EXPONENTIAL]))
        bw = BandwidthProfile.from_list(
            [data.draw(st.sampled_from([2, 4, 6, 8])) for _ in range(ds)]
        )
        ts = superposition_terms(d, ds)
        union = build_index_union(ts, bw, kind)
        # closed form: 1 + sum over nonempty terms u of (N_|u| - 1)^|u|
        assert union.size == 1 + sum(
            (bw.for_order(len(u)) - 1) ** len(u) for u in ts.nonempty_terms
        )
        full = union.frequencies_full()
        assert len({tuple(k) for k in full}) == union.size

    def test_slice_lookup(self):
        ts = superposition_terms(3, 2)
        union = build_index_union(ts, BandwidthProfile.from_list([4, 2]), BasisKind.COSINE)
        sl = union.slice_for((2,))
        block = union.frequencies_full()[sl]
        np.testing.assert_array_equal(block[:, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            union.slice_for((1, 2, 3))

    def test_union_holds_the_term_set_it_lays_out(self):
        ts = TermSet(4, ((1,), (3,), (1, 4)))
        union = build_index_union(ts, BandwidthProfile.from_list([4, 2]), BasisKind.COSINE)
        assert union.terms == ts

    def test_order_layouts_of_equal_shape_compare_unequal_without_raising(self):
        # equal order, bandwidth and block: only the factor arrays differ
        a, b = (
            build_index_union(TermSet(3, ((1,), (v,))), BandwidthProfile.from_list([4]),
                              BasisKind.COSINE).layout[1]
            for v in (2, 3)
        )
        assert (a.order, a.bandwidth, a.block) == (b.order, b.bandwidth, b.block)
        assert a == a and a != b


class TestCaches:
    def test_equal_arguments_share_one_read_only_union(self):
        union = build_index_union(
            superposition_terms(5, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
        )
        equal = build_index_union(
            TermSet(5, tuple(reversed(superposition_terms(5, 2).terms)), 2),
            BandwidthProfile({2: 2, 1: 4}),
            BasisKind.COSINE,
        )
        assert equal is union
        other = build_index_union(
            superposition_terms(5, 2), BandwidthProfile.from_list([4, 2]), BasisKind.CHEBYSHEV
        )
        assert other is not union and other.kind is BasisKind.CHEBYSHEV
        arrays = [union.variables]
        for layout in union.layout.values():
            arrays += [layout.factors, layout.own, layout.pos, layout.lead, layout.q]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(TypeError):
            union.layout[1] = union.layout[2]

    def test_missing_bandwidth_raises_cold_and_warm(self):
        ts = superposition_terms(3, 2)
        for _ in range(2):
            with pytest.raises(ConfigError, match="no bandwidth configured for term order 2"):
                build_index_union(ts, BandwidthProfile.from_list([4]), BasisKind.COSINE)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("args", [(True, 1), (1, True), ([10], 2), (10, [2]), (2.0, 1)])
    def test_superposition_terms_rejects_non_integers(self, args, warm):
        terms._superposition_terms.cache_clear()
        if warm:
            superposition_terms(1, 1)
            superposition_terms(10, 2)
        with pytest.raises(ConfigError, match="must be an integer"):
            superposition_terms(*args)

    def test_superposition_terms_share_one_term_set(self):
        assert superposition_terms(6, 2) is superposition_terms(np.int64(6), 2)
        assert superposition_terms(6, 2) is not superposition_terms(6, 3)
