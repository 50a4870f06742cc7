"""Structuring elements and the flat operators, checked against the
brute-force oracles from conftest."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (binary_open_set, naive_erode, naive_offset_extremum,
                      naive_window_extremum, random_dem, threshold_cells,
                      translate_fit_opening)
from demgranulo import _kernels
from demgranulo._base import DIRECTIONS, SE_FOR_DIRECTION
from demgranulo.dem import Dem
from demgranulo.morphology import (StructuringElement, _raw_extremum, dilate, erode,
                                   multiscale_opening, named_se, nse,
                                   open_square_separable, opening, opening_raw,
                                   resolve_se)
from demgranulo.spectrum import pattern_spectrum
from demgranulo.synth import synthetic_terrain

ALL_NAMES = ("B1", "B2", "B3", "B4", "B")


def dems_of_shape(max_height, max_width, levels=6):
    """Masked rasters up to the given shape: (1, n) gives one-row rasters."""
    return st.integers(0, 10**6).map(lambda s: random_dem(s, max_height, max_width, levels))


def dems(max_side=8, levels=6):
    return dems_of_shape(max_side, max_side, levels)


class TestStructuringElements:
    def test_named_offsets(self):
        assert named_se("B4").offsets == {(-1, 0), (0, 0), (1, 0)}
        assert named_se("B2").offsets == {(0, 1), (0, 0), (0, -1)}
        assert named_se("B1").offsets == {(-1, 1), (0, 0), (1, -1)}
        assert named_se("B3").offsets == {(-1, -1), (0, 0), (1, 1)}
        assert len(named_se("B")) == 9

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_se("B9")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_one_shared_element_per_name(self, name):
        # built once: a spectrum call neither rebuilds it nor detects its
        # shape again, and it compares and prints as a fresh one does
        se = named_se(name)
        assert named_se(name) is se
        fresh = StructuringElement(se.offsets, name=name)
        assert se.as_line() == fresh.as_line()
        assert se == fresh and hash(se) == hash(fresh)
        assert repr(se) == repr(fresh)
        with pytest.raises(AttributeError):
            se.name = "changed"

    def test_origin_required(self):
        with pytest.raises(ValueError):
            StructuringElement(frozenset({(1, 0), (-1, 0)}))

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            StructuringElement(frozenset({(0, 0), (1, 0)}))

    def test_other_shapes_refused(self):
        # the 5-cell cross and the 3x5 rectangle are symmetric and hold
        # the origin, but are neither a line nor a square; an L-shape is
        # not even symmetric
        cross = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        rectangle = {(dx, dy) for dx in range(-2, 3) for dy in range(-1, 2)}
        for offsets in (cross, rectangle):
            with pytest.raises(ValueError, match="segment .* or a centred square"):
                StructuringElement(frozenset(offsets))
        with pytest.raises(ValueError, match="symmetric"):
            StructuringElement(frozenset({(0, 0), (1, 0), (0, 1), (0, 2)}))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_nse_classifies_back(self, name):
        # the n-fold sum, rebuilt from its offsets alone, is the scaled
        # line or square; n = 0 is the single point, both at once
        se = named_se(name)
        for n in range(7):
            scaled = StructuringElement(nse(se, n).offsets)
            want = ((("row", 0), 0) if n == 0 else (None, n) if name == "B"
                    else ((se.as_line()[0], n), None))
            assert (scaled.as_line(), scaled.as_square()) == want

    def test_nse_of_b4_is_segment(self):
        se = nse(named_se("B4"), 2)
        assert se.offsets == {(i, 0) for i in range(-2, 3)}
        assert se.as_line() == ("row", 2)

    def test_nse_zero_is_identity(self):
        for name in ALL_NAMES:
            assert nse(named_se(name), 0).offsets == {(0, 0)}

    def test_nse_one_is_self(self):
        for name in ALL_NAMES:
            assert nse(named_se(name), 1).offsets == named_se(name).offsets

    def test_nse_square_grows(self):
        assert len(nse(named_se("B"), 2)) == 25

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_line_detection(self, direction):
        se = named_se(SE_FOR_DIRECTION[direction])
        assert se.as_line() == (direction, 1)
        assert nse(se, 3).as_line() == (direction, 3)
        assert named_se("B").as_line() is None
        assert named_se("B").as_square() == 1

    def test_generic_minkowski_matches_fast_path(self):
        # an unnamed element classifies as the same line as B4
        plain = StructuringElement(named_se("B4").offsets)
        assert nse(plain, 3).offsets == nse(named_se("B4"), 3).offsets


class TestErodeDilate:
    def test_erode_row_example(self):
        dem = Dem.from_rows([[2, 5, 5, 2, 2]])
        assert erode(dem, "B4").values.tolist() == [[0, 2, 2, 2, 0]]

    def test_dilate_row_example(self):
        dem = Dem.from_rows([[0, 2, 2, 2, 0]])
        assert dilate(dem, "B4").values.tolist() == [[2, 2, 2, 2, 2]]

    def test_constant_interior(self):
        dem = Dem.from_rows([[7] * 5] * 5)
        assert erode(dem, "B4").values[2, 2] == 7
        assert dilate(dem, "B").values[2, 2] == 7

    def test_single_cell_erodes_to_zero(self):
        dem = Dem.from_rows([[9]])
        for name in ("B1", "B2", "B3", "B4"):
            assert erode(dem, name).values[0, 0] == 0

    def test_all_zero_dilates_to_zero(self):
        dem = Dem(np.zeros((3, 3), dtype=np.int64), np.ones((3, 3), dtype=bool))
        assert dilate(dem, "B") == dem

    @settings(max_examples=80, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES), st.integers(1, 3),
           st.booleans())
    def test_matches_offset_oracle(self, dem, name, n, minimum):
        se = nse(named_se(name), n)
        fast = erode(dem, se) if minimum else dilate(dem, se)
        assert fast == naive_erode(dem, se, minimum)

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(dems(), dems_of_shape(1, 9), dems_of_shape(9, 1)),
           st.sampled_from([named_se("B4"), named_se("B3"), named_se("B")]),
           st.integers(1, 2), st.booleans(), st.sampled_from([np.int64, np.int16]))
    def test_in_place_matches_out_of_place(self, dem, se, n, minimum, dtype):
        # the spectra dilate each erosion in its own buffer
        values = dem.values.astype(dtype)
        expected = _raw_extremum(values, se, n, minimum)
        got = _raw_extremum(values, se, n, minimum, out=values)
        assert got is values
        assert values.dtype == expected.dtype
        assert values.tolist() == expected.tolist()

    @pytest.mark.parametrize("se", ["B4", "B", named_se("B3")])
    def test_all_zero_dilation_fills_out(self, se):
        values = np.zeros((3, 4), dtype=np.int64)
        out = np.full((3, 4), 7, dtype=np.int64)
        got = _raw_extremum(values, resolve_se(se), 2, False, out=out)
        assert got is out and not out.any()


class TestOpening:
    def test_row_example(self):
        dem = Dem.from_rows([[2, 5, 5, 2, 2]])
        assert opening(dem, "B4").values.tolist() == [[2, 2, 2, 2, 2]]

    def test_identity_element(self):
        dem = Dem.from_rows([[3, 1, 4]])
        assert opening(dem, nse(named_se("B4"), 0)) == dem

    def test_constant_row_fit(self):
        dem = Dem.from_rows([[6] * 5])
        assert opening(dem, nse(named_se("B4"), 2)) == dem  # 5 cells fit
        assert opening(dem, nse(named_se("B4"), 3)).values.sum() == 0  # 7 do not

    @settings(max_examples=60, deadline=None)
    @given(dems(7), st.sampled_from(ALL_NAMES), st.integers(1, 3))
    def test_matches_translate_fit_oracle(self, dem, name, n):
        se = nse(named_se(name), n)
        assert opening(dem, se) == translate_fit_opening(dem, se)

    @settings(max_examples=60, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES))
    def test_anti_extensive_and_idempotent(self, dem, name):
        once = opening(dem, name)
        assert (once.values <= dem.values).all()
        assert opening(once, name) == once

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(ALL_NAMES))
    def test_increasing(self, seed, name):
        lower = random_dem(seed, 8, 8, 5)
        bump = np.random.default_rng(seed + 1).integers(0, 3, lower.values.shape)
        upper = Dem(np.where(lower.mask, lower.values + bump, 0), lower.mask)
        a, b = opening(lower, name), opening(upper, name)
        assert (a.values <= b.values).all()

    @settings(max_examples=40, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES),
           st.integers(0, 4), st.integers(0, 4))
    def test_sieving_absorption(self, dem, name, m, n):
        se = named_se(name)
        two_step = multiscale_opening(multiscale_opening(dem, se, m), se, n)
        assert two_step == multiscale_opening(dem, se, max(m, n))

    @settings(max_examples=40, deadline=None)
    @given(dems(6, 5), st.sampled_from(ALL_NAMES), st.integers(1, 3))
    def test_threshold_stack_commutation(self, dem, name, n):
        # the binary opening of each upper-threshold set equals the
        # upper-threshold set of the grey opening, level by level
        se = nse(named_se(name), n)
        opened = opening(dem, se)
        for h in range(1, dem.zmax + 1):
            assert threshold_cells(opened, h) == binary_open_set(
                threshold_cells(dem, h), se)


class TestMultiscale:
    def test_scale_zero_identity(self):
        dem = Dem.from_rows([[1, 3, 2]])
        assert multiscale_opening(dem, "B4", 0) == dem

    @settings(max_examples=40, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES))
    def test_volume_non_increasing_to_zero(self, dem, name):
        from demgranulo.dem import volume
        prev = volume(dem)
        n = 1
        while prev > 0:
            cur = volume(multiscale_opening(dem, name, n))
            assert cur <= prev
            prev = cur
            n += 1
            assert n < 64
        assert prev == 0

    def test_large_scale_kills_everything(self):
        dem = Dem.from_rows([[3, 3, 3]])
        assert multiscale_opening(dem, "B4", 2).values.sum() == 0

    @pytest.mark.parametrize("se", ALL_NAMES)
    def test_negative_scale_rejected(self, se):
        dem = Dem.from_rows([[1, 3, 2], [2, 2, 2]])
        with pytest.raises(ValueError):
            multiscale_opening(dem, se, -1)


def row_min(values, k):
    """Windowed minimum of half-width k along one zero-padded line."""
    line = np.asarray(values, dtype=np.int64)
    return _kernels.directional_extremum(line[None, :], "row", k, True)[0]


class TestStreamingLine:
    def test_window_one_identity(self):
        assert row_min([4, 1, 3], 0).tolist() == [4, 1, 3]

    def test_row_example(self):
        assert row_min([2, 5, 5, 2, 2], 1).tolist() == [0, 2, 2, 2, 0]

    def test_empty_line(self):
        assert row_min([], 0).tolist() == []
        assert row_min([], 2).tolist() == []

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200),
           st.integers(0, 15))
    def test_matches_naive_min(self, values, k):
        got = row_min(values, k)
        assert got.tolist() == naive_window_extremum(values, k, True).tolist()

    def test_long_random_line(self):
        rng = np.random.default_rng(123)
        values = rng.integers(0, 1000, 1000)
        got = row_min(values, 10)
        assert got.tolist() == naive_window_extremum(values, 10, True).tolist()


class TestSquareSeparable:
    def test_scale_zero_identity(self):
        dem = Dem.from_rows([[1, 2], [3, 4]])
        assert open_square_separable(dem, 0) == dem

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            open_square_separable(Dem.from_rows([[1, 2], [3, 4]]), -1)

    def test_constant_grid_fit(self):
        dem = Dem.from_rows([[4] * 5] * 5)
        assert open_square_separable(dem, 2) == dem
        assert open_square_separable(dem, 3).values.sum() == 0

    @settings(max_examples=80, deadline=None)
    @given(dems(10), st.integers(1, 3))
    def test_matches_direct_2d(self, dem, n):
        # direct route: one explicit 2-D window enumeration per operator,
        # no separable factorization anywhere
        offs = [(dr, dc) for dr in range(-n, n + 1) for dc in range(-n, n + 1)]
        eroded = naive_offset_extremum(dem.values, offs, True)
        opened = naive_offset_extremum(np.where(dem.mask, eroded, 0), offs, False)
        direct = Dem(np.where(dem.mask, opened, 0), dem.mask)
        assert open_square_separable(dem, n) == direct

    @settings(max_examples=30, deadline=None)
    @given(dems(8, 5), st.integers(1, 2))
    def test_matches_translate_fit(self, dem, n):
        se = nse(named_se("B"), n)
        assert open_square_separable(dem, n) == translate_fit_opening(dem, se)

    def test_zero_erosion_is_not_dilated(self, monkeypatch):
        # the dilation of 0 is 0: the last scale of a square spectrum
        # erodes to 0 and runs only the erosion's two passes
        calls = []
        extremum = _kernels.directional_extremum

        def counted(*args, **kwargs):
            calls.append(args[3])
            return extremum(*args, **kwargs)

        monkeypatch.setattr(_kernels, "directional_extremum", counted)
        values = np.full((3, 3), 5, dtype=np.int64)
        assert opening_raw(values, named_se("B"), 2).tolist() == [[0] * 3] * 3
        assert calls == [True, True]
        calls.clear()
        assert opening_raw(values, named_se("B"), 1).tolist() == values.tolist()
        assert calls == [True, True, False, False]

    def test_opening_memory_two_rasters(self):
        # the erosion is dropped as soon as the dilation's first pass has
        # read it, so the opening never holds three rasters at once
        values = synthetic_terrain(1000, levels=256).values
        tracemalloc.start()
        try:
            opening_raw(values, named_se("B"), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * values.nbytes + 2 * 2**20


class TestIteratedSquareErosion:
    """The square spectrum erodes each scale from the last one: the
    erosion by (n+1)·se is the erosion by se of the erosion by n·se,
    since (n+1)·se = se ⊕ n·se, and the zero pad keeps that exact."""

    # n up to 6 runs past the shorter side of every raster drawn
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(dems(9), dems_of_shape(1, 9), dems_of_shape(9, 1), dems_of_shape(1, 1)),
           st.sampled_from([named_se("B"), nse("B", 2)]), st.integers(1, 6))
    def test_repeated_erosion_is_the_scaled_erosion(self, dem, se, n):
        values = dem.values
        repeated = values.copy()
        for _ in range(n):
            _raw_extremum(repeated, se, 1, True, out=repeated)
        r = n * se.as_square()
        offs = [(dr, dc) for dr in range(-r, r + 1) for dc in range(-r, r + 1)]
        direct = naive_offset_extremum(values, offs, True).tolist()
        assert _raw_extremum(values, se, n, True).tolist() == direct
        assert repeated.tolist() == direct

    @pytest.mark.parametrize("se", [named_se("B"), nse("B", 2)])
    def test_spectrum_erodes_at_the_element_half_width(self, monkeypatch, se):
        # one erosion by the element per scale, a row and a column pass,
        # and each scale's dilation at the scale's half-width
        calls = []
        extremum = _kernels.directional_extremum

        def recorded(values, direction, k, minimum, **kwargs):
            calls.append((minimum, direction, k))
            return extremum(values, direction, k, minimum, **kwargs)

        monkeypatch.setattr(_kernels, "directional_extremum", recorded)
        ps = pattern_spectrum(synthetic_terrain(40, levels=32), se)
        k = se.as_square()
        erosions = [call for call in calls if call[0]]
        assert erosions == [(True, "row", k), (True, "column", k)] * ps.n0
        # the last scale erodes to 0, which is not dilated
        dilations = [call for call in calls if not call[0]]
        assert dilations == [(False, d, n * k) for n in range(1, ps.n0) for d in ("row", "column")]
