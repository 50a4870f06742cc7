"""Pattern spectra, indices, normalization and features."""

import dataclasses
import fractions
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (fraction_entropy, opening_spectrum_volumes, random_dem,
                      random_interval_dem)
from demgranulo import _kernels, spectrum
from demgranulo.dem import Dem, parse_esri_ascii, scale_heights, volume
from demgranulo.morphology import named_se, nse, resolve_se
from demgranulo.oracle import RunTable, run_table, spectrum_from_runs
from demgranulo.spectrum import (PatternSpectrum, discrete_volume_derivative,
                                 granulometric_index, high_low_direction,
                                 normalized_mdgi, order_stat_features,
                                 pattern_spectra, pattern_spectrum, volume_above)
from demgranulo.synth import synthetic_terrain

ALL_NAMES = ("B1", "B2", "B3", "B4", "B")


def dems(max_side=8, levels=6):
    return st.integers(0, 10**6).map(lambda s: random_dem(s, max_side, max_side, levels))


def _masked_raster(seed, shape, holes, levels=6):
    """Raster of the given shape and levels 1..levels with about a
    ``holes`` share of masked cells, and at least one present cell."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) >= holes
    mask.flat[rng.integers(0, mask.size)] = True
    return Dem(np.where(mask, rng.integers(1, levels + 1, shape), 0), mask)


class TestPatternSpectrum:
    def test_row_fixture(self):
        ps = pattern_spectrum(Dem.from_rows([[2, 5, 5, 2, 2]]), "B4")
        assert ps.volumes == (16, 10, 10, 0)
        assert ps.probs == (Fraction(6, 16), 0, Fraction(10, 16))

    def test_constant_row_single_bin(self):
        ps = pattern_spectrum(Dem.from_rows([[3] * 5]), "B4")
        assert ps.probs == (0, 0, 1)  # 5 cells fit at n=2, not at n=3

    def test_zero_volume_rejected(self):
        dem = Dem.from_rows([[0, 0]])
        with pytest.raises(ValueError):
            pattern_spectrum(dem, "B4")

    def test_single_point_element_rejected(self):
        from demgranulo.morphology import nse
        with pytest.raises(ValueError):
            pattern_spectrum(Dem.from_rows([[1]]), nse("B4", 0))

    @settings(max_examples=60, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES))
    def test_normalization_exact(self, dem, name):
        ps = pattern_spectrum(dem, name)
        assert sum(ps.probs, Fraction(0)) == 1
        assert ps.volumes[-1] == 0
        assert ps.volumes[0] == volume(dem)

    @settings(max_examples=50, deadline=None)
    @given(dems(7, 5), st.sampled_from(ALL_NAMES))
    def test_sweep_equals_openings_loop(self, dem, name):
        ps = pattern_spectrum(dem, name)
        assert ps.volumes == opening_spectrum_volumes(dem, named_se(name))
        assert ps.scales == tuple(range(len(ps.volumes)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6),
           st.one_of(st.tuples(st.just(1), st.integers(1, 40)),
                     st.tuples(st.integers(1, 40), st.just(1)),
                     st.tuples(st.integers(1, 16), st.integers(1, 16))),
           st.sampled_from((0.0, 0.02, 0.2, 0.95)),
           st.sampled_from((named_se("B"), nse("B", 2))))
    def test_square_equals_openings_loop_on_strips_and_masks(self, seed, shape, holes, se):
        # one-wide strips, rasters narrower than the window and masked
        # rasters up to 16 x 16, down to one present cell; with few holes
        # the square grows to half-widths past the raster's lines
        dem = _masked_raster(seed, shape, holes)
        ps = pattern_spectrum(dem, se)
        assert ps.volumes == opening_spectrum_volumes(dem, se)

    @settings(max_examples=40, deadline=None)
    @given(dems(7, 5), st.sampled_from(("B1", "B2", "B3", "B4")))
    def test_length_family_sweep_equals_openings(self, dem, name):
        ps = pattern_spectrum(dem, name, family="length")
        assert ps.volumes == opening_spectrum_volumes(dem, named_se(name), "length")
        assert ps.scales == tuple(range(1, len(ps.volumes) + 1))

    def test_square_spectrum_memory(self):
        # the two rasters of one opening and the kernel blocks; a loop
        # that kept the last scale's opening while the next one runs
        # would need a third raster. Bounds are in int64 rasters
        # (8 * dem.values.size), whatever dtype the raster holds
        dem = synthetic_terrain(1000, levels=256)
        tracemalloc.start()
        try:
            pattern_spectrum(dem, "B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * dem.values.size + 2 * 2**20

    def test_square_spectrum_memory_on_compact_levels(self):
        # 256 levels are opened as int16, a quarter of the int64 raster
        # per working array: the openings together stay under one int64
        # raster
        dem = synthetic_terrain(1000, levels=256)
        tracemalloc.start()
        try:
            pattern_spectrum(dem, "B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dem.values.size + 2 * 2**20

    def test_square_spectrum_memory_when_levels_need_int64(self):
        # levels up to 2**40 need int64, and the raster's own values are
        # opened without a copy of them
        dem = scale_heights(synthetic_terrain(1000, levels=256), 2**32)
        assert dem.values.dtype == np.int64
        tracemalloc.start()
        try:
            pattern_spectrum(dem, "B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * dem.values.size + 2 * 2**20

    @pytest.mark.parametrize("top,dtype", [(127, np.int8), (128, np.int16),
                                           (32767, np.int16), (32768, np.int32),
                                           (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_levels_at_dtype_bounds(self, top, dtype):
        # the narrowest signed dtype that holds the top level: one a bit
        # narrower would wrap the top cell negative
        rng = np.random.default_rng(top % 1000)
        mask = rng.random((6, 7)) >= 0.15
        mask[2, 3] = True
        values = np.where(mask, rng.integers(1, top, (6, 7), endpoint=True), 0)
        values[2, 3] = top
        dem = Dem(values, mask)
        assert dem.values.dtype == dtype
        for name in ALL_NAMES:
            se = named_se(name)
            assert pattern_spectrum(dem, se).volumes == opening_spectrum_volumes(dem, se)

    def test_length_family_requires_linear(self):
        with pytest.raises(ValueError):
            pattern_spectrum(Dem.from_rows([[1, 2]]), "B", family="length")

    @settings(max_examples=50, deadline=None)
    @given(dems(), st.sampled_from(ALL_NAMES), st.sampled_from((2, 3, 7)))
    def test_height_scaling_invariance(self, dem, name, k):
        scaled = scale_heights(dem, k)
        assert pattern_spectrum(scaled, name).probs == pattern_spectrum(dem, name).probs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reflection_invariance_rows(self, seed):
        from demgranulo.oracle import reflection_family
        dem = random_interval_dem(seed, max_rows=4, max_width=7)
        reference = pattern_spectrum(dem, "B4").probs
        for member in reflection_family(dem):
            assert pattern_spectrum(member, "B4").probs == reference


def _count_sweeps(monkeypatch) -> list[str]:
    """The direction of every slab sweep from here on, in call order."""
    sweeps = []
    loss = _kernels.directional_loss

    def counted(values, direction):
        sweeps.append(direction)
        return loss(values, direction)

    monkeypatch.setattr(_kernels, "directional_loss", counted)
    return sweeps


class TestPatternSpectra:
    @settings(max_examples=80, deadline=None)
    @given(dems(), st.sampled_from(["B1", "B2", "B3", "B4", nse("B4", 2)]),
           st.sampled_from([("nse", "length"), ("length", "nse"), ("nse", "nse")]))
    def test_one_spectrum_per_family(self, dem, se, families):
        assert pattern_spectra(dem, se, families) == tuple(
            pattern_spectrum(dem, se, family=f) for f in families)

    @pytest.mark.parametrize("se", ["B1", "B2", "B3", "B4", nse("B4", 2)])
    @pytest.mark.parametrize("families", [("nse", "length"), ("length", "nse", "length")])
    def test_one_sweep_per_call(self, monkeypatch, se, families):
        sweeps = _count_sweeps(monkeypatch)
        got = pattern_spectra(synthetic_terrain(12, levels=16), se, families)
        assert [ps.family for ps in got] == list(families)
        assert sweeps == [resolve_se(se).as_line()[0]]

    @pytest.mark.parametrize("rows,se,families,match", [
        ([[2, 5, 5]], "B", ("nse", "length"), "linear element"),
        ([[2, 5, 5]], "B4", ("nse", "square"), "unknown family"),
        ([[0, 0, 0]], "B4", ("nse", "length"), "zero-volume"),
        ([[0, 0, 0]], "B", ("nse",), "zero-volume"),
    ])
    def test_rejected_before_any_work(self, monkeypatch, rows, se, families, match):
        def no_work(*args):
            raise AssertionError("ran before the arguments were checked")

        monkeypatch.setattr(_kernels, "directional_loss", no_work)
        monkeypatch.setattr(spectrum, "_raw_extremum", no_work)
        with pytest.raises(ValueError, match=match):
            pattern_spectra(Dem.from_rows(rows), se, families)

    @pytest.mark.parametrize("build", ["constructor", "parser"])
    def test_no_state_kept_on_the_raster(self, monkeypatch, build):
        # every call sweeps: nothing of a spectrum is cached on the raster
        dem = Dem.from_rows([[2, 5, 5, 2, 2]])
        if build == "parser":
            dem = parse_esri_ascii(dem.to_esri_ascii(), datum=1.0)
        sweeps = _count_sweeps(monkeypatch)
        assert pattern_spectrum(dem, "B4") == pattern_spectrum(dem, "B4")
        assert sweeps == ["row", "row"]
        assert vars(dem).keys() == {"values", "mask"}


class TestSpectrumValidation:
    def test_fields_are_the_volume_list(self):
        assert [f.name for f in dataclasses.fields(PatternSpectrum)] == [
            "se_name", "family", "volumes"]

    def test_derived_scales_and_probs(self):
        ps = PatternSpectrum("B4", "nse", (16, 10, 10, 0))
        assert ps.scales == (0, 1, 2, 3)
        assert ps.n0 == 3
        assert ps.probs == (Fraction(6, 16), 0, Fraction(10, 16))
        assert PatternSpectrum("L:row", "length", (4, 0)).scales == (1, 2)

    @pytest.mark.parametrize("family, volumes", [
        ("nse", (4, 5, 0)),        # increasing
        ("nse", (4, 2, 1)),        # nonzero last volume
        ("square", (4, 0)),        # unknown family
        ("nse", (0,)),             # single volume
        ("length", (0, 0)),        # zero first volume
    ])
    def test_invalid_rejected(self, family, volumes):
        with pytest.raises(ValueError):
            PatternSpectrum("B4", family, volumes)


@st.composite
def big_dems(draw):
    # few cells at heights whose volumes reach about 2**62, the int64 range
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 2**62 // (h * w)),
                          min_size=h * w, max_size=h * w))
    values = np.array(cells, dtype=np.int64).reshape(h, w)
    assume(values.any())
    return Dem(values, np.ones((h, w), dtype=bool))


class TestGranulometricIndex:
    def test_point_mass_zero(self):
        ps = pattern_spectrum(Dem.from_rows([[3] * 5]), "B4")
        assert granulometric_index(ps) == 0.0

    def test_fixture_entropy(self):
        ps = pattern_spectrum(Dem.from_rows([[2, 5, 5, 2, 2]]), "B4")
        assert granulometric_index(ps) == pytest.approx(0.66156, abs=1e-5)

    def test_uniform_maximal(self):
        # staircase whose run lengths split the volume into 4 equal
        # parts: lengths 6, 3+3, 2+2+2, 1*6 across levels, volume 24
        dem = Dem.from_rows([[12, 6, 3, 1, 1, 1]])
        ps = pattern_spectrum(dem, "B4", family="length")
        positive = [p for p in ps.probs if p > 0]
        assert positive == [Fraction(1, 4)] * 4
        assert granulometric_index(ps) == pytest.approx(math.log(4), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(dems(), big_dems()), st.sampled_from(ALL_NAMES))
    def test_bit_identical_to_fractions(self, dem, name):
        for family in ("nse", "length") if name != "B" else ("nse",):
            ps = pattern_spectrum(dem, name, family=family)
            assert granulometric_index(ps) == fraction_entropy(ps.volumes)

    @settings(max_examples=60, deadline=None)
    @given(dems(), st.sampled_from(("row", "column", "diag-down", "diag-up")))
    def test_oracle_bit_identical_to_fractions(self, dem, direction):
        rt = run_table(dem, direction)
        for family in ("nse", "length"):
            ps = spectrum_from_runs(rt, family)
            assert granulometric_index(ps) == fraction_entropy(ps.volumes)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(1, 8), st.integers(2**52, 2**56),
                           min_size=1, max_size=8))
    def test_volumes_near_int64_bit_identical(self, runs):
        # total volumes between about 2**52 and 2**61, beyond float precision
        rt = RunTable("row", {(0, 1, t): c for t, c in runs.items()})
        for family in ("nse", "length"):
            ps = spectrum_from_runs(rt, family)
            assert granulometric_index(ps) == fraction_entropy(ps.volumes)

    def test_features_build_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fraction built")
        # probs imports Fraction when it runs, so patch it at its source
        monkeypatch.setattr(fractions, "Fraction", refuse)
        dem = random_dem(0, 10, 10, 6, hole_fraction=0.1)
        for name in ALL_NAMES:
            granulometric_index(pattern_spectrum(dem, name))
        assert not normalized_mdgi(dem).degenerate
        with pytest.raises(AssertionError):
            pattern_spectrum(dem, "B").probs


class TestNormalizedFeatures:
    def test_degenerate_flagged(self):
        rec = normalized_mdgi(Dem.from_rows([[5]]), watershed_id="w")
        assert rec.degenerate
        assert rec.z == (0.0, 0.0, 0.0, 0.0)
        assert all(v == 0.0 for v in rec.x)

    def test_ratios(self):
        dem = random_dem(0, 10, 10, 6, hole_fraction=0.1)  # 9x7, all gi > 0
        rec = normalized_mdgi(dem)
        assert not rec.degenerate
        for i, name in enumerate(("B1", "B2", "B3", "B4")):
            assert rec.z[i] == pytest.approx(rec.gi[name] / rec.gi["B"])
            assert rec.z[i] >= 0.0

    def test_log_base_cancels(self):
        # rescaling every index by a common log-base factor leaves Z alone
        dem = random_dem(0, 9, 9, 5, hole_fraction=0.1)
        rec = normalized_mdgi(dem)
        base2 = {k: v / math.log(2) for k, v in rec.gi.items()}
        for i, name in enumerate(("B1", "B2", "B3", "B4")):
            assert base2[name] / base2["B"] == pytest.approx(rec.z[i])


class TestOrderStatFeatures:
    def test_fixture_layout(self):
        x = order_stat_features((0.8, 0.5, 0.9, 0.5))
        nz = {i: v for i, v in enumerate(x) if v}
        assert nz == {2: 0.8, 4: 0.5, 11: 0.9, 13: 0.5}

    def test_ties_fill_diagonal(self):
        x = order_stat_features((0.3, 0.3, 0.3, 0.3))
        assert [x[0], x[5], x[10], x[15]] == [0.3] * 4
        assert sum(1 for v in x if v) == 4

    def test_increasing_diagonal(self):
        x = order_stat_features((0.1, 0.2, 0.3, 0.4))
        assert [x[i * 4 + i] for i in range(4)] == [0.1, 0.2, 0.3, 0.4]

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.floats(0, 5, allow_nan=False) for _ in range(4)]))
    def test_one_hot_per_block(self, z):
        x = order_stat_features(z)
        for i in range(4):
            block = x[i * 4:(i + 1) * 4]
            assert sum(1 for v in block if v != 0.0) <= 1
            assert z[i] in block or z[i] == 0.0


class TestHighLow:
    def test_fixture(self):
        assert high_low_direction((0.8, 0.5, 0.9, 0.5)) == ("B3", "B2")

    def test_all_equal_tie_break(self):
        assert high_low_direction((1.0, 1.0, 1.0, 1.0)) == ("B1", "B1")

    def test_increasing(self):
        assert high_low_direction((0.1, 0.2, 0.3, 0.4)) == ("B4", "B1")

    @pytest.mark.parametrize("z", [(1, 2, 3), (1, 2, 3, 4, 9), ()])
    def test_needs_exactly_four_values(self, z):
        # a fifth value is not dropped and a short tuple is no IndexError
        with pytest.raises(ValueError, match="expected exactly four values"):
            high_low_direction(z)


class TestArithmeticOnNarrowLevels:
    # a 256-level raster holds int16 levels: arithmetic that can leave
    # that range widens first, which numpy 1.24's value-based casting
    # would not do for an int16 array times a numpy scalar that fits int16
    def test_scale_heights_widens(self):
        dem = synthetic_terrain(64)
        assert dem.values.dtype == np.int16
        scaled = scale_heights(dem, 300)
        assert (scaled.values == 300 * dem.values.astype(np.int64)).all()
        assert scaled.zmax == 300 * dem.zmax
        for name in ALL_NAMES:
            want = pattern_spectrum(dem, name).volumes
            assert pattern_spectrum(scaled, name).volumes == tuple(300 * v for v in want)

    @pytest.mark.parametrize("k", [1, 300])
    def test_volume_above_in_python_ints(self, k):
        dem = scale_heights(synthetic_terrain(64), k)
        cells = dem.values[dem.mask].tolist()
        for h0 in (1, dem.zmax, dem.zmax + 40000):
            assert volume_above(dem, h0) == sum(max(v - h0 + 1, 0) for v in cells), h0


class TestVolumeAbove:
    def test_fixture(self):
        dem = Dem.from_rows([[1, 2, 1]])
        assert volume_above(dem, 1) == 4
        assert volume_above(dem, 2) == 1
        assert volume_above(dem, 3) == 0

    def test_base_level_is_volume(self):
        dem = random_dem(3, 8, 8, 6)
        assert volume_above(dem, 1) == volume(dem)

    def test_constant_grid_top(self):
        dem = Dem.from_rows([[4] * 6])
        assert volume_above(dem, 4) == 6

    def test_h0_below_one_rejected(self):
        with pytest.raises(ValueError):
            volume_above(Dem.from_rows([[1]]), 0)

    @pytest.mark.parametrize("h0", [1.5, 2.0])
    def test_non_integer_level_rejected(self, h0):
        # 1.5 used to give the volume above level 1
        with pytest.raises(TypeError):
            volume_above(Dem.from_rows([[1, 2, 1]]), h0)

    def test_numpy_integer_level(self):
        assert volume_above(Dem.from_rows([[1, 2, 1]]), np.int64(2)) == 1


class TestDiscreteDerivative:
    def test_fixture(self):
        assert discrete_volume_derivative(Dem.from_rows([[1, 2, 1]])) == [3, 1]

    def test_constant_grid(self):
        dem = Dem.from_rows([[1, 1], [1, 1]])
        assert discrete_volume_derivative(dem) == [4]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 7),
           st.sampled_from([0, 0.3]), st.sampled_from([1, 6, 200]))
    def test_matches_per_level_count(self, seed, h, w, holes, top):
        # a top far above the cell count leaves most levels unheld, where
        # the count carries down from the next held level above; levels of
        # 0 are present cells that no entry counts
        dem = _masked_raster(seed, (h, w), holes, top)
        rng = np.random.default_rng(seed)
        values = np.where(rng.random((h, w)) < 0.2, 0, dem.values)
        dem = Dem(values, dem.mask)
        cells = values[dem.mask].tolist()
        want = [sum(v >= level for v in cells) for level in range(1, max(cells) + 1)]
        assert discrete_volume_derivative(dem) == want

    def test_time_follows_the_cells(self):
        # one scan per level took 0.7 s on this 1x2 raster of top 10**6
        dem = Dem.from_rows([[10**6, 1]])
        t0 = time.perf_counter()
        derivative = discrete_volume_derivative(dem)
        elapsed = time.perf_counter() - t0
        assert derivative[:2] == [2, 1] and derivative[-1] == 1
        assert len(derivative) == 10**6 and sum(derivative) == 10**6 + 1
        assert elapsed < 0.2, f"{elapsed:.2f}s"

    @settings(max_examples=60, deadline=None)
    @given(dems())
    def test_telescopes_to_volume(self, dem):
        derivative = discrete_volume_derivative(dem)
        assert sum(derivative) == volume(dem)
        # successive values agree with the explicit level volumes
        for h in range(1, dem.zmax + 1):
            tail = volume_above(dem, h)
            nxt = volume_above(dem, h + 1) if h < dem.zmax else 0
            assert derivative[h - 1] == tail - nxt
