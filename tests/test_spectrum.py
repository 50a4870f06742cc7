"""Pattern spectra, indices, normalization and features."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fraction_entropy, opening_spectrum_volumes
from demgranulo import spectrum
from demgranulo.dem import Dem, scale_heights, volume
from demgranulo.morphology import StructuringElement, named_se
from demgranulo.oracle import RunTable, run_table, spectrum_from_runs
from demgranulo.spectrum import (PatternSpectrum, discrete_volume_derivative,
                                 granulometric_index, high_low_direction,
                                 normalized_mdgi, order_stat_features,
                                 pattern_spectrum, volume_above)
from demgranulo.synth import random_dem, random_interval_dem, synthetic_terrain

ALL_NAMES = ("B1", "B2", "B3", "B4", "B")
CROSS = StructuringElement(frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}))


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6),
           st.one_of(st.tuples(st.just(1), st.integers(1, 40)),
                     st.tuples(st.integers(1, 40), st.just(1)),
                     st.tuples(st.integers(1, 16), st.integers(1, 16))),
           st.sampled_from((0.0, 0.02, 0.2)))
    def test_square_equals_openings_loop_on_strips_and_masks(self, seed, shape, holes):
        # one-wide strips and masked rasters up to 16 x 16; with few holes
        # the square grows to half-widths past the raster's lines
        dem = _masked_raster(seed, shape, holes)
        ps = pattern_spectrum(dem, "B")
        assert ps.volumes == opening_spectrum_volumes(dem, named_se("B"))

    @settings(max_examples=40, deadline=None)
    @given(dems(7, 5), st.sampled_from(("B1", "B2", "B3", "B4")))
    def test_length_family_sweep_equals_openings(self, dem, name):
        ps = pattern_spectrum(dem, name, family="length")
        assert ps.volumes == opening_spectrum_volumes(dem, named_se(name), "length")
        assert ps.scales == tuple(range(1, len(ps.volumes) + 1))

    @settings(max_examples=30, deadline=None)
    @given(dems(7, 5))
    def test_cross_element_openings_loop(self, dem):
        # neither a line nor a square: the generic offset path
        ps = pattern_spectrum(dem, CROSS)
        assert ps.volumes == opening_spectrum_volumes(dem, CROSS)
        assert ps.scales == tuple(range(len(ps.volumes)))

    def test_square_spectrum_memory(self):
        # the last scale's opening, the two rasters of the next one and
        # the kernel blocks; an opening that kept its erosion would need
        # a fourth raster
        dem = synthetic_terrain(1000, levels=256)
        tracemalloc.start()
        try:
            pattern_spectrum(dem, "B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * dem.values.nbytes + 2 * 2**20

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
        monkeypatch.setattr(spectrum, "Fraction", refuse)
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


class TestDiscreteDerivative:
    def test_fixture(self):
        assert discrete_volume_derivative(Dem.from_rows([[1, 2, 1]])) == [3, 1]

    def test_constant_grid(self):
        dem = Dem.from_rows([[1, 1], [1, 1]])
        assert discrete_volume_derivative(dem) == [4]

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
