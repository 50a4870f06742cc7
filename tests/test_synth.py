"""Fixture builders and random generators that the acceptance gate uses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dem, random_interval_dem, random_unipeak_dem
from demgranulo.dem import row_interval, volume
from demgranulo.oracle import is_unipeak, run_profile_equal, run_table
from demgranulo.synth import (fictitious_dem, reflection_demo_dem, run_profile_pair,
                              synthetic_terrain, synthetic_watershed_features,
                              unipeak_demo_dem)


class TestFixedFixtures:
    def test_fictitious_is_masked_and_positive(self):
        dem = fictitious_dem()
        assert dem.mask.any() and not dem.mask.all()
        assert dem.zmin >= 1

    def test_reflection_demo_rows_are_intervals(self):
        dem = reflection_demo_dem()
        for r in range(dem.height):
            assert row_interval(dem, r) is not None

    def test_run_pair_properties(self):
        a, b = run_profile_pair()
        assert a != b
        assert run_profile_equal(a, b, "row")

    def test_unipeak_demo(self):
        assert is_unipeak(unipeak_demo_dem())


class TestRandomBuilders:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_dem_envelope(self, seed):
        dem = random_dem(seed, 12, 12, 8)
        assert dem.height <= 12 and dem.width <= 12
        assert 1 <= dem.zmin and dem.zmax <= 8

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_interval_rows(self, seed):
        dem = random_interval_dem(seed)
        for r in range(dem.height):
            row_interval(dem, r)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_unipeak_rows_have_distinct_run_lengths(self, seed):
        dem = random_unipeak_dem(seed)
        assert is_unipeak(dem)
        lengths = [t for (_, _, t) in run_table(dem, "row").counts]
        assert len(lengths) == len(set(lengths))

    def test_generators_deterministic_per_seed(self):
        assert random_dem(5) == random_dem(5)
        assert random_unipeak_dem(9) == random_unipeak_dem(9)


class TestSyntheticTerrain:
    def test_shape_levels_and_speckle(self):
        dem = synthetic_terrain(64, levels=16, seed=2)
        assert (dem.height, dem.width) == (64, 64)
        assert 1 <= dem.zmin and dem.zmax <= 16
        assert 0 < dem.cell_count < 64 * 64

    def test_deterministic(self):
        assert synthetic_terrain(48, seed=4) == synthetic_terrain(48, seed=4)
        assert volume(synthetic_terrain(48, seed=4)) != volume(
            synthetic_terrain(48, seed=5))


class TestWatershedFeatures:
    def test_split_and_labels(self):
        records = synthetic_watershed_features()
        labels = [r.label for r in records]
        assert len(records) == 138
        assert labels.count("indus") == 31
        assert labels.count("wardha") == 69
        assert labels.count("barmer") == 38
        assert len({r.watershed_id for r in records}) == 138

    def test_rank_encoding_holds(self):
        for rec in synthetic_watershed_features():
            nonzero = [v for v in rec.x if v != 0.0]
            assert len(nonzero) == sum(1 for z in rec.z if z > 0.0)
