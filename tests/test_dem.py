"""Raster data model, ingestion, quantization and geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demgranulo.dem import (Dem, DemError, DemParseError, parse_esri_ascii,
                            parse_fixture_csv, quantize, reflect_rows,
                            scale_heights, scan_lines, volume)
from demgranulo.synth import random_dem, random_interval_dem

GRID_2X2 = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n"


def small_dem_strategy():
    return st.integers(0, 10**6).map(lambda seed: random_dem(seed, 8, 8, 6))


class TestDemType:
    def test_masked_cells_store_zero(self):
        dem = Dem(np.array([[5, 7]]), np.array([[True, False]]))
        assert dem.values[0, 1] == 0
        assert dem.cell_count == 1

    def test_volume_overflow_rejected(self):
        # three cells at 2**62 would wrap the int64 volume negative
        with pytest.raises(DemError, match="overflow"):
            Dem.from_rows([[2**62, 2**62, 2**62]])

    def test_empty_domain_rejected(self):
        with pytest.raises(DemError):
            Dem(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=bool))

    def test_negative_elevation_rejected(self):
        with pytest.raises(DemError):
            Dem(np.array([[-1]]), np.array([[True]]))

    def test_extrema_track_present_cells(self):
        dem = Dem.from_rows([[3, None, 9], [1, 2, None]])
        assert dem.zmin == 1 and dem.zmax == 9

    def test_values_are_immutable(self):
        dem = Dem.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            dem.values[0, 0] = 5


class TestQuantize:
    def test_formula(self):
        dem = quantize(np.array([[10.0]]), step=1.0, datum=0.0)
        assert dem.values[0, 0] == 11

    def test_at_datum_maps_to_one(self):
        dem = quantize(np.array([[4.5]]), step=2.0, datum=4.5)
        assert dem.values[0, 0] == 1

    def test_below_datum_clamps_to_one(self):
        dem = quantize(np.array([[-5.0]]), step=1.0, datum=0.0)
        assert dem.values[0, 0] == 1

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            quantize(np.array([[1.0]]), step=0.0)

    @pytest.mark.parametrize("step, datum", [(float("nan"), 0.0), (float("inf"), 0.0),
                                             (1.0, float("nan")), (1.0, float("inf")),
                                             (1.0, float("-inf"))])
    def test_non_finite_step_or_datum_rejected(self, step, datum):
        # either would map every present cell to level 1
        with pytest.raises(ValueError):
            quantize(np.array([[1.0, 5.0]]), step=step, datum=datum)

    def test_non_finite_masked(self):
        dem = quantize(np.array([[1.0, np.nan, np.inf]]))
        assert dem.mask.tolist() == [[True, False, False]]

    def test_all_masked_rejected(self):
        with pytest.raises(DemError):
            quantize(np.array([[np.nan]]))

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(0.01, 100), st.floats(-100, 100))
    def test_monotone_in_elevation(self, z1, z2, step, datum):
        lo, hi = sorted((z1, z2))
        dem = quantize(np.array([[lo, hi]]), step=step, datum=datum)
        assert dem.values[0, 0] <= dem.values[0, 1]


class TestEsriAscii:
    def test_parse_counts_and_volume(self):
        # values 1..4 quantize to levels 2..5 at datum 0, so volume is 14;
        # datum=1 keeps integer grids verbatim (volume 10)
        dem = parse_esri_ascii(GRID_2X2)
        assert dem.cell_count == 4
        assert volume(dem) == 14
        verbatim = parse_esri_ascii(GRID_2X2, datum=1.0)
        assert volume(verbatim) == 10
        assert verbatim.values.tolist() == [[1, 2], [3, 4]]

    def test_nodata_cell_removed(self):
        text = ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                "NODATA_value -9999\n1 -9999\n3 4\n")
        dem = parse_esri_ascii(text)
        assert dem.cell_count == 3
        assert not dem.mask[0, 1]

    def test_nan_first_cell_masked(self):
        # nan and inf parse as numbers, so they start the data, not a header
        dem = parse_esri_ascii(GRID_2X2.replace("1 2\n", "nan 2\n"))
        assert dem.mask.tolist() == [[False, True], [True, True]]

    def test_missing_header_key(self):
        with pytest.raises(DemParseError, match="nrows"):
            parse_esri_ascii("ncols 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n")

    def test_non_numeric_token_names_position(self):
        text = GRID_2X2.replace("3 4", "3 oops")
        with pytest.raises(DemParseError, match=r"line 7, column 2"):
            parse_esri_ascii(text)

    def test_wrong_cell_count(self):
        with pytest.raises(DemParseError, match="2 of 4"):
            parse_esri_ascii(GRID_2X2.replace("3 4\n", ""))
        with pytest.raises(DemParseError, match="more cells"):
            parse_esri_ascii(GRID_2X2 + "9\n")

    def test_all_nodata_rejected(self):
        text = ("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                "NODATA_value 0\n0\n")
        with pytest.raises(DemParseError, match="no data"):
            parse_esri_ascii(text)

    @settings(max_examples=60, deadline=None)
    @given(small_dem_strategy())
    def test_round_trip(self, dem):
        # written grids re-parse exactly at step=1, datum=1
        again = parse_esri_ascii(dem.to_esri_ascii(), step=1.0, datum=1.0)
        assert again == dem


class TestFixtureCsv:
    def test_parse_masked(self):
        dem = parse_fixture_csv("1,,3\n,2,\n")
        assert dem.cell_count == 3
        assert dem.values[1, 1] == 2
        assert not dem.mask[0, 1]

    def test_bad_cell(self):
        with pytest.raises(DemParseError, match="column 2"):
            parse_fixture_csv("1,x\n")

    @settings(max_examples=60, deadline=None)
    @given(small_dem_strategy())
    def test_round_trip(self, dem):
        assert parse_fixture_csv(dem.to_fixture_csv()) == dem


class TestVolume:
    def test_constant_grid(self):
        assert volume(Dem.from_rows([[5, 5, 5], [5, 5, 5]])) == 30

    def test_single_cell(self):
        assert volume(Dem.from_rows([[7]])) == 7

    def test_row_fixture(self):
        assert volume(Dem.from_rows([[2, 5, 5, 2, 2]])) == 16


class TestScanLines:
    def test_rows_full_grid(self):
        dem = Dem.from_rows([[1] * 3] * 3)
        lines = scan_lines(dem, "row")
        assert len(lines) == 3
        assert all(len(l.segments) == 1 and len(l.segments[0]) == 3 for l in lines)

    def test_diag_down_lengths(self):
        dem = Dem.from_rows([[1] * 3] * 3)
        lengths = [l.cell_count for l in scan_lines(dem, "diag-down")]
        assert lengths == [1, 2, 3, 2, 1]

    def test_mask_splits_segments(self):
        dem = Dem.from_rows([[4, 4, None, 4]])
        line = scan_lines(dem, "row")[0]
        assert [len(s) for s in line.segments] == [2, 1]

    @settings(max_examples=60, deadline=None)
    @given(small_dem_strategy(), st.sampled_from(["row", "column", "diag-down", "diag-up"]))
    def test_partition(self, dem, direction):
        lines = scan_lines(dem, direction)
        seen = {}
        from demgranulo.dem import DIRECTION_STEPS
        dr, dc = DIRECTION_STEPS[direction]
        for line in lines:
            for seg in line.segments:
                for i, v in enumerate(seg.values):
                    cell = (seg.row0 + i * dr, seg.col0 + i * dc)
                    assert cell not in seen
                    seen[cell] = v
        assert len(seen) == dem.cell_count
        assert all(dem.values[r, c] == v for (r, c), v in seen.items())


class TestReflectRows:
    def test_reflects_values(self):
        dem = Dem.from_rows([[1, 2, 3]])
        assert reflect_rows(dem, {0}).values.tolist() == [[3, 2, 1]]

    def test_empty_subset_identity(self):
        dem = Dem.from_rows([[1, 2], [3, 4]])
        assert reflect_rows(dem, set()) == dem

    def test_respects_row_interval(self):
        dem = Dem.from_rows([[None, 1, 2, None]])
        out = reflect_rows(dem, {0})
        assert out.values.tolist() == [[0, 2, 1, 0]]

    def test_gap_row_rejected(self):
        dem = Dem.from_rows([[1, None, 2]])
        with pytest.raises(DemError):
            reflect_rows(dem, {0})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 63))
    def test_involution_and_volume(self, seed, bits):
        dem = random_interval_dem(seed)
        subset = {r for r in range(dem.height) if bits >> r & 1}
        once = reflect_rows(dem, subset)
        assert reflect_rows(once, subset) == dem
        assert volume(once) == volume(dem)


class TestScaleHeights:
    def test_identity(self):
        dem = Dem.from_rows([[1, 2, 1]])
        assert scale_heights(dem, 1) == dem

    def test_scales(self):
        dem = Dem.from_rows([[1, 2, 1]])
        assert scale_heights(dem, 3).values.tolist() == [[3, 6, 3]]

    def test_volume_linear(self):
        dem = Dem.from_rows([[2, 5, 5, 2, 2]])
        assert volume(scale_heights(dem, 4)) == 4 * volume(dem)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            scale_heights(Dem.from_rows([[1]]), 0)

    def test_overflow_checked(self):
        dem = Dem.from_rows([[2**40]])
        with pytest.raises(OverflowError):
            scale_heights(dem, 2**40)
