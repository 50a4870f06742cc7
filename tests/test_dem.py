"""Raster data model, ingestion, quantization and geometry."""

import os
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_dem, random_interval_dem, reference_parse_esri_ascii,
                      reference_parse_fixture_csv, reference_quantize, reference_scan_lines,
                      reference_to_esri_ascii, reference_to_fixture_csv)
from demgranulo import dem as dem_module
from demgranulo.dem import (Dem, DemError, DemParseError, parse_esri_ascii,
                            parse_fixture_csv, quantize, reflect_rows,
                            scale_heights, scan_lines, volume)
from demgranulo.synth import synthetic_terrain

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
        for rows, zmin, zmax in [([[3, None, 9], [1, 2, None]], 1, 9),
                                 ([[0, None], [4, None]], 0, 4),
                                 ([[None, 127], [127, None]], 127, 127),  # int8's top
                                 ([[None, 5]], 5, 5)]:
            dem = Dem.from_rows(rows)
            assert (dem.zmin, dem.zmax) == (zmin, zmax)

    def test_values_are_immutable(self):
        dem = Dem.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            dem.values[0, 0] = 5

    @pytest.mark.parametrize("values", [[[1.5, 2.7]], [[1.0, np.nan]], [[1.0, np.inf]],
                                        [[1.0, 1e30]], [[1.0, 2.0**63]], [[1.0, -1e30]],
                                        [[1.0, 2 + 1j]]])
    def test_present_value_must_be_a_finite_integer(self, values):
        # [[1.5, 2.7]] used to become [[1, 2]]
        with pytest.raises(DemError, match="finite integers"):
            Dem(np.array(values), np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("value", [Fraction(3, 2), 2**70, None, "4"])
    def test_present_object_must_be_an_integer(self, value):
        with pytest.raises(DemError, match="finite integers"):
            Dem(np.array([[1, value]], dtype=object), np.ones((1, 2), dtype=bool))

    def test_from_rows_refuses_a_fraction(self):
        with pytest.raises(DemError, match="finite integers"):
            Dem.from_rows([[1, 2.5]])

    def test_whole_floats_and_masked_nan_accepted(self):
        values = np.array([[1.0, np.nan, 3.0], [np.inf, -7.5, 2.0]])
        mask = np.isfinite(values) & (values >= 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN used to be cast, and warn
            dem = Dem(values, mask)
        assert dem.values.tolist() == [[1, 0, 3], [0, 0, 2]]
        assert dem == Dem.from_rows([[1, None, 3], [None, None, 2.0]])
        assert Dem(values.astype(complex), mask) == dem

    def test_callers_mask_stays_writeable(self):
        # the raster seals a copy of the mask, never the caller's array
        mask = np.ones((2, 2), dtype=bool)
        dem = Dem(np.ones((2, 2), dtype=np.int64), mask)
        assert mask.flags.writeable
        mask[0, 0] = False
        assert dem.mask.all() and dem.cell_count == 4


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

    @pytest.mark.parametrize("grid, datum, want", [
        ([[-1e300, 2.0, -1e19]], 0.0, [[1, 3, 1]]),
        # -1.7e308 - 1e308 overflows to -inf
        ([[-1.7e308, 1e308, -1e308]], 1e308, [[1, 1, 1]]),
    ])
    def test_far_below_datum_clamps_before_the_cast(self, grid, datum, want):
        # the float levels used to be cast to int64 first, outside its range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dem = quantize(np.array(grid), datum=datum)
        assert dem.values.tolist() == want

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

    @pytest.mark.parametrize("shape", [(3, 3), (1, 2), (2,)])
    def test_mask_of_another_shape_rejected(self, shape):
        # a (1, 2) mask used to be broadcast over the (2, 2) grid
        with pytest.raises(DemError, match="^mask must have the grid's shape$"):
            quantize(np.ones((2, 2)), np.ones(shape, dtype=bool))

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


# cells a quantizer must mask, clamp, refuse or map exactly: non-finite
# values, a NODATA value, magnitudes near and past the int64 levels
_ODD_ELEVATIONS = (float("nan"), float("inf"), float("-inf"), -9999.0, 0.0, -0.0,
                   1e300, -1e300, 1.7e308, -1.7e308, 2.0**62, 2.0**63, -2.0**63)


@st.composite
def quantize_inputs(draw):
    """A grid up to 6x6 with odd cells, an optional mask, a step and a datum."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from(_ODD_ELEVATIONS),
                      st.floats(-1e6, 1e6), st.floats(allow_nan=True, allow_infinity=True))
    grid = np.array(draw(st.lists(cells, min_size=h * w, max_size=h * w))).reshape(h, w)
    mask = draw(st.none() | st.lists(st.booleans(), min_size=h * w,
                                     max_size=h * w).map(lambda m: np.reshape(m, (h, w))))
    step = draw(st.sampled_from((1.0, 0.5, 1e-300, 1e300))
                | st.floats(1e-3, 1e3))
    datum = draw(st.sampled_from((0.0, -9999.0, -1e300, 1e300, -2.0**62))
                 | st.floats(-1e6, 1e6))
    return grid, mask, step, datum


def _quantized(fn, grid, mask, step, datum):
    """The Dem, or the type and message of the error raised."""
    try:
        with np.errstate(all="ignore"):  # inf and huge cells warn alike in both
            return fn(grid, mask, step=step, datum=datum)
    except (DemError, ValueError) as exc:
        return type(exc), str(exc)


class TestQuantizeInPlace:
    @settings(max_examples=400, deadline=None)
    @given(quantize_inputs())
    def test_matches_one_array_per_step(self, case):
        grid, mask, step, datum = case
        kept = grid.copy()
        got = _quantized(quantize, grid, mask, step, datum)
        assert got == _quantized(reference_quantize, grid, mask, step, datum)
        # the caller's grid is not the buffer the levels are built in
        np.testing.assert_array_equal(grid, kept)

    def test_parse_peak_is_two_grids_beyond_its_data_step(self):
        # measured -0.61 grids: the reader's int16 levels, mask and
        # one block stay under the one-call parse of the data (int64 levels:
        # 0.14). A level buffer of its own and the Dem's copy took 1.7
        # grids, one array per step 4.1.
        text = synthetic_terrain(320, levels=256, hole_fraction=0.02,
                                 seed=1).to_esri_ascii()
        grid_bytes = 320 * 320 * 8
        tracemalloc.start()
        try:
            np.loadtxt(text.splitlines()[6:], comments=None, ndmin=2)
            _, data_step = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            parse_esri_ascii(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= data_step + 2 * grid_bytes, (peak - data_step) / grid_bytes


def _esri_grid(rows: list[list[int]], nodata: int = -9999) -> str:
    """An ESRI grid of ``rows``, one text line per row."""
    header = (f"ncols {len(rows[0])}\nnrows {len(rows)}\nxllcorner 0\nyllcorner 0\n"
              f"cellsize 1\nNODATA_value {nodata}\n")
    return header + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _levels_up_to(top: int, rows: int = 6) -> list[list[int]]:
    """Rows of 3 levels up to ``top``, with one NODATA cell; the top
    level is in the last row."""
    grid = [[1 + (r * 3 + c) % 100 for c in range(3)] for r in range(rows)]
    grid[0][1] = -9999
    grid[-1][2] = top
    return grid


class TestNarrowLevels:
    # a raster holds its levels in the narrowest signed dtype that holds
    # the top one, and every reader builds them in that dtype
    @pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16),
                                            (256, np.int16), (40000, np.int32)])
    def test_esri_text_file_and_token_pass(self, tmp_path, top, dtype):
        text = _esri_grid(_levels_up_to(top))
        path = tmp_path / "grid.asc"
        path.write_text(text, encoding="utf-8")
        want = reference_parse_esri_ascii(text, datum=1)
        # "4_0" is a token np.loadtxt refuses: its block is read token by token
        token_text = text.replace("\n4 ", "\n4_0 ", 1)
        assert token_text != text
        token_want = reference_parse_esri_ascii(token_text, datum=1)
        for source, ref in ((text, want), (path, want), (token_text, token_want)):
            dem = parse_esri_ascii(source, datum=1)
            assert dem.values.dtype == dtype, source
            assert dem == ref

    @pytest.mark.parametrize("middle, dtype_before", [(100, np.int8), (200, np.int16)])
    def test_esri_widened_in_the_last_block(self, tmp_path, middle, dtype_before):
        # 200 rows of 3 cells take four blocks of 64 lines; the only level
        # past 32767 is in the last, so the levels are widened there, from
        # int8 or from the int16 that 200 in the second block asked for
        grid = _levels_up_to(40000, rows=200)
        grid[100][0] = middle
        # without its last row the grid holds no level past 32767
        assert parse_esri_ascii(_esri_grid(grid[:-1]), datum=1).values.dtype == dtype_before
        text = _esri_grid(grid)
        path = tmp_path / "grid.asc"
        path.write_text(text, encoding="utf-8")
        want = reference_parse_esri_ascii(text, datum=1)
        for source in (text, path):
            dem = parse_esri_ascii(source, datum=1)
            assert dem.values.dtype == np.int32
            assert dem == want and dem.zmax == 40000

    @pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16),
                                            (256, np.int16), (40000, np.int32)])
    def test_fixture_csv_bulk_and_by_line(self, top, dtype):
        text = "1,,3\n4,5,%d\n" % top
        for source in (text, "+" + text):  # "+" sends it to the by-line pass
            dem = parse_fixture_csv(source)
            assert dem.values.dtype == dtype
            assert dem == reference_parse_fixture_csv(text)

    @pytest.mark.parametrize("values, dtype", [
        (np.array([[1, 127]]), np.int8),
        (np.array([[1, 128]]), np.int16),
        (np.array([[1, 200]], dtype=np.uint8), np.int16),
        (np.array([[1.0, 32767.0]]), np.int16),
        (np.array([[1, 32768]], dtype=np.int64), np.int32),
        (np.array([[True, False]]), np.int8),
        (np.array([[1, 2**40]]), np.int64),
    ])
    def test_constructor(self, values, dtype):
        dem = Dem(values, np.ones(values.shape, dtype=bool))
        assert dem.values.dtype == dtype
        assert dem.values.tolist() == values.astype(np.int64).tolist()

    def test_constructor_reads_only_present_cells(self):
        # an absent cell's value does not widen the raster
        dem = Dem(np.array([[5, 10**6, -7]]), np.array([[True, False, False]]))
        assert dem.values.dtype == np.int8 and dem.values.tolist() == [[5, 0, 0]]

    @pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16),
                                            (40000, np.int32)])
    def test_quantize(self, top, dtype):
        grid = np.array([[1.0, np.nan, float(top)]])
        dem = quantize(grid, datum=1)
        assert dem.values.dtype == dtype
        assert dem == reference_quantize(grid, datum=1)


class TestParseMemory:
    # tracemalloc peak in int64 grids, 320x320 terrain at 256 levels:
    # measured 1.97 (CSV) and 1.10 (ESRI, its lines and the int16 levels;
    # 2.82 and 1.86 when the raster held int64 levels), where
    # the CSV pass that sent every cell through int read 4.72, the ESRI
    # text's lines in one np.loadtxt call 2.13, and a level buffer beside
    # the parsed ESRI grid, and the Dem's copy of its levels, 3.38
    @pytest.mark.parametrize("parse, render, bound", [
        (parse_fixture_csv, Dem.to_fixture_csv, 3.0),
        (parse_esri_ascii, Dem.to_esri_ascii, 2.3),
    ], ids=["fixture-csv", "esri-ascii"])
    def test_parse_peak(self, parse, render, bound):
        text = render(synthetic_terrain(320, levels=256, hole_fraction=0.02, seed=1))
        tracemalloc.start()
        try:
            parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 320 * 320 * 8, peak / (320 * 320 * 8)

    @pytest.mark.parametrize("side, bound, newline", [
        pytest.param(side, bound, newline, id=f"{side}-{bound}{suffix}")
        for newline, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
        for side, bound in ((320, 0.85), (1000, 0.6))])
    def test_file_peak(self, tmp_path, side, bound, newline):
        # measured 0.70 (320^2) and 0.41 (1000^2): the int16 levels, the
        # mask and one block of lines, 16 of them at 1000^2 (0.48 with
        # blocks of 64 lines). The int64 levels took 1.44 and 1.23;
        # reading the file as text, its lines and a float grid beside the
        # levels 2.61 and 2.62. Lone CR line ends made the file one binary
        # line, held whole with all its lines: 1.57 and 1.48
        path = tmp_path / "terrain.asc"
        path.write_text(synthetic_terrain(side, levels=256, hole_fraction=0.02,
                                          seed=1).to_esri_ascii(), encoding="utf-8",
                        newline=newline)
        tracemalloc.start()
        try:
            parse_esri_ascii(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * side * side * 8, peak / (side * side * 8)

    # measured 0.41, 0.43 and 1.39, where reading the whole text again
    # one token at a time took 2.37, 2.37 and 2.00: one 1_0-style token
    # sends only its own block to the token reader; rows wrapped as 7
    # cells and then 993 make blocks of as much text as unwrapped rows
    # (1.64 when the first data line's width sized every block); a bad
    # token in the last row sends the file's text, read again, through
    # the same reader
    @pytest.mark.parametrize("edit, bound, error", [
        pytest.param(lambda rows: [re.sub(r"(^| )(\d)(\d+)(?= |$)", r"\1\2_\3", rows[0],
                                          count=1)] + rows[1:],
                     0.6, None, id="underscore"),
        pytest.param(lambda rows: [part for row in rows for part in
                                   (" ".join(row.split()[:7]), " ".join(row.split()[7:]))],
                     0.6, None, id="wrapped-7"),
        pytest.param(lambda rows: rows[:-1] + [rows[-1].rsplit(" ", 1)[0] + " x"],
                     1.7, "non-numeric token 'x' (line 1006, column 1000)",
                     id="bad-token-last-row"),
    ])
    def test_odd_file_peak(self, tmp_path, edit, bound, error):
        dem = synthetic_terrain(1000, levels=256, hole_fraction=0.02, seed=1)
        lines = dem.to_esri_ascii().splitlines()
        edited = lines[:6] + edit(lines[6:])
        assert edited != lines
        path = tmp_path / "terrain.asc"
        path.write_text("\n".join(edited) + "\n", encoding="utf-8")
        del lines, edited
        tracemalloc.start()
        try:
            got = _outcome(lambda p: parse_esri_ascii(p, datum=1), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (dem if error is None else (DemParseError, error))
        assert peak <= bound * 1000 * 1000 * 8, peak / (1000 * 1000 * 8)

    def test_by_line_csv_peak(self, monkeypatch):
        # a leading "+" sends the text to the by-line pass, which fills the
        # int64 grid and the mask a row at a time: measured 2.82 grids,
        # where raster-sized Python lists beside them took 3.62
        from demgranulo import dem as dem_module
        plain = synthetic_terrain(320, levels=256, hole_fraction=0.02,
                                  seed=1).to_fixture_csv()
        cells_by_line, by_line = dem_module._fixture_cells_by_line, []

        def counted(*args):
            by_line.append(1)
            return cells_by_line(*args)

        monkeypatch.setattr(dem_module, "_fixture_cells_by_line", counted)
        text = "+" + plain
        tracemalloc.start()
        try:
            dem = parse_fixture_csv(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert by_line == [1]
        assert dem == parse_fixture_csv(plain)
        assert peak <= 3.0 * 320 * 320 * 8, peak / (320 * 320 * 8)


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

    @pytest.mark.parametrize("key", ["ncols", "nrows"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_count_is_a_parse_error(self, key, value):
        # int() of these raised ValueError or OverflowError, not a parse error
        with pytest.raises(DemParseError) as exc:
            parse_esri_ascii(GRID_2X2.replace(f"{key} 2", f"{key} {value}"))
        assert str(exc.value) == "ncols/nrows must be positive integers (line 1)"

    def test_cell_far_below_datum_lands_on_level_one(self):
        text = "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n-1e300 2 -1e19\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dem = parse_esri_ascii(text)
        assert dem.values.tolist() == [[1, 3, 1]]

    def test_missing_header_key(self):
        with pytest.raises(DemParseError, match="nrows"):
            parse_esri_ascii("ncols 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n")

    @pytest.mark.parametrize("origin", ["xllcorner 0\nyllcorner 0",
                                        "xllcenter 0.5\nyllcenter 0.5",
                                        "YLLCENTER 0.5\nXllCenter 0.5"])
    def test_origin_at_cell_corner_or_centre(self, origin):
        text = GRID_2X2.replace("xllcorner 0\nyllcorner 0", origin)
        assert parse_esri_ascii(text, datum=1.0) == Dem.from_rows([[1, 2], [3, 4]])

    @pytest.mark.parametrize("origin,missing", [
        ("", "xllcorner/yllcorner or xllcenter/yllcenter"),
        ("yllcorner 0\n", "xllcorner"),
        ("xllcorner 0\n", "yllcorner"),
        ("xllcenter 0\n", "yllcenter"),
        ("xllcorner 0\nyllcenter 0\n", "xllcenter"),
    ])
    def test_origin_is_one_full_pair(self, origin, missing):
        # a header with no origin names both spellings of the pair
        text = GRID_2X2.replace("xllcorner 0\nyllcorner 0\n", origin)
        with pytest.raises(DemParseError) as exc:
            parse_esri_ascii(text)
        assert str(exc.value).startswith(f"header missing {missing} (line ")

    def test_non_numeric_token_names_position(self):
        text = GRID_2X2.replace("3 4", "3 oops")
        with pytest.raises(DemParseError, match=r"line 7, column 2"):
            parse_esri_ascii(text)

    def test_wrong_cell_count(self):
        with pytest.raises(DemParseError, match="2 of 4"):
            parse_esri_ascii(GRID_2X2.replace("3 4\n", ""))
        with pytest.raises(DemParseError, match="more cells"):
            parse_esri_ascii(GRID_2X2 + "9\n")

    @pytest.mark.parametrize("nodata", [5, 5.0])
    def test_writer_refuses_nodata_held_by_a_present_cell(self, nodata):
        # re-parsed, both cells at 5 would be masked as NODATA
        dem = Dem.from_rows([[1, 5, 2], [None, 5, 3]])
        with pytest.raises(ValueError, match="NODATA value"):
            dem.to_esri_ascii(nodata=nodata)
        assert parse_esri_ascii(dem.to_esri_ascii(nodata=4), datum=1) == dem

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

    @pytest.mark.parametrize("text, message", [
        ("99999999999999999999,x\n",
         "cell '99999999999999999999' outside the int64 range (line 1, column 1)"),
        ("x,99999999999999999999\n", "non-integer cell 'x' (line 1, column 1)"),
    ])
    def test_first_bad_cell_of_a_line_is_named(self, text, message):
        with pytest.raises(DemParseError) as exc:
            parse_fixture_csv(text)
        assert str(exc.value) == message

    @settings(max_examples=60, deadline=None)
    @given(small_dem_strategy())
    def test_round_trip(self, dem):
        assert parse_fixture_csv(dem.to_fixture_csv()) == dem


# Tokens a grid is mostly made of, and odd ones swapped in: forms float()
# or int() accept that np.loadtxt does not (1_0, Arabic-Indic digits),
# non-finite and overflowing values, and tokens no parser accepts.
ESRI_PLAIN = ("7", "12", "0", "2.5", "-9999")
ESRI_ODD = ("+5", "1_0", "nan", "-inf", "1e400", "1e300", "#", "0x10", "\u0661",
            "\u0663\u0662", "1e5_0", "-nan", "3,")
CSV_PLAIN = ("1", "7", "12", "")
CSV_ODD = ("+5", "1_0", " 4 ", " ", "\u0661", "0x10", "#", "nan", "-3", "2.0",
           str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 + 1))


def _with_odd_tokens(draw, tokens, odd):
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2)) if tokens else 0):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(odd))
    return tokens


@st.composite
def esri_texts(draw):
    """A header and nrows*ncols tokens (or one too few or too many),
    wrapped at ncols or at random widths, with blank lines between."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = max(0, nrows * ncols + draw(st.sampled_from((0, 0, 0, -1, 1))))
    tokens = draw(st.lists(st.sampled_from(ESRI_PLAIN), min_size=count, max_size=count))
    tokens = _with_odd_tokens(draw, tokens, ESRI_ODD)
    regular = draw(st.booleans())
    sep = draw(st.sampled_from((" ", "\t", "  ", "\u00a0")))
    lines, i = [], 0
    while i < len(tokens):
        width = ncols if regular else draw(st.integers(1, 7))
        lines.append(sep.join(tokens[i:i + width]))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("", " "))))
        i += width
    header = [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 0.0",
              "yllcorner 0.0", "cellsize 1.0"]
    if draw(st.booleans()):
        header.append("NODATA_value -9999")
    return "\n".join(header + lines) + draw(st.sampled_from(("", "\n")))


@st.composite
def csv_texts(draw):
    """Ragged rows of cells, empty fields included."""
    rows = draw(st.lists(st.lists(st.sampled_from(CSV_PLAIN), max_size=6), max_size=5))
    cells = _with_odd_tokens(draw, [c for row in rows for c in row], CSV_ODD)
    lines = []
    for row in rows:
        lines.append(",".join(cells[:len(row)]))
        cells = cells[len(row):]
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def _random_csv(side, empty_fraction, seed):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 10**6, (side, side)).astype(str)
    cells[rng.random((side, side)) < empty_fraction] = ""
    return "".join(",".join(row) + "\n" for row in cells)


def _outcome(parse, text):
    """The parsed Dem, or the type and message of the error raised."""
    try:
        return parse(text)
    except (DemError, ValueError) as exc:
        return type(exc), str(exc)


def _file_outcomes(path, data: bytes, parse=reference_parse_esri_ascii, **options):
    """The outcome of ``parse_esri_ascii`` on a file of ``data``, and that of
    ``parse`` on the file's text (an undecodable file fails as it is read)."""
    # a new file: truncating one that holds data makes ext4 flush it to disk
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    return (_outcome(lambda p: parse_esri_ascii(p, **options), path),
            _outcome(lambda p: parse(p.read_text(encoding="utf-8"), **options), path))


def _grid_text(nrows, ncols, widths, bad_cell=None):
    """An ESRI grid of nrows x ncols cells, each row written as lines of
    ``widths`` cells, with the token ``x`` at flat cell ``bad_cell``."""
    cells = [str(i % 97 + 1) for i in range(nrows * ncols)]
    if bad_cell is not None:
        cells[bad_cell] = "x"
    lines = []
    for r in range(nrows):
        row = cells[r * ncols:(r + 1) * ncols]
        for width in widths:
            lines.append(" ".join(row[:width]))
            row = row[width:]
    header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    return header + "\n".join(lines) + "\n"


ESRI_CASES = [
    pytest.param(GRID_2X2.replace("3 4", "3 1_0"), id="underscore"),
    pytest.param(GRID_2X2.replace("1 2\n3 4", "1\n2 3\n4"), id="ragged-rows"),
    pytest.param(GRID_2X2.replace("1 2\n3 4", "1 2 3 4"), id="one-line"),
    pytest.param(GRID_2X2.replace("3 4\n", "3 4\n\n\n"), id="trailing-blanks"),
    pytest.param(GRID_2X2.replace("3 4\n", ""), id="too-few"),
    pytest.param(GRID_2X2.replace("3 4\n", "3 4 5\n"), id="too-many"),
    pytest.param(GRID_2X2.replace("1 2\n3 4\n", "\n \n"), id="no-data"),
    # rows of 6 cells on two lines each: 130 rows span three blocks
    pytest.param(_grid_text(130, 6, (3, 3)), id="wrapped"),
    pytest.param(_grid_text(130, 6, (4, 2)), id="ragged-wrapped"),
    # one line per row: row 100 lies in the second block
    pytest.param(_grid_text(130, 3, (3,), bad_cell=99 * 3 + 1), id="bad-token-in-row-100"),
]


# np.loadtxt warns on input without data lines; the parser must not call it there.
# hypothesis loads libcst to write the patch file of a failing example, which
# warns about mypy_extensions.TypedDict; turned into an error, that warning ends
# the run in INTERNALERROR without the falsifying example. The upper mark is
# applied last and so wins.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
class TestBulkParsersMatchTokenLoops:
    @settings(max_examples=400, deadline=None)
    @given(esri_texts())
    def test_esri(self, text):
        assert _outcome(parse_esri_ascii, text) == _outcome(reference_parse_esri_ascii, text)

    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_fixture_csv(self, text):
        assert (_outcome(parse_fixture_csv, text)
                == _outcome(reference_parse_fixture_csv, text))

    @pytest.mark.parametrize("text", ESRI_CASES)
    def test_esri_cases(self, text):
        assert _outcome(parse_esri_ascii, text) == _outcome(reference_parse_esri_ascii, text)

    @settings(max_examples=400, deadline=None)
    # every line break of str.splitlines(), which a text is split by
    @given(esri_texts(), st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                          "\x1e", "\x85", "\u2028", "\u2029")))
    def test_esri_file(self, tmp_path_factory, text, newline):
        path = tmp_path_factory.getbasetemp() / "loader.asc"
        got, want = _file_outcomes(path, text.replace("\n", newline).encode("utf-8"))
        assert got == want

    @pytest.mark.parametrize("text", ESRI_CASES)
    def test_esri_file_cases(self, tmp_path, text):
        got, want = _file_outcomes(tmp_path / "grid.asc", text.encode("utf-8"))
        assert got == want

    @pytest.mark.parametrize("data, streamed", [
        (GRID_2X2, True),
        (GRID_2X2.replace("\n", "\r\n"), True),
        (GRID_2X2.rstrip("\n"), True),
        (GRID_2X2.replace("cellsize 1", "cellsize 1\nNODATA_value -9999")
         .replace("3 4", "-9999 4"), True),
        (GRID_2X2.replace("1 2\n3 4", "nan 2\n-inf inf"), True),
        (GRID_2X2.replace("3 4\n", "3 4\n\t\n  \n"), True),
        # the size guard: the grid ends before its bad token
        (GRID_2X2.replace("ncols 2", "ncols 200").replace("3 4", "3 oops"), False),
        (GRID_2X2.replace("3 4", "3 \u0664"), True),
        (GRID_2X2.encode("utf-8").replace(b"3 4", b"3 \xff4"), False),
        (GRID_2X2.replace("1 2\n", "1 2\r"), True),
        (GRID_2X2.replace("1 2\n", "1 2\x0c"), True),
        (GRID_2X2.replace("1 2\n", "1 2\r\r\n"), True),
        (GRID_2X2.replace("1 2\n", "1 2\x85"), True),
        (GRID_2X2.replace("1 2\n", "1 2\u2028"), True),
        (GRID_2X2.replace("1 2", "1\u00a02"), True),
        (GRID_2X2.replace("3 4", "3 4\x00"), False),
        ("\ufeff" + GRID_2X2, False),
        (GRID_2X2.replace("3 4", "3 1_0"), True),
        # cells are placed by count, so rows may wrap at any one width
        (GRID_2X2.replace("1 2\n3 4", "1 2 3 4"), True),
        (GRID_2X2.replace("1 2\n3 4", "1e300 2\n3 4"), False),
        (_grid_text(130, 6, (3, 3)), True),
        (_grid_text(130, 6, (4, 2)), True),
        (_grid_text(130, 3, (3,), bad_cell=99 * 3 + 1), False),
    ], ids=["plain", "crlf", "no-final-newline", "nodata", "non-finite", "blank-lines",
            "short-bad-token", "arabic-digit", "not-utf8", "lone-cr", "form-feed",
            "cr-crlf", "next-line", "line-separator", "nbsp", "nul", "bom", "underscore",
            "one-line", "level-overflow", "wrapped", "ragged-wrapped", "bad-token-in-row-100"])
    def test_esri_file_streams_plain_grids(self, monkeypatch, tmp_path, data, streamed):
        # the reader takes the file's own lines, once; a file it refuses
        # is read again as text, whose lines go through the same reader
        # and give the text's error
        data = data if isinstance(data, bytes) else data.encode("utf-8")
        esri_read, calls = dem_module._esri_read, []

        def recorded(lines, *args):
            calls.append(lines if isinstance(lines, list) else "file lines")
            return esri_read(lines, *args)

        monkeypatch.setattr(dem_module, "_esri_read", recorded)
        got, want = _file_outcomes(tmp_path / "grid.asc", data)
        assert got == want
        try:
            text_lines = [data.decode("utf-8").splitlines()]
        except UnicodeDecodeError:  # raised by the text's read, before its reader
            text_lines = []
        assert calls == ["file lines"] + ([] if streamed else text_lines)

    @pytest.mark.parametrize("data", [
        GRID_2X2, GRID_2X2.replace("\n", "\r\n"),
        GRID_2X2.replace("ncols 2", "ncols 200").replace("3 4", "3 oops"),
        GRID_2X2.encode("utf-8").replace(b"3 4", b"3 \xff4"),
    ], ids=["plain", "crlf", "short-bad-token", "not-utf8"])
    def test_esri_pipe_is_read_once_as_text(self, monkeypatch, data):
        # a pipe can be read only once: its text, read from the handle
        # the parser opened, reaches the reader once, its bytes never
        data = data if isinstance(data, bytes) else data.encode("utf-8")
        esri_read, seen = dem_module._esri_read, []

        def recorded(lines, *args):
            seen.append(lines)
            return esri_read(lines, *args)

        monkeypatch.setattr(dem_module, "_esri_read", recorded)
        read, write = os.pipe()

        def feed():
            with open(write, "wb") as f:
                f.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = _outcome(parse_esri_ascii, Path(f"/dev/fd/{read}"))
        finally:
            writer.join()
            os.close(read)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            text, want = None, (type(exc), str(exc))
        else:
            want = _outcome(reference_parse_esri_ascii, text)
        assert got == want
        assert seen == ([] if text is None else [text.splitlines()])

    @pytest.mark.parametrize("origin", ["xllcenter 0.5\nyllcenter 0.5",
                                        "YLLCENTER 0.5\nXllCenter 0.5", "xllcenter 0"])
    def test_esri_file_centre_origin(self, tmp_path, origin):
        # the reference reads corner origins only: held to the text parser
        text = GRID_2X2.replace("xllcorner 0\nyllcorner 0", origin)
        got, want = _file_outcomes(tmp_path / "grid.asc", text.encode("utf-8"),
                                   parse=parse_esri_ascii)
        assert got == want

    @pytest.mark.parametrize("step, datum", [(0.5, 1.0), (0.0, 0.0), (1.0, float("nan"))])
    def test_esri_file_step_and_datum(self, tmp_path, step, datum):
        # a bad step or datum is refused after a fault of the grid, in a
        # file and in a text
        for text in (GRID_2X2, GRID_2X2.replace("3 4\n", ""),
                     GRID_2X2.replace("1 2\n3 4", "nan -inf\nnan inf")):
            got, want = _file_outcomes(tmp_path / "grid.asc", text.encode("utf-8"),
                                       step=step, datum=datum)
            assert got == want
            assert _outcome(lambda t: parse_esri_ascii(t, step=step, datum=datum),
                            text) == want

    @pytest.mark.parametrize("text", [
        "", "\n", "1,,3\n,2\n4", "1_0, 2 ,\u0661\n", "5,x\n", f"{-2**63},1\n",
        f"1,{2**63}\n", f"{2**63 - 1},{2**63 - 1}\n", "1,-2\n",
        f",x,{2**63}\n", f"{-2**63},x\n", f"1,2\n3,{2**63}\n4,x\n",
        # digits, commas and blanks only: offered to the bulk path
        "1,2\r\n,3\r\n", "1,2\r3,4", "1\n\n3\n", "1,\t,3\n", "1, ,3\n", " 4 ,\t5\t\n",
        "007,1\n", "1,2,\n3,4,\n", "1\n2,3,4\n,5\n", ",,\n,\n", "\n\n", "0,0\n",
        "99999999999999999999,x\n", "x,99999999999999999999\n",
        pytest.param(_random_csv(64, 0.1, seed=5), id="random-64x64"),
    ])
    def test_fixture_csv_cases(self, text):
        assert (_outcome(parse_fixture_csv, text)
                == _outcome(reference_parse_fixture_csv, text))

    @pytest.mark.parametrize("text, loadtxt_calls, by_line", [
        ("1,,3\n4,5\n", 1, False),
        ("1_0,2\n,3\n", 0, True),  # not digits only: never offered to np.loadtxt
        ("1, ,3\n", 1, True),  # refused: a field of blanks only
        (f"1,{2**63}\n", 1, True),  # refused: past int64
    ])
    def test_fixture_csv_loadtxt_calls(self, monkeypatch, text, loadtxt_calls, by_line):
        from demgranulo import dem as dem_module
        calls = {"loadtxt": 0, "by_line": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(dem_module, "_fixture_cells_by_line",
                            counted("by_line", dem_module._fixture_cells_by_line))
        got = _outcome(parse_fixture_csv, text)
        assert calls == {"loadtxt": loadtxt_calls, "by_line": int(by_line)}
        assert got == _outcome(reference_parse_fixture_csv, text)


class TestWritersMatchCellLoops:
    @pytest.mark.parametrize("nodata", [-9999, -9999.5, 0])
    @settings(max_examples=60, deadline=None)
    @given(dem=small_dem_strategy())
    def test_esri(self, nodata, dem):
        assert dem.to_esri_ascii(nodata) == reference_to_esri_ascii(dem, nodata)

    @settings(max_examples=60, deadline=None)
    @given(dem=small_dem_strategy())
    def test_fixture_csv(self, dem):
        assert dem.to_fixture_csv() == reference_to_fixture_csv(dem)


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

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        small_dem_strategy(),
        # 1xn, nx1, mostly gaps, and present cells at level 0, which only
        # the mask may split from their segment
        st.integers(0, 10**6).map(lambda seed: random_dem(seed, 1, 12, 6)),
        st.integers(0, 10**6).map(lambda seed: random_dem(seed, 12, 1, 6)),
        st.integers(0, 10**6).map(lambda seed: random_dem(seed, 8, 8, 6, hole_fraction=0.6)),
        small_dem_strategy().map(lambda dem: Dem(dem.values - 1, dem.mask))),
        st.sampled_from(["row", "column", "diag-down", "diag-up"]))
    def test_matches_reference(self, dem, direction):
        # the lines of _kernels.line_layout give the per-cell walk's lines,
        # in its order, with the same segments, origins and Python int values
        got = scan_lines(dem, direction)
        want = reference_scan_lines(dem, direction)
        assert [(l.direction, l.index) for l in got] == [(l.direction, l.index) for l in want]
        for a, b in zip(got, want):
            assert [(s.row0, s.col0, s.values) for s in a.segments] == \
                [(s.row0, s.col0, s.values) for s in b.segments]
        assert all(type(v) is int for l in got for s in l.segments
                   for v in (s.row0, s.col0, *s.values))


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

    @pytest.mark.parametrize("row", [-1, 2, 5])
    def test_row_outside_the_raster_rejected(self, row):
        # -1 used to mirror the last row, and 5 raised IndexError
        dem = Dem.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=f"^row {row} is outside 0..1$"):
            reflect_rows(dem, {0, row})

    def test_non_integer_row_rejected(self):
        with pytest.raises(TypeError):
            reflect_rows(Dem.from_rows([[1, 2]]), [0.0])

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

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_non_integer_factor_rejected(self, k):
        # a float factor would be truncated, 2.5 scaling by 2
        with pytest.raises(TypeError):
            scale_heights(Dem.from_rows([[1, 2, 1]]), k)

    def test_numpy_integer_factor(self):
        dem = Dem.from_rows([[1, 2, 1]])
        assert scale_heights(dem, np.int64(3)).values.tolist() == [[3, 6, 3]]

    def test_overflow_checked(self):
        dem = Dem.from_rows([[2**40]])
        with pytest.raises(OverflowError):
            scale_heights(dem, 2**40)
