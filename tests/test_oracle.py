"""Run tables and the run-path spectra, cross-checked against the
morphological route and the brute-force run counter."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracemalloc

import numpy as np

from conftest import (brute_runs_per_line, naive_run_table, random_dem,
                      random_interval_dem, random_unipeak_dem, reference_flat_lines,
                      reference_scan_lines)
from demgranulo import oracle
from demgranulo.dem import SE_FOR_DIRECTION, Dem, reflect_rows, volume
from demgranulo.oracle import (RunLengths, RunTable, is_unipeak, reflection_family,
                               run_lengths, run_profile_equal, run_table,
                               spectrum_from_runs, unipeak_entropy_equivalence)
from demgranulo.spectrum import (discrete_volume_derivative, pattern_spectra,
                                 pattern_spectrum)
from demgranulo.synth import run_profile_pair, synthetic_terrain

DIRECTIONS = ("row", "column", "diag-down", "diag-up")


def cells_per_line_and_level(rt):
    """{(line, level): summed run lengths}, read from the table's columns."""
    cells = {}
    for i, h, t, c in zip(rt.line.tolist(), rt.level.tolist(), rt.length.tolist(),
                          rt.runs.tolist()):
        cells[i, h] = cells.get((i, h), 0) + t * c
    return cells


def dems(max_side=8, levels=6):
    return st.integers(0, 10**6).map(lambda s: random_dem(s, max_side, max_side, levels))


@st.composite
def masked_rasters(draw, levels=st.integers(0, 6)):
    """Rasters up to 12x12, 1xn and nx1 included, with present 0 cells."""
    h, w = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                          st.tuples(st.integers(1, 12), st.just(1)),
                          st.tuples(st.integers(1, 12), st.integers(1, 12))))
    values = draw(st.lists(levels, min_size=h * w, max_size=h * w))
    mask = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    mask[draw(st.integers(0, h * w - 1))] = True
    return Dem(np.reshape(values, (h, w)), np.reshape(mask, (h, w)))


class TestRunTable:
    def test_peak_row(self):
        rt = run_table(Dem.from_rows([[1, 2, 1]]), "row")
        assert rt.counts == {(0, 1, 3): 1, (0, 2, 1): 1}

    def test_row_fixture(self):
        rt = run_table(Dem.from_rows([[2, 5, 5, 2, 2]]), "row")
        assert rt.counts == {(0, 1, 5): 1, (0, 2, 5): 1,
                             (0, 3, 2): 1, (0, 4, 2): 1, (0, 5, 2): 1}

    def test_masked_row_two_unit_runs(self):
        rt = run_table(Dem.from_rows([[4, None, 4]]), "row")
        assert rt.counts == {(0, h, 1): 2 for h in range(1, 5)}

    @settings(max_examples=60, deadline=None)
    @given(dems(), st.sampled_from(DIRECTIONS))
    def test_against_brute_threshold_runs(self, dem, direction):
        rt = run_table(dem, direction)
        for line in reference_scan_lines(dem, direction):
            seq = []
            for seg in line.segments:
                seq.extend(seg.values)
                seq.append(None)  # segment boundary
            for h in range(1, dem.zmax + 1):
                expected = {}
                for t in brute_runs_per_line(seq, h):
                    expected[t] = expected.get(t, 0) + 1
                got = {t: c for (i, hh, t), c in rt.counts.items()
                       if i == line.index and hh == h}
                assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(dems(), st.sampled_from(DIRECTIONS))
    def test_marginal_identity(self, dem, direction):
        # summed run lengths equal the per-line cell count at each level
        want = {}
        for line in reference_scan_lines(dem, direction):
            for h in range(1, dem.zmax + 1):
                cells = sum(1 for seg in line.segments for v in seg.values if v >= h)
                if cells:
                    want[line.index, h] = cells
        assert cells_per_line_and_level(run_table(dem, direction)) == want

    def test_total_volume(self):
        dem = Dem.from_rows([[2, 5, 5, 2, 2]])
        assert run_table(dem, "row").total_volume() == 16

    @settings(max_examples=200, deadline=None)
    @given(masked_rasters(), st.sampled_from(DIRECTIONS))
    def test_equals_loop_reference(self, dem, direction):
        rt = run_table(dem, direction)
        want = naive_run_table(dem, direction)
        assert rt.counts == want and want == rt.counts
        assert sum(rt.counts.values()) == sum(want.values())
        assert RunTable(direction, want) == rt
        assert rt.total_volume() == sum(t * c for (_, _, t), c in want.items())
        cells = {}
        for (i, h, t), c in want.items():
            cells[i, h] = cells.get((i, h), 0) + t * c
        assert cells_per_line_and_level(rt) == cells

    def test_counts_is_a_read_only_mapping(self):
        rt = run_table(Dem.from_rows([[2, 5, 5, 2, 2]]), "row")
        assert rt.counts[(0, 3, 2)] == 1 and (0, 9, 1) not in rt.counts
        assert len(rt.counts) == 5 and dict(rt.counts) == rt.counts
        with pytest.raises(TypeError):
            rt.counts[(0, 3, 2)] = 2
        with pytest.raises(ValueError):
            rt.runs[0] = 2

    def test_volume_beyond_int64_rejected(self):
        # 4 runs of 2**62 cells: a volume of 2**64 must not wrap to 0
        with pytest.raises(ValueError, match="volume"):
            RunTable("row", {(0, 1, 2**62): 4})
        assert RunTable("row", {(0, 1, 2**62): 1}).total_volume() == 2**62

    @pytest.mark.parametrize("counts", [{(0, 1, 1): 2**63}, {(0, 2**63, 1): 1},
                                        {(0, 1, 1): -1}, {(-1, 1, 1): 1}])
    def test_entries_outside_int64_or_negative_rejected(self, counts):
        with pytest.raises(ValueError):
            RunTable("row", counts)

    def test_memory_on_a_large_terrain(self):
        # 32 bytes per entry in the columns: about 1.9 MiB for the 61k
        # entries of a diagonal direction
        dem = synthetic_terrain(128, levels=64, hole_fraction=0.15, seed=3)
        for direction in DIRECTIONS:
            tracemalloc.start()
            try:
                rt = run_table(dem, direction)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rt.counts) > 40_000
            assert retained <= 2 * 2**20, direction
            assert peak <= 8 * 2**20, direction


class TestRunLengths:
    @settings(max_examples=200, deadline=None)
    @given(masked_rasters(), st.sampled_from(DIRECTIONS))
    def test_equals_loop_reference_summed(self, dem, direction):
        want = {}
        for (_, _, t), c in naive_run_table(dem, direction).items():
            want[t] = want.get(t, 0) + c
        counted = run_lengths(dem, direction)
        assert isinstance(counted, RunLengths) and counted.direction == direction
        assert dict(zip(counted.length.tolist(), counted.runs.tolist())) == want
        assert counted.length.tolist() == sorted(want)
        assert counted.total_volume() == sum(t * c for t, c in want.items())

    @settings(max_examples=200, deadline=None)
    @given(masked_rasters(), st.sampled_from(DIRECTIONS))
    def test_spectra_equal_the_tables(self, dem, direction):
        table, counted = run_table(dem, direction), run_lengths(dem, direction)
        assert counted.total_volume() == table.total_volume() == volume(dem)
        if volume(dem) == 0:
            with pytest.raises(ValueError, match="no volume"):
                spectrum_from_runs(counted)
            return
        for family in ("nse", "length"):
            assert (spectrum_from_runs(counted, family).volumes
                    == spectrum_from_runs(table, family).volumes)

    @settings(max_examples=200, deadline=None)
    @given(masked_rasters(st.sampled_from((0, 1, 3, 40, 41, 300))), st.sampled_from(DIRECTIONS))
    def test_levels_between_those_held(self, dem, direction):
        # a threshold stands for every level down to the next one held
        want = naive_run_table(dem, direction)
        assert run_table(dem, direction).counts == want
        summed = {}
        for (_, _, t), c in want.items():
            summed[t] = summed.get(t, 0) + c
        counted = run_lengths(dem, direction)
        assert dict(zip(counted.length.tolist(), counted.runs.tolist())) == summed

    def test_walks_only_the_levels_held(self, monkeypatch):
        # 2x2 at top level 7.5e7 is the default oracle-check work cap; a walk
        # over every level 1..top took 8,000-9,200 blocks, 3.5 s a direction
        top = 75_000_000
        dem = Dem.from_rows([[top, 1], [top // 3, None]])
        level_runs, blocks = oracle._level_runs, []

        def counted(flat):
            for block in level_runs(flat):
                blocks.append(block)
                assert len(blocks) == 1, "more than one block of levels"
                yield block

        monkeypatch.setattr(oracle, "_level_runs", counted)
        for direction in DIRECTIONS:
            blocks.clear()
            counts = run_lengths(dem, direction)
            assert blocks[0][0].tolist() == [1, top // 3, top], direction
            assert blocks[0][1].tolist() == [1, top // 3 - 1, top - top // 3]
            assert counts.total_volume() == volume(dem)
            for fast in pattern_spectra(dem, SE_FOR_DIRECTION[direction], ("nse", "length")):
                assert spectrum_from_runs(counts, fast.family).volumes == fast.volumes

    def test_negative_count_rejected(self):
        # [0, -3, 2] used to give the spectrum (1, 0)
        with pytest.raises(ValueError, match="^run table entries must be non-negative$"):
            RunLengths("row", np.array([0, -3, 2]))

    def test_volume_past_int64_rejected(self):
        # 2 * 2**62 wrapped to -2**63, and the spectrum reported no volume
        counts = np.zeros(3, dtype=np.int64)
        counts[2] = 2**62
        with pytest.raises(ValueError, match="^run table volume overflows int64$"):
            RunLengths("row", counts)

    def test_volume_at_the_int64_limit_kept(self):
        counted = RunLengths("row", np.array([0, 2**63 - 1], dtype=np.int64))
        assert counted.length.tolist() == [1] and counted.runs.tolist() == [2**63 - 1]
        assert counted.total_volume() == 2**63 - 1

    def test_columns_are_read_only(self):
        counted = run_lengths(Dem.from_rows([[2, 5, 5, 2, 2]]), "row")
        assert counted.length.tolist() == [2, 5] and counted.runs.tolist() == [3, 2]
        with pytest.raises(ValueError):
            counted.runs[0] = 1

    def test_memory_on_a_large_terrain(self):
        # measured 0.37-0.45 MiB: the one-byte flat lines, a diagonal's
        # int64 scatter index and one block of levels; the run table of
        # the same terrain peaks at 4-5 MiB
        dem = synthetic_terrain(128, levels=64, hole_fraction=0.15, seed=3)
        for direction in DIRECTIONS:
            tracemalloc.start()
            try:
                counted = run_lengths(dem, direction)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counted.total_volume() == volume(dem)
            assert retained <= 64 * 2**10, direction
            assert peak <= 1 * 2**20, direction


class TestFlatLines:
    @settings(max_examples=200, deadline=None)
    @given(masked_rasters(), st.sampled_from(DIRECTIONS))
    def test_equals_index_arithmetic_layout(self, dem, direction):
        starts, flat = oracle._flat_lines(dem, direction)
        want_index, want_starts, want_flat = reference_flat_lines(dem, direction)
        assert starts.dtype == np.int64
        assert flat.dtype == np.min_scalar_type(int(dem.values.max()))
        # the lines come in index order, so a line's place is its index
        assert np.array_equal(want_index, np.arange(len(starts)))
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(flat, want_flat)

    @pytest.mark.parametrize("shape", [(20000, 3), (3, 20000), (50000, 1)])
    def test_memory_on_long_thin_rasters(self, shape):
        # reference_flat_lines peaks at 21.7-25.7 int64 rasters on
        # 50000x1; a diagonal's padded matrix has min(h, w) + 1 columns, and
        # one sized by the longer side would take thousands of rasters.
        # The bound is in int64 rasters: the raster itself holds int8
        rng = np.random.default_rng(7)
        dem = Dem(rng.integers(0, 64, shape), rng.random(shape) < 0.85)
        for direction in DIRECTIONS:
            tracemalloc.start()
            try:
                oracle._flat_lines(dem, direction)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 10 * 8 * dem.values.size, direction

    @pytest.mark.parametrize("top", [255, 256, 65535, 65536])
    def test_counts_at_dtype_edges(self, top):
        # the level walk compares in uint8 up to 255, uint16 up to 65535
        # and uint32 beyond: a top level on either side of each edge
        dem = Dem.from_rows([[top, 1, top - 1, None], [0, top, 2, top]])
        for direction in DIRECTIONS:
            assert (oracle._flat_lines(dem, direction)[1].dtype
                    == np.min_scalar_type(top))
            want = naive_run_table(dem, direction)
            assert run_table(dem, direction).counts == want
            summed = {}
            for (_, _, t), c in want.items():
                summed[t] = summed.get(t, 0) + c
            counted = run_lengths(dem, direction)
            assert dict(zip(counted.length.tolist(), counted.runs.tolist())) == summed


class TestSpectrumFromRuns:
    def test_length_family_fixture(self):
        rt = run_table(Dem.from_rows([[2, 5, 5, 2, 2]]), "row")
        qs = spectrum_from_runs(rt, "length")
        assert qs.probs[1] == Fraction(6, 16)
        assert qs.probs[4] == Fraction(10, 16)

    def test_peak_row(self):
        rt = run_table(Dem.from_rows([[1, 2, 1]]), "row")
        qs = spectrum_from_runs(rt, "length")
        assert qs.probs == (Fraction(1, 4), Fraction(0), Fraction(3, 4))

    def test_zero_count_entries(self):
        # a listed length without runs still sets the length family's span
        rt = RunTable("row", {(0, 1, 1): 5, (0, 1, 4): 0})
        assert spectrum_from_runs(rt, "nse").volumes == (5, 0)
        assert spectrum_from_runs(rt, "length").volumes == (5, 0, 0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(dems())
    def test_probs_sum_to_one(self, dem):
        rt = run_table(dem, "row")
        for family in ("nse", "length"):
            assert sum(spectrum_from_runs(rt, family).probs, Fraction(0)) == 1

    @settings(max_examples=80, deadline=None)
    @given(dems(), st.sampled_from(DIRECTIONS), st.sampled_from(("nse", "length")))
    def test_equals_morphological_route(self, dem, direction, family):
        from demgranulo.dem import SE_FOR_DIRECTION
        rt = run_table(dem, direction)
        oracle_ps = spectrum_from_runs(rt, family)
        fast_ps = pattern_spectrum(dem, SE_FOR_DIRECTION[direction], family=family)
        assert oracle_ps.probs == fast_ps.probs
        assert oracle_ps.volumes == fast_ps.volumes

    @settings(max_examples=40, deadline=None)
    @given(dems(), st.sampled_from(DIRECTIONS))
    def test_derivative_consistency(self, dem, direction):
        # per-level summed run lengths are direction-independent and
        # match the discrete volume derivative
        rt = run_table(dem, direction)
        derivative = discrete_volume_derivative(dem)
        for h in range(1, dem.zmax + 1):
            total = sum(t * c for (_, hh, t), c in rt.counts.items() if hh == h)
            assert total == derivative[h - 1]


def _padded(dem: Dem, rows: int, cols: int) -> Dem:
    """``dem`` with ``rows`` masked rows below it and ``cols`` masked
    columns to its right."""
    values = np.pad(dem.values, ((0, rows), (0, cols)))
    return Dem(values, np.pad(dem.mask, ((0, rows), (0, cols))))


@st.composite
def raster_pairs(draw):
    """Two rasters whose run tables often agree: one and the same, mirrored
    left to right or top to bottom, padded with masked cells, one cell
    moved to another level, or a second raster drawn on its own."""
    a = draw(masked_rasters(st.sampled_from((0, 1, 2, 40, 300))))
    kind = draw(st.sampled_from(("same", "fliplr", "flipud", "pad-right", "pad-below",
                                 "cell", "other")))
    if kind == "same":
        return a, a
    if kind == "fliplr":
        return a, Dem(a.values[:, ::-1], a.mask[:, ::-1])
    if kind == "flipud":
        return a, Dem(a.values[::-1], a.mask[::-1])
    if kind.startswith("pad"):
        return a, _padded(a, kind == "pad-below", kind == "pad-right")
    if kind == "cell":
        values = a.values.astype(np.int64)
        values.flat[draw(st.integers(0, values.size - 1))] = draw(
            st.sampled_from((0, 1, 2, 40, 300)))
        return a, Dem(values, a.mask)
    return a, draw(masked_rasters(st.sampled_from((0, 1, 2, 40, 300))))


class TestRunProfileEqual:
    @settings(max_examples=400, deadline=None)
    @given(raster_pairs(), st.sampled_from(DIRECTIONS))
    def test_equals_the_tables_compared(self, pair, direction):
        a, b = pair
        assert run_profile_equal(a, b, direction) == (run_table(a, direction)
                                                      == run_table(b, direction))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(DIRECTIONS))
    def test_equals_the_tables_on_reflection_families(self, seed, direction):
        dem = random_interval_dem(seed, max_rows=4, max_width=6)
        pair_a, pair_b = run_profile_pair()
        pairs = [(dem, member) for member in reflection_family(dem)]
        for a, b in [*pairs, (pair_a, pair_b), (pair_b, pair_a)]:
            assert run_profile_equal(a, b, direction) == (run_table(a, direction)
                                                          == run_table(b, direction))

    def test_memory_in_the_levels_held(self):
        # the tables repeat each threshold's runs at every level it stands
        # for: 1,333,333 entries here, a 154 MiB peak when they were built
        dem = Dem.from_rows([[10**6, 1], [333333, 3]])
        for other in (dem, reflect_rows(dem, {0, 1})):
            for direction in DIRECTIONS:
                tracemalloc.start()
                try:
                    same = run_profile_equal(dem, other, direction)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert same == (other is dem or direction == "row"), direction
                assert peak <= 2 * 2**20, direction

    def test_reflection_preserves_rows(self):
        dem = random_interval_dem(11, max_rows=4, max_width=7)
        assert run_profile_equal(dem, reflect_rows(dem, {0}), "row")

    def test_constructed_pair(self):
        a, b = run_profile_pair()
        assert a != b
        assert reflect_rows(a, {0}) != b
        assert run_profile_equal(a, b, "row")
        assert pattern_spectrum(a, "B4") == pattern_spectrum(b, "B4")

    def test_scaling_shifts_levels(self):
        from demgranulo.dem import scale_heights
        dem = Dem.from_rows([[1, 2, 1]])
        scaled = scale_heights(dem, 2)
        assert not run_profile_equal(dem, scaled, "row")
        # yet the indices agree: run equality is sufficient, not necessary
        assert pattern_spectrum(dem, "B4").probs == pattern_spectrum(scaled, "B4").probs


class TestReflectionFamily:
    def test_family_size(self):
        dem = Dem.from_rows([[1, 2], [3, 4], [5, 6]])
        members = list(reflection_family(dem))
        assert len(members) == 8
        assert len({m.to_fixture_csv() for m in members}) == 8  # no palindromes

    def test_two_row_membership(self):
        dem = Dem.from_rows([[1, 2], [3, 4]])
        members = list(reflection_family(dem))
        assert len(members) == 4
        assert reflect_rows(dem, {0, 1}) in members

    def test_palindrome_collapses(self):
        dem = Dem.from_rows([[2, 1, 2]])
        members = list(reflection_family(dem))
        assert len(members) == 2
        assert members[0] == members[1]

    def test_cap_enforced(self):
        dem = Dem.from_rows([[1, 2]] * 5)
        with pytest.raises(ValueError):
            list(reflection_family(dem, max_rows=4))

    def test_gap_rows_rejected(self):
        from demgranulo.dem import DemError
        dem = Dem.from_rows([[1, None, 2]])
        with pytest.raises(DemError):
            list(reflection_family(dem))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_members_share_run_profile(self, seed):
        dem = random_interval_dem(seed, max_rows=4, max_width=6)
        for member in reflection_family(dem):
            assert run_profile_equal(dem, member, "row")


class TestUniPeak:
    def test_strict_peak(self):
        assert is_unipeak(Dem.from_rows([[1, 2, 3, 2, 1]]))

    def test_double_peak(self):
        check = is_unipeak(Dem.from_rows([[2, 1, 2]]))
        assert not check and "level 2" in check.reason

    def test_single_cell(self):
        assert is_unipeak(Dem.from_rows([[9]]))

    def test_multi_row_refused_with_reason(self):
        check = is_unipeak(Dem.from_rows([[1], [1]]))
        assert not check and "single row" in check.reason

    def test_gap_refused(self):
        check = is_unipeak(Dem.from_rows([[1, None, 1]]))
        assert not check and "gap" in check.reason

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=1, max_size=8),
                    min_size=1, max_size=2)
           .filter(lambda rows: any(v is not None for row in rows for v in row)))
    @example([[1, 3, 2]])
    @example([[2, 0, 1, 0, 2]])
    def test_matches_brute_runs_per_line(self, rows):
        # one run at every level 1..top, counted level by level
        dem = Dem.from_rows(rows)
        row = rows[0] + [None] * (dem.width - len(rows[0]))
        present = [i for i, v in enumerate(row) if v is not None]
        if len(rows) != 1:
            want = False, "not a single row"
        elif present[-1] - present[0] + 1 != len(present):
            want = False, "row has mask gaps"
        else:
            want = True, ""
            for h in range(1, max(row[i] for i in present) + 1):
                runs = len(brute_runs_per_line(row, h))
                if runs != 1:
                    want = False, f"{runs} runs at level {h}"
                    break
        check = is_unipeak(dem)
        assert (check.ok, check.reason) == want

    @pytest.mark.parametrize("row, ok", [([10**6, 1], True), ([10**6, 5, 10**6], False)])
    def test_tall_row_in_memory_of_its_cells(self, row, ok):
        # a table entry per level took 114 MiB on [10**6, 1]
        dem = Dem.from_rows([row])
        tracemalloc.start()
        try:
            check = is_unipeak(dem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.ok == ok and check.reason == ("" if ok else "2 runs at level 6")
        assert peak <= 2**20, peak

    def test_equivalence_fixture(self):
        dem = Dem.from_rows([[1, 2, 3, 2, 1]])
        derivative = discrete_volume_derivative(dem)
        assert derivative == [5, 3, 1]
        qs = spectrum_from_runs(run_table(dem, "row"), "length")
        v = volume(dem)
        assert sorted(Fraction(d, v) for d in derivative) == sorted(
            p for p in qs.probs if p > 0)
        h_deriv, h_gi = unipeak_entropy_equivalence(dem)
        assert h_deriv == pytest.approx(h_gi, abs=1e-12)

    def test_flat_unit_row_both_zero(self):
        h_deriv, h_gi = unipeak_entropy_equivalence(Dem.from_rows([[1, 1, 1]]))
        assert h_deriv == 0.0 and h_gi == 0.0

    def test_non_unipeak_rejected(self):
        with pytest.raises(ValueError):
            unipeak_entropy_equivalence(Dem.from_rows([[2, 1, 2]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_generated_peaks_match_exactly(self, seed):
        dem = random_unipeak_dem(seed)
        assert is_unipeak(dem)
        v = volume(dem)
        deriv = sorted(Fraction(d, v) for d in discrete_volume_derivative(dem))
        qs = spectrum_from_runs(run_table(dem, "row"), "length")
        assert deriv == sorted(p for p in qs.probs if p > 0)
        h_deriv, h_gi = unipeak_entropy_equivalence(dem)
        assert abs(h_deriv - h_gi) < 1e-12


class TestIndependence:
    def test_oracle_names_no_fast_path(self):
        # the oracle cross-checks the fast spectra only while it shares
        # none of their code; nor does it take the benchmark gate's numpy
        # run counter, which checks the oracle's results in turn
        source = Path(oracle.__file__).read_text()
        for name in ("_kernels", "line_layout", "directional_extremum",
                     "directional_loss", "_volume_curve", "opening_raw",
                     "perfbench", "gate", "run_length_counts", "line_matrix",
                     "resolve_se", "morphology", "scan_lines("):
            assert name not in source, name
