"""Kernels against brute-force references."""

import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_runs_per_line, naive_directional_extremum,
                      naive_lines, naive_offset_extremum, naive_slab_loss,
                      naive_window_extremum, random_dem)
from demgranulo import _kernels
from demgranulo._base import SE_NAMES
from demgranulo.morphology import _raw_extremum, named_se, nse
from demgranulo.synth import synthetic_terrain

DIRECTIONS = ["row", "column", "diag-down", "diag-up"]

# unit step (dr, dc) from one cell of a scan line to the next
UNIT = {"row": (0, 1), "column": (1, 0), "diag-down": (1, 1), "diag-up": (1, -1)}


def _raster(seed, h, w, holes=0.2):
    """h x w raster of levels 1..7 with about a ``holes`` share of masked
    (0) cells."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 8, size=(h, w), dtype=np.int64)
    return np.where(rng.random((h, w)) >= holes, values, 0)


# non-square and one-wide shapes included: a one-wide raster is where
# the diag-up line walk degenerates to single cells
arrays_2d = st.builds(_raster, st.integers(0, 10**6), st.integers(1, 12),
                      st.integers(1, 12))


class TestWindowExtremum:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 99), min_size=1, max_size=120),
           st.integers(0, 12), st.booleans())
    def test_matches_sliding_window(self, values, k, minimum):
        arr = np.array(values, dtype=np.int64)[None, :]
        got = _kernels.directional_extremum(arr, "row", k, minimum)[0]
        want = naive_window_extremum(values, k, minimum)
        assert got.tolist() == want.tolist()

    def test_directional_passes_cover_every_line(self):
        # a lone peak spreads exactly along the scanned line under max
        arr = np.zeros((7, 7), dtype=np.int64)
        arr[3, 3] = 9
        for d, cells in (("row", {(3, 2), (3, 3), (3, 4)}),
                         ("column", {(2, 3), (3, 3), (4, 3)}),
                         ("diag-down", {(2, 2), (3, 3), (4, 4)}),
                         ("diag-up", {(2, 4), (3, 3), (4, 2)})):
            out = _kernels.directional_extremum(arr, d, 1, False)
            assert {tuple(rc) for rc in np.argwhere(out == 9)} == cells

    # k up to 15 reaches past every line of a 12 x 12 raster
    @settings(max_examples=150, deadline=None)
    @given(arrays_2d, st.integers(0, 15), st.integers(0, 15), st.booleans(),
           st.sampled_from(DIRECTIONS))
    def test_matches_naive_directional(self, arr, k, after, minimum, direction):
        got = _kernels.directional_extremum(arr, direction, k, minimum, after=after)
        want = naive_directional_extremum(arr, UNIT[direction], k, after, minimum)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("shape", [(3, 20000), (200, 200)])
    def test_spans_several_blocks(self, shape):
        # 3 x 20000 has rows longer than a whole block; on 200 x 200 every
        # direction has more lines than one block holds
        assert shape[0] * shape[1] > 2 * _kernels._BLOCK_CELLS
        arr = _raster(5, *shape)
        for direction in DIRECTIONS:
            for k in range(4):
                for minimum in (True, False):
                    got = _kernels.directional_extremum(arr, direction, k, minimum)
                    want = naive_directional_extremum(arr, UNIT[direction], k, k, minimum)
                    assert (got == want).all(), (direction, k, minimum)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (1, 0)])
    @pytest.mark.parametrize("k", [0, 2])
    def test_zero_length_lines(self, shape, k):
        # with k=0 a row of an empty line has no cells at all
        arr = np.zeros(shape, dtype=np.int64)
        for direction in DIRECTIONS:
            for minimum in (True, False):
                out = _kernels.directional_extremum(arr, direction, k, minimum)
                assert out.shape == shape and out.dtype == np.int64

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_working_memory_bounded(self, direction):
        # the line matrices are built a block at a time, never for the
        # whole raster: beyond its output a pass needs under 2 MiB however
        # many lines the raster has
        arr = _raster(6, 1000, 1000)
        tracemalloc.start()
        try:
            out = _kernels.directional_extremum(arr, direction, 6, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

    @pytest.mark.parametrize("shape", [(1, 100000), (100000, 1)])
    @pytest.mark.parametrize("direction", ["row", "column"])
    def test_long_line_working_memory_bounded(self, shape, direction):
        # rows and columns are sliced, not gathered by a flat index
        # matrix: one 100000-cell line costs a few line copies beyond the
        # output
        arr = _raster(9, *shape)
        tracemalloc.start()
        try:
            out = _kernels.directional_extremum(arr, direction, 6, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out == naive_directional_extremum(arr, UNIT[direction], 6, 6, True)).all()
        assert peak <= out.nbytes + 4 * 2**20

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_small_raster_working_memory_bounded(self, direction):
        # a tile is never taller than the raster, so a small raster gets
        # small working arrays, not a slab sized for a large one
        arr = _raster(4, 5, 5)
        tracemalloc.start()
        try:
            out = _kernels.directional_extremum(arr, direction, 2, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 16 * 2**10


def _adversarial_line(name, n=4000):
    """One n-cell line that a slab sweep finds hard."""
    up = np.arange(1, n // 2 + 1)
    steps = np.repeat(np.arange(1, n // 8 + 1), 4)
    line = {"ramp": np.concatenate([up, up[::-1]]),
            "plateaus": np.concatenate([steps, steps[::-1]]),
            "alternating": np.tile([1, 9], n // 2),
            "constant": np.full(n, 5)}[name]
    return line.astype(np.int64)[None, :]


class TestDirectionalLoss:
    @settings(max_examples=80, deadline=None)
    @given(arrays_2d, st.sampled_from(DIRECTIONS))
    def test_matches_per_level_run_counting(self, arr, direction):
        # loss[t] must equal t * (number of maximal >=h runs of length t,
        # over all levels h and lines), zeros acting as gaps
        lines = naive_lines(arr, UNIT[direction])
        want = np.zeros(max(len(line) for line in lines) + 2, dtype=np.int64)
        top = int(arr.max())
        for line in lines:
            for h in range(1, top + 1):
                for t in brute_runs_per_line(line, h):
                    want[t] += t
        got = _kernels.directional_loss(arr, direction)
        assert got.tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(arrays_2d, st.sampled_from(DIRECTIONS))
    def test_matches_naive_slab_loss(self, arr, direction):
        got = _kernels.directional_loss(arr, direction)
        assert got.tolist() == naive_slab_loss(arr, UNIT[direction]).tolist()

    def test_total_is_volume(self):
        arr = random_dem(99, 12, 12, 8).values
        for d in DIRECTIONS:
            assert _kernels.directional_loss(arr, d).sum() == arr.sum()

    # on 150 x 250 the diagonal blocks differ in width, so several blocks
    # of different shapes drop their gather index before the sweep
    @pytest.mark.parametrize("shape", [(3, 20000), (200, 200), (20000, 3), (150, 250)])
    def test_spans_several_blocks(self, shape):
        assert shape[0] * shape[1] > 2 * _kernels._BLOCK_CELLS
        arr = _raster(7, *shape)
        for direction in DIRECTIONS:
            got = _kernels.directional_loss(arr, direction)
            want = naive_slab_loss(arr, UNIT[direction])
            assert got.tolist() == want.tolist(), direction

    @pytest.mark.parametrize("name", ["ramp", "plateaus", "alternating", "constant"])
    def test_adversarial_line(self, name):
        # a hill of 2000 levels nests 2000 slabs; neighbour searches that
        # step one run at a time take as many rounds as the line is long
        arr = _adversarial_line(name)
        t0 = time.perf_counter()
        got = _kernels.directional_loss(arr, "row")
        elapsed = time.perf_counter() - t0
        assert got.tolist() == naive_slab_loss(arr, UNIT["row"]).tolist()
        assert got.sum() == arr.sum()
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_exact_near_int64(self):
        # loss[3] = 3 * (2**61 - 1) has more significant bits than a
        # float64 holds: the sums must stay integer
        arr = np.array([[2**61, 2**61 - 1, 2**61]], dtype=np.int64)
        loss = _kernels.directional_loss(arr, "row")
        assert loss.tolist() == [0, 2, 0, 3 * (2**61 - 1), 0]
        assert int(loss.sum()) == sum(int(x) for x in arr.ravel())

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_loss_working_memory_bounded(self, direction):
        # the range-minimum tables are built a block at a time, never for
        # the whole raster: on int64 levels a sweep needs about 1.8 MiB
        # beyond its output
        arr = _raster(6, 1000, 1000)
        tracemalloc.start()
        try:
            loss = _kernels.directional_loss(arr, direction)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= loss.nbytes + 2 * 2**20

    def test_sweep_working_set(self):
        # the lifting writes in place into three int64 arrays, one of the
        # levels' dtype and one bool array per block, and a diagonal block
        # drops its gather index before it is swept: on int16 levels every
        # direction peaks near 0.78 MiB, where an int64 temporary per
        # lifting step and the held index took 1.04-1.16 MiB
        arr = synthetic_terrain(320).values
        assert arr.dtype == np.int16
        peaks = {}
        for direction in DIRECTIONS:
            tracemalloc.start()
            try:
                _kernels.directional_loss(arr, direction)
                _, peaks[direction] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 0.85 * 2**20, peaks
        for direction in ("diag-down", "diag-up"):
            assert peaks[direction] <= peaks["row"] + 32 * 2**10, peaks


def _offsets_rc(se):
    """An element's offsets as (row, col) steps."""
    return [(dy, dx) for dx, dy in se.offsets]


class TestRawExtremum:
    """``morphology._raw_extremum`` turns a line or a square into kernel
    passes at the scaled half-width; a per-cell loop over the offsets of
    the n-fold element sum must read the same."""

    # whole rasters too: with a fifth of the cells at 0, nearly every
    # square wider than 3x3 holds a 0 and erodes to it
    @settings(max_examples=40, deadline=None)
    @given(st.builds(_raster, st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 12),
                     st.sampled_from([0.0, 0.2])))
    def test_matches_naive_offset_extremum(self, arr):
        for name in SE_NAMES:
            se = named_se(name)
            for n in range(5):
                for minimum in (True, False):
                    want = naive_offset_extremum(arr, _offsets_rc(nse(se, n)), minimum)
                    assert _raw_extremum(arr, se, n, minimum).tolist() == want.tolist()


NARROW = [np.int8, np.int16, np.int32]


def _narrow_raster(seed, shape, dtype, top):
    """Raster of levels 1..top with about 20 % masked (0) cells, in
    ``dtype``; ``top`` may reach the largest value the dtype holds."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, top, size=shape, endpoint=True, dtype=np.int64)
    return np.where(rng.random(shape) >= 0.2, values, 0).astype(dtype)


@st.composite
def narrow_rasters(draw, max_side=12):
    """A masked raster in a narrow dtype: 1 x n, n x 1 or h x w, with
    levels up to the top of the dtype."""
    dtype = draw(st.sampled_from(NARROW))
    n = draw(st.integers(1, max_side))
    shape = draw(st.sampled_from([(1, n), (n, 1),
                                  (n, draw(st.integers(1, max_side)))]))
    top = draw(st.sampled_from([3, int(np.iinfo(dtype).max)]))
    return _narrow_raster(draw(st.integers(0, 10**6)), shape, dtype, top)


class TestNarrowDtypes:
    """A kernel works in the signed dtype it is given: the same cells as
    on int64, in the input's dtype, with volume sums in int64."""

    @settings(max_examples=150, deadline=None)
    @given(narrow_rasters(), st.integers(0, 15), st.integers(0, 15), st.booleans(),
           st.sampled_from(DIRECTIONS))
    def test_directional_extremum(self, arr, k, after, minimum, direction):
        # after=0 and k=0 are the one-sided windows of a segment opening
        got = _kernels.directional_extremum(arr, direction, k, minimum, after=after)
        want = _kernels.directional_extremum(arr.astype(np.int64), direction, k,
                                             minimum, after=after)
        assert got.dtype == arr.dtype
        assert got.tolist() == want.tolist()

    @settings(max_examples=100, deadline=None)
    @given(narrow_rasters(), st.sampled_from(SE_NAMES), st.integers(0, 4), st.booleans(),
           st.booleans())
    def test_raw_extremum(self, arr, name, n, minimum, in_place):
        # the spectra dilate each erosion in place, in the levels' dtype
        se = named_se(name)
        want = naive_offset_extremum(arr, _offsets_rc(nse(se, n)), minimum)
        got = _raw_extremum(arr, se, n, minimum, out=arr if in_place else None)
        assert got.dtype == arr.dtype
        if in_place:
            assert got is arr
        assert got.tolist() == want.tolist()

    @settings(max_examples=150, deadline=None)
    @given(narrow_rasters(), st.sampled_from(DIRECTIONS))
    def test_directional_loss(self, arr, direction):
        got = _kernels.directional_loss(arr, direction)
        assert got.dtype == np.int64
        assert got.tolist() == _kernels.directional_loss(arr.astype(np.int64),
                                                         direction).tolist()
        assert got.tolist() == naive_slab_loss(arr, UNIT[direction]).tolist()

    @pytest.mark.parametrize("dtype,top", [(np.int8, 127), (np.int16, 128),
                                           (np.int16, 32767), (np.int32, 32768),
                                           (np.int32, 2**31 - 1)])
    @pytest.mark.parametrize("shape", [(1, 5000), (5000, 1)])
    def test_width_times_span_overflows_the_dtype(self, dtype, top, shape):
        # slabs of thousands of cells spanning up to ``top`` levels: each
        # width * span product overflows the levels' dtype
        line = np.full(5000, top, dtype=np.int64)
        line[[1000, 2500, 2501]] = [top - 1, 1, top // 2]
        arr = line.reshape(shape).astype(dtype)
        for direction in DIRECTIONS:
            loss = _kernels.directional_loss(arr, direction)
            assert loss.tolist() == naive_slab_loss(arr, UNIT[direction]).tolist()
            assert int(loss.sum()) == int(line.sum())
        direction = "row" if shape[0] == 1 else "column"
        for minimum in (True, False):
            got = _kernels.directional_extremum(arr, direction, 700, minimum)
            want = naive_directional_extremum(line.reshape(shape), UNIT[direction],
                                              700, 700, minimum)
            assert got.dtype == dtype and got.tolist() == want.tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([np.int8, np.int64]), st.sampled_from(DIRECTIONS))
    def test_plateaus(self, seed, h, w, dtype, direction):
        # levels 1..3 in runs: most cells have an equal cell as their
        # nearest right neighbour at or below them, and add no volume
        rng = np.random.default_rng(seed)
        arr = np.repeat(rng.integers(0, 4, size=(h, w)), rng.integers(1, 6, size=w),
                        axis=1)[:, :w].astype(dtype)
        got = _kernels.directional_loss(arr, direction)
        assert got.tolist() == naive_slab_loss(arr, UNIT[direction]).tolist()


@st.composite
def slab_rasters(draw, max_side=14):
    """A masked raster in any signed dtype: 1 x n, n x 1, h x w, or one
    with no cells at all."""
    dtype = draw(st.sampled_from([*NARROW, np.int64]))
    n = draw(st.integers(1, max_side))
    shape = draw(st.sampled_from([(1, n), (n, 1), (n, draw(st.integers(1, max_side))),
                                  (0, 5), (5, 0), (1, 0)]))
    top = draw(st.sampled_from([3, int(np.iinfo(dtype).max)]))
    return _narrow_raster(draw(st.integers(0, 10**6)), shape, dtype, top)


# slabs this many bytes wide: one cell (or none) of a row per slab, a
# few rows, and the default
SLAB_SIZES = [1, 16, 64, _kernels._SLAB_BYTES]


class TestSlabPasses:
    """Rows and columns share one pass over tiles of consecutive rows,
    columns in strips of tiles that carry their halo down; narrow slabs
    make a small raster span many of each. Every direction may write over
    its own input."""

    # k and after up to 16 reach past every line of a 14 x 14 raster
    @settings(max_examples=400, deadline=None)
    @given(slab_rasters(), st.integers(0, 16), st.integers(0, 16), st.booleans(),
           st.sampled_from(DIRECTIONS), st.sampled_from(SLAB_SIZES))
    def test_matches_naive_directional(self, arr, k, after, minimum, direction, slab):
        want = naive_directional_extremum(arr, UNIT[direction], k, after, minimum)
        buf = arr.copy()
        with mock.patch.object(_kernels, "_SLAB_BYTES", slab):
            got = _kernels.directional_extremum(arr, direction, k, minimum, after=after)
            in_place = _kernels.directional_extremum(buf, direction, k, minimum,
                                                     after=after, out=buf)
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tolist() == want.tolist()
        assert in_place is buf and buf.tolist() == want.tolist()


def test_import_leaves_numba_unloaded():
    # numba's import cost would land on every run's start-up time
    code = "import sys, demgranulo; print('numba' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
