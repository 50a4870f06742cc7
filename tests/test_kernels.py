"""Kernels against brute-force references."""

import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_runs_per_line, naive_directional_extremum,
                      naive_lines, naive_offset_extremum, naive_slab_loss,
                      naive_window_extremum)
from demgranulo import _kernels
from demgranulo.synth import random_dem

DIRECTIONS = [_kernels.ROW, _kernels.COLUMN, _kernels.DIAG_DOWN, _kernels.DIAG_UP]

# unit step (dr, dc) from one cell of a scan line to the next
UNIT = {_kernels.ROW: (0, 1), _kernels.COLUMN: (1, 0),
        _kernels.DIAG_DOWN: (1, 1), _kernels.DIAG_UP: (1, -1)}


def _raster(seed, h, w):
    """h x w raster of levels 1..7 with about 20 % masked (0) cells."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 8, size=(h, w), dtype=np.int64)
    return np.where(rng.random((h, w)) >= 0.2, values, 0)


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
        got = _kernels.directional_extremum(arr, _kernels.ROW, k, minimum)[0]
        want = naive_window_extremum(values, k, minimum)
        assert got.tolist() == want.tolist()

    def test_directional_passes_cover_every_line(self):
        # a lone peak spreads exactly along the scanned line under max
        arr = np.zeros((7, 7), dtype=np.int64)
        arr[3, 3] = 9
        for d, cells in ((_kernels.ROW, {(3, 2), (3, 3), (3, 4)}),
                         (_kernels.COLUMN, {(2, 3), (3, 3), (4, 3)}),
                         (_kernels.DIAG_DOWN, {(2, 2), (3, 3), (4, 4)}),
                         (_kernels.DIAG_UP, {(2, 4), (3, 3), (4, 2)})):
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
    @pytest.mark.parametrize("direction", [_kernels.ROW, _kernels.COLUMN])
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

    @pytest.mark.parametrize("shape", [(3, 20000), (200, 200)])
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
        got = _kernels.directional_loss(arr, _kernels.ROW)
        elapsed = time.perf_counter() - t0
        assert got.tolist() == naive_slab_loss(arr, UNIT[_kernels.ROW]).tolist()
        assert got.sum() == arr.sum()
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_exact_near_int64(self):
        # loss[3] = 3 * (2**61 - 1) has more significant bits than a
        # float64 holds: the sums must stay integer
        arr = np.array([[2**61, 2**61 - 1, 2**61]], dtype=np.int64)
        loss = _kernels.directional_loss(arr, _kernels.ROW)
        assert loss.tolist() == [0, 2, 0, 3 * (2**61 - 1), 0]
        assert int(loss.sum()) == sum(int(x) for x in arr.ravel())

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_loss_working_memory_bounded(self, direction):
        # the range-minimum tables are built a block at a time, never for
        # the whole raster
        arr = _raster(6, 1000, 1000)
        tracemalloc.start()
        try:
            loss = _kernels.directional_loss(arr, direction)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= loss.nbytes + 3 * 2**20


class TestOffsetExtremum:
    # offsets in +-15 reach past every side of a 12 x 12 raster
    @settings(max_examples=300, deadline=None)
    @given(arrays_2d,
           st.lists(st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
                    min_size=1, max_size=8),
           st.booleans())
    def test_matches_naive_loop(self, arr, offsets, minimum):
        got = _kernels.offset_extremum(arr, offsets, minimum)
        assert got.tolist() == naive_offset_extremum(arr, offsets, minimum).tolist()

    @pytest.mark.parametrize("shape", [(3, 3), (200, 200)])
    def test_huge_offset_pads_one_raster(self, shape):
        # (10**9, 0) reads only zeros; a pad sized by the offset itself
        # would need 10**9 rows. The pad, the output and numpy's fixed
        # buffers fit in 4 rasters plus 128 KiB.
        arr = _raster(8, *shape)
        offsets = [(0, 0), (10**9, 0)]
        for minimum in (True, False):
            tracemalloc.start()
            try:
                got = _kernels.offset_extremum(arr, offsets, minimum)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got.tolist() == naive_offset_extremum(arr, offsets, minimum).tolist()
            assert peak <= 4 * arr.nbytes + 2**17


def test_import_leaves_numba_unloaded():
    # numba's import cost would land on every run's start-up time
    code = "import sys, demgranulo; print('numba' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
