"""Hot numeric kernels: windowed extrema and peak-slab sweeps.

Every kernel is numpy code. Directional kernels take the scan lines a
block at a time as a zero-padded matrix (:func:`_line_blocks`): rows and
columns are slices, diagonals follow :func:`line_layout`.

* the windowed extremum along scan lines (:func:`directional_extremum`)
  builds windows of 1, 2, 4, ... cells by doubling, so a window of any
  width costs ceil(log2 width) binary ufunc calls per block;
* the slab sweep (:func:`directional_loss`) finds, for every cell, its
  nearest smaller neighbours on both sides by binary lifting over a
  sparse table of range minima, which gives every maximal slab of every
  line at once.

Structuring elements that are neither a line nor a square go through
:func:`offset_extremum`, which folds one shifted view of a zero-padded
raster per offset.

Conventions baked into every kernel:

* elevation arrays are ``int64`` with ``0`` stored at masked cells;
* reads outside the raster (or at masked cells) yield ``0``, so a
  windowed minimum is ``0`` wherever the window leaves the domain while
  a windowed maximum is unaffected (values are non-negative).
"""

import numpy as np

# Direction codes shared with the rest of the package.
ROW = 0
COLUMN = 1
DIAG_DOWN = 2
DIAG_UP = 3
DIRECTION_CODE = {"row": ROW, "column": COLUMN, "diag-down": DIAG_DOWN,
                  "diag-up": DIAG_UP}


def _as_int64_2d(values):
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return arr


def line_layout(shape, direction):
    """Scan lines of a raster in one direction, as flat-index arithmetic.

    Returns ``(starts, lengths, step)``: cell ``i`` of line ``j`` sits at
    flat (row-major) index ``starts[j] + i * step``. The step is 1 for
    rows, ``w`` for columns, ``w + 1`` for diag-down lines (constant
    ``c - r``) and ``w - 1`` for diag-up lines (constant ``r + c``).
    """
    h, w = shape
    if direction == ROW:
        return np.arange(h, dtype=np.int64) * w, np.full(h, w, dtype=np.int64), 1
    if direction == COLUMN:
        return np.arange(w, dtype=np.int64), np.full(w, h, dtype=np.int64), w
    index = np.arange(h + w - 1, dtype=np.int64)
    if direction == DIAG_DOWN:
        r0 = np.maximum(h - 1 - index, 0)
        c0 = np.maximum(index - (h - 1), 0)
        return r0 * w + c0, np.minimum(h - r0, w - c0), w + 1
    if direction == DIAG_UP:
        r0 = np.maximum(index - (w - 1), 0)
        lengths = np.minimum(index, h - 1) - r0 + 1
        # a one-wide raster has one-cell lines, which any nonzero step walks
        return r0 * w + index - r0, lengths, max(w - 1, 1)
    raise ValueError(f"unknown direction code {direction}")


# Padded cells per block of scan lines in the directional kernels. The
# working arrays are a few blocks in size, so they stay in cache and the
# memory a pass needs beyond its output does not grow with the raster;
# a line longer than a block makes a block of its own.
_BLOCK_CELLS = 1 << 14


def _line_blocks(arr, direction, before, after):
    """The scan lines of ``arr`` a block at a time, zero-padded.

    Yields ``(padded, put)`` per block of about ``_BLOCK_CELLS`` padded
    cells. Row ``l`` of ``padded`` holds one line from column ``before``
    on, with zeros before it and at least ``after`` zeros after it;
    ``put(out, res)`` writes ``res[l, i]`` to cell ``i`` of line ``l`` of
    ``out``. Rows and columns are slices of ``arr`` and of ``arr.T``, read
    and written back by slice; diagonals are gathered by flat index.
    """
    starts, lengths, step = line_layout(arr.shape, direction)
    per_block = max(1, _BLOCK_CELLS // max(1, before + int(lengths.max(initial=0)) + after))
    lines = arr if direction == ROW else arr.T
    for j in range(0, starts.shape[0], per_block):
        lens = lengths[j:j + per_block]
        n = int(lens.max())
        padded = np.zeros((lens.shape[0], before + n + after), dtype=np.int64)
        if direction in (ROW, COLUMN):
            padded[:, before:before + n] = lines[j:j + per_block]
            def put(out, res, rows=slice(j, j + per_block)):
                (out if direction == ROW else out.T)[rows] = res
        else:
            pos = np.arange(n)
            index = starts[j:j + per_block, None] + pos * step
            # past a line's end the index can leave the raster or land on
            # another line: the read is clipped, then masked to the 0 pad
            inside = pos < lens[:, None]
            np.copyto(padded[:, before:before + n],
                      arr.ravel().take(index, mode="clip"), where=inside)
            def put(out, res, index=index, inside=inside):
                out.ravel()[index[inside]] = res[inside]
        yield padded, put


def directional_extremum(values, direction, k, minimum, after=None):
    """Windowed min/max along one scan direction.

    The window covers the ``k`` cells before each cell and the ``after``
    cells following it (``k`` when not given, i.e. centred half-width k).

    Lines are padded with ``k`` zeros before them, so a window starts at
    its cell's index. Doubling builds windows of 1, 2, 4, ... cells up to
    the largest power of two ``s`` within the width; two of them, one at
    each end, cover a full window (min and max are idempotent).
    """
    arr = _as_int64_2d(values)
    after = k if after is None else after
    width = k + after + 1
    ufunc = np.minimum if minimum else np.maximum
    out = np.empty_like(arr)
    for padded, put in _line_blocks(arr, direction, k, after):
        n = padded.shape[1] - width + 1
        m, s = padded, 1
        while 2 * s <= width:
            m = ufunc(m[:, :-s], m[:, s:])
            s *= 2
        if s < width:
            m = ufunc(m[:, :n], m[:, width - s:width - s + n])
        put(out, m[:, :n])
    return out


def offset_extremum(values, offsets_rc, minimum):
    """Windowed min/max over an explicit (row, col) offset list.

    The raster is zero-padded once and one shifted view of the pad is
    folded in per offset. An offset is clipped to the raster's own
    height and width before it sizes the pad: one that leaves the raster
    reads only zeros either way, and the pad stays at most three times
    the raster's height and width however large the offset.
    """
    arr = _as_int64_2d(values)
    off = np.asarray(offsets_rc, dtype=np.int64).reshape(-1, 2)
    h, w = arr.shape
    dr = np.clip(off[:, 0], -h, h)
    dc = np.clip(off[:, 1], -w, w)
    top, left = max(0, -int(dr.min())), max(0, -int(dc.min()))
    padded = np.pad(arr, ((top, max(0, int(dr.max()))), (left, max(0, int(dc.max())))))
    views = [padded[top + r:top + r + h, left + c:left + c + w] for r, c in zip(dr, dc)]
    ufunc = np.minimum if minimum else np.maximum
    out = views[0].copy()
    for view in views[1:]:
        ufunc(out, view, out=out)
    return out


def directional_loss(values, direction):
    """Volume lost per run length along one direction, as ``loss[t]``.

    ``loss[t]`` totals ``t * (level span)`` over every maximal slab of
    width ``t``; suffix sums of ``loss`` give the volume surviving an
    opening with a segment of any length, because a slab survives
    exactly the segments no longer than its width.
    """
    arr = _as_int64_2d(values)
    lengths = line_layout(arr.shape, direction)[1]
    loss = np.zeros(int(lengths.max(initial=0)) + 2, dtype=np.int64)
    for padded, _ in _line_blocks(arr, direction, 1, 1):
        _add_slabs(padded.ravel(), padded.shape[1] - 2, loss)
    return loss


def _add_slabs(p, n, loss):
    """Add the slabs of zero-separated lines of at most ``n`` cells to ``loss``.

    All nearest smaller values (Berkman, Schieber & Vishkin, J.
    Algorithms 1993): for a cell ``i`` of level ``v``, ``L`` is the
    nearest cell to its left below ``v`` and ``R`` the nearest to its
    right at or below ``v``. When ``p[R] < v`` the cells ``L+1 .. R-1``
    are one maximal slab spanning the levels (max(p[L], p[R]), v]; when
    ``p[R] == v`` the slab is counted at ``R`` instead. Both neighbours
    are found by binary lifting over ``mins[k][j] = min p[j : j + 2**k]``:
    the run of cells beside ``i`` that the search steps over is shorter
    than ``n``, so jumps of ``2**(levels - 1), ..., 2, 1`` cells measure
    it. A zero sits before and after every line, so no run crosses a
    line end. The loss stays int64 throughout: a float64 histogram would
    round sums above 2**53.
    """
    cells = np.flatnonzero(p)
    v = p[cells]
    levels = max(n - 1, 0).bit_length()
    mins = [p]
    for k in range(1, levels):
        half = 1 << (k - 1)
        m = mins[-1].copy()
        np.minimum(mins[-1][:-half], mins[-1][half:], out=m[:-half])
        mins.append(m)
    right = cells + 1
    for k in reversed(range(levels)):
        right += (mins[k].take(right) > v) * (1 << k)
    top = p[right] < v
    cells, v, right = cells[top], v[top], right[top]
    left = cells
    for k in reversed(range(levels)):
        # a jump below index 0 reads mins[k][0], which covers the
        # leading zero, so it is refused like any jump past a line start
        left = left - (mins[k].take(left - (1 << k), mode="clip") >= v) * (1 << k)
    left -= 1
    width = right - left - 1
    np.add.at(loss, width, width * (v - np.maximum(p[left], p[right])))
