"""Hot numeric kernels: windowed extrema and peak-slab sweeps.

Every kernel is numpy code. Directional kernels take a scan direction by
its name (``"row"``, ``"column"``, ``"diag-down"``, ``"diag-up"``; see
``_base.DIRECTION_STEPS``).

* the windowed extremum along scan lines (:func:`directional_extremum`)
  builds windows of 1, 2, 4, ... cells by doubling (:func:`_doubling`),
  so a window of any width costs ceil(log2 width) binary ufunc calls per
  block. Rows and columns share one pass over tiles of consecutive rows
  (:func:`_slab_pass`), a column window stepping whole rows down its
  tile; diagonals are gathered a block of lines at a time
  (:func:`_line_blocks`) in the flat-index layout of :func:`line_layout`;
* the slab sweep (:func:`directional_loss`) finds, for every cell, its
  nearest smaller neighbours on both sides by binary lifting over a
  sparse table of range minima, which gives every maximal slab of every
  line at once. It reads the lines a block at a time from
  :func:`_line_blocks`, without the diagonals' gather index, and lifts
  in place: beyond the block, its table and its cells' levels, the
  working set is five arrays with one entry per present cell, allocated
  per block and written through ``out=`` at every step.

Conventions baked into every kernel:

* elevation arrays are signed integers with ``0`` stored at masked
  cells. A kernel works in the dtype it is given and returns it, so a
  caller can pass levels in the narrowest type that holds them (a
  256-level raster fits int16, a quarter of the memory traffic of
  int64); any other array is converted to ``int64``. Volume sums
  (``directional_loss``) are ``int64`` whatever the input;
* reads outside the raster (or at masked cells) yield ``0``, so a
  windowed minimum is ``0`` wherever the window leaves the domain while
  a windowed maximum is unaffected (values are non-negative).
"""

import numpy as np


def _as_int_2d(values):
    values = np.asarray(values)
    dtype = values.dtype if values.dtype.kind == "i" else np.int64
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return arr


def line_layout(shape, direction):
    """Scan lines of a raster in one direction, as flat-index arithmetic.

    Returns ``(starts, lengths, step)``: cell ``i`` of line ``j`` sits at
    flat (row-major) index ``starts[j] + i * step``. The step is 1 for
    rows, ``w`` for columns, ``w + 1`` for diag-down lines (constant
    ``c - r``) and ``w - 1`` for diag-up lines (constant ``r + c``).
    The one scan-line geometry outside the oracle: :func:`_line_blocks`,
    :func:`directional_loss` and ``dem.scan_lines`` read their lines here.
    """
    h, w = shape
    if direction == "row":
        return np.arange(h, dtype=np.int64) * w, np.full(h, w, dtype=np.int64), 1
    if direction == "column":
        return np.arange(w, dtype=np.int64), np.full(w, h, dtype=np.int64), w
    index = np.arange(h + w - 1, dtype=np.int64)
    if direction == "diag-down":
        r0 = np.maximum(h - 1 - index, 0)
        c0 = np.maximum(index - (h - 1), 0)
        return r0 * w + c0, np.minimum(h - r0, w - c0), w + 1
    if direction == "diag-up":
        r0 = np.maximum(index - (w - 1), 0)
        lengths = np.minimum(index, h - 1) - r0 + 1
        # a one-wide raster has one-cell lines, which any nonzero step walks
        return r0 * w + index - r0, lengths, max(w - 1, 1)
    raise ValueError(f"unknown direction {direction!r}")


# Padded cells per block of scan lines in the directional kernels. The
# working arrays are a few blocks in size, so they stay in cache and the
# memory a pass needs beyond its output does not grow with the raster;
# a line longer than a block makes a block of its own.
_BLOCK_CELLS = 1 << 14
# The slab pass works on slabs of as many bytes as a block of int64
# cells: narrow levels take more cells per slab, and so fewer numpy
# calls, for the same cache footprint.
_SLAB_BYTES = 8 * _BLOCK_CELLS


def _line_blocks(arr, direction, before, after, placed=True):
    """The scan lines of ``arr`` a block at a time, zero-padded.

    Yields ``(padded, index, inside)`` per block of about ``_BLOCK_CELLS``
    padded cells. Row ``l`` of ``padded`` holds one line from column
    ``before`` on, with zeros before it and at least ``after`` zeros
    after it. Rows and columns are slices of ``arr`` and of ``arr.T``,
    and their ``index`` and ``inside`` are ``None``; diagonals are
    gathered by flat index, and cell ``i`` of line ``l`` is the flat cell
    ``index[l, i]`` where ``inside[l, i]`` holds. A caller that does not
    place results back in the raster passes ``placed=False``, and the
    diagonals' ``index`` and ``inside`` are dropped after the gather and
    yielded as ``None`` too, so they are not held while the block is used.
    """
    starts, lengths, step = line_layout(arr.shape, direction)
    per_block = max(1, _BLOCK_CELLS // max(1, before + int(lengths.max(initial=0)) + after))
    lines = arr if direction == "row" else arr.T
    for j in range(0, starts.shape[0], per_block):
        lens = lengths[j:j + per_block]
        n = int(lens.max())
        padded = np.zeros((lens.shape[0], before + n + after), dtype=arr.dtype)
        if direction in ("row", "column"):
            padded[:, before:before + n] = lines[j:j + per_block]
            yield padded, None, None
            continue
        pos = np.arange(n)
        index = starts[j:j + per_block, None] + pos * step
        # past a line's end the index can leave the raster or land on
        # another line: the read is clipped, then masked to the 0 pad
        inside = pos < lens[:, None]
        np.copyto(padded[:, before:before + n],
                  arr.ravel().take(index, mode="clip"), where=inside)
        if not placed:
            index = inside = None
        yield padded, index, inside


def _doubling(p, width, step, ufunc, bufs):
    """Windows of ``width`` cells ``step`` apart along the flat array ``p``.

    Cell ``i`` of the result folds ``p[i], p[i + step], ...,
    p[i + (width - 1) * step]`` with ``ufunc``, for the first
    ``p.size - (width - 1) * step`` cells. Doubling builds windows of 1,
    2, 4, ... cells up to the largest power of two ``s`` within the
    width; two of them, one at each end, cover a full window (min and max
    are idempotent). The steps alternate between the two buffers of
    ``bufs``, each at least ``p.size`` long, and ``p`` is left as it was.
    Returns ``p`` or one of ``bufs``; its leading cells hold the result.
    """
    src, (dst, spare) = p, bufs
    size, s = p.shape[0], 1
    while 2 * s <= width:
        size -= s * step
        ufunc(src[:size], src[s * step:s * step + size], out=dst[:size])
        src, dst, spare = dst, spare, dst
        s *= 2
    if s < width:
        size = p.shape[0] - (width - 1) * step
        shift = (width - s) * step
        ufunc(src[:size], src[shift:shift + size], out=dst[:size])
        src = dst
    return src


def _slab_pass(arr, out, k, after, ufunc, down):
    """Windows along rows, or down columns when ``down``, by tiles of rows.

    Each strip of whole columns (rows take one strip) is walked down by
    tiles of consecutive rows, laid out flat. A row tile frames each row
    with ``k`` zeros before and ``after`` zeros after it; a column tile
    for rows ``r0:r1`` holds rows ``r0 - k`` to ``r1 + after``, zero past
    the raster, so a column window is a step of whole tile rows. The
    ``k`` rows above a column tile are carried over from the previous
    tile, not read again, so ``out`` may be ``arr``: no row is written
    before every tile that reads it has read it.
    """
    h, w = arr.shape
    cells = _SLAB_BYTES // arr.itemsize
    if down:
        # at least as many rows as the halo, so a tile does at most twice
        # the work of its own rows; about a slab of output
        rows = min(h, max(1, cells // w, k + after))
        cols = min(w, max(1, cells // rows))
        top, bottom, left, right = k, after, 0, 0
    else:
        rows, cols = min(h, max(1, cells // (k + w + after))), w
        top, bottom, left, right = 0, 0, k, after
    tile = np.zeros((top + rows + bottom, left + cols + right), dtype=arr.dtype)
    bufs = (np.empty(tile.size, dtype=arr.dtype), np.empty(tile.size, dtype=arr.dtype))
    for c0 in range(0, w, cols):
        c = min(cols, w - c0)
        part = tile if c == cols else np.zeros((top + rows + bottom, c), dtype=arr.dtype)
        stride = part.shape[1]
        part[:top] = 0  # the zeros above the strip
        for r0 in range(0, h, rows):
            n = min(rows, h - r0)
            m = min(n + bottom, h - r0)
            part[top:top + m, left:left + c] = arr[r0:r0 + m, c0:c0 + c]
            part[top + m:top + n + bottom] = 0
            res = _doubling(part[:top + n + bottom].ravel(), k + after + 1,
                            stride if down else 1, ufunc, bufs)
            out[r0:r0 + n, c0:c0 + c] = res[:n * stride].reshape(n, stride)[:, :c]
            # the strip's last k rows so far go above the next tile
            part[:top] = part[n:n + top]


def directional_extremum(values, direction, k, minimum, after=None, out=None):
    """Windowed min/max along one scan direction.

    The window covers the ``k`` cells before each cell and the ``after``
    cells following it (``k`` when not given, i.e. centred half-width k).
    The result goes to ``out`` when given, a C-contiguous array of the
    values' shape and dtype, which may be ``values`` itself.

    ``k`` and ``after`` are cut to the longest line's length: past it a
    window reads only zeros. Rows and columns go by tiles of consecutive
    rows (:func:`_slab_pass`); diagonals by blocks of gathered lines,
    padded with ``k`` zeros before them so a window starts at its cell's
    index.
    """
    arr = _as_int_2d(values)
    if out is None:
        out = np.empty_like(arr)
    if arr.size == 0:
        return out
    h, w = arr.shape
    longest = {"row": w, "column": h}.get(direction, min(h, w))
    k = min(k, longest)
    after = k if after is None else min(after, longest)
    ufunc = np.minimum if minimum else np.maximum
    if direction in ("row", "column"):
        _slab_pass(arr, out, k, after, ufunc, direction == "column")
        return out
    width = k + after + 1
    flat = out.ravel()
    for padded, index, inside in _line_blocks(arr, direction, k, after):
        lines, stride = padded.shape
        bufs = (np.empty(padded.size, dtype=arr.dtype), np.empty(padded.size, dtype=arr.dtype))
        res = _doubling(padded.ravel(), width, 1, ufunc, bufs)
        res = res[:lines * stride].reshape(lines, stride)
        flat[index[inside]] = res[:, :index.shape[1]][inside]
    return out


def directional_loss(values, direction):
    """Volume lost per run length along one direction, as ``loss[t]``.

    ``loss[t]`` totals ``t * (level span)`` over every maximal slab of
    width ``t``; suffix sums of ``loss`` give the volume surviving an
    opening with a segment of any length, because a slab survives
    exactly the segments no longer than its width.
    """
    arr = _as_int_2d(values)
    lengths = line_layout(arr.shape, direction)[1]
    loss = np.zeros(int(lengths.max(initial=0)) + 2, dtype=np.int64)
    for padded, _, _ in _line_blocks(arr, direction, 1, 1, placed=False):
        _add_slabs(padded.ravel(), padded.shape[1] - 2, loss)
    return loss


def _add_slabs(p, n, loss):
    """Add the slabs of zero-separated lines of at most ``n`` cells to ``loss``.

    All nearest smaller values (Berkman, Schieber & Vishkin, J.
    Algorithms 1993): for a cell ``i`` of level ``v``, ``L`` is the
    nearest cell to its left below ``v`` and ``R`` the nearest to its
    right at or below ``v``. When ``p[R] < v`` the cells ``L+1 .. R-1``
    are one maximal slab spanning the levels (max(p[L], p[R]), v]; when
    ``p[R] == v`` the slab is counted at ``R`` instead, and the span
    ``v - max(p[L], v)`` that ``i`` adds is 0. Both neighbours
    are found by binary lifting over ``mins[k][j] = min p[j : j + 2**k]``:
    the run of cells beside ``i`` that the search steps over is shorter
    than ``n``, so jumps of ``2**(levels - 1), ..., 2, 1`` cells measure
    it. A zero sits before and after every line, so no run crosses a
    line end. The loss stays int64 throughout: a float64 histogram would
    round sums above 2**53.

    The lifting works in place. Besides the block and its table, it
    holds three int64 arrays (``right``, ``left`` and a jump), one of the
    levels' dtype and one bool array, each with an entry per present
    cell, and every step writes into them through ``out=``.
    """
    left = np.flatnonzero(p)
    v = p[left]
    levels = max(n - 1, 0).bit_length()
    mins = [p]
    for k in range(1, levels):
        half = 1 << (k - 1)
        m = mins[-1].copy()
        np.minimum(mins[-1][:-half], mins[-1][half:], out=m[:-half])
        mins.append(m)
    right = left + 1
    jump = np.empty_like(left)
    read = np.empty_like(v)
    hit = np.empty(v.shape, dtype=bool)
    # a take into ``out`` is buffered in mode="raise" but not in "wrap",
    # which wraps only the left search's reads below index 0 (a right
    # jump never passes the trailing zero)
    for k in reversed(range(levels)):
        np.greater(mins[k].take(right, mode="wrap", out=read), v, out=hit)
        right += np.multiply(hit, 1 << k, out=jump)
    for k in reversed(range(levels)):
        # a jump below index 0 wraps to a window that the end of ``p``
        # cuts short, so it covers the trailing zero and is refused
        # like any jump past a line start
        mins[k].take(np.subtract(left, 1 << k, out=jump), mode="wrap", out=read)
        np.greater_equal(read, v, out=hit)
        left -= np.multiply(hit, 1 << k, out=jump)
    width = np.subtract(right, left, out=jump)
    left -= 1
    # span = v - max(p[L], p[R]) = min(v - p[R], v - p[L]); each
    # difference fits the levels' dtype, the product with the width may
    # not, so the span is taken in int64, into ``right``
    span = np.subtract(v, p.take(right, mode="wrap", out=read), out=right)
    np.minimum(span, np.subtract(v, p.take(left, mode="wrap", out=read), out=read), out=span)
    np.add.at(loss, width, np.multiply(span, width, out=span))
