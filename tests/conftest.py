"""Shared test oracles and raster generators.

The oracles here are deliberately brute force and independent of the
package's compute paths: windowed extrema via numpy sliding windows,
offset extrema via a per-cell loop, openings via explicit translate
enumeration, slab losses via a stack sweep over lines walked cell by
cell, per-level run counting via direct thresholding (per sequence, and
per segment of every scan line for whole run tables), and the entropy
via exact ``Fraction`` probabilities. Expected values frozen in the
test modules were produced with these. The one exception is the
length-family spectrum reference, which loops the package's own
``opening_by_segment`` over every length; its two one-sided extremum
passes are the ones test_kernels.py checks against
``naive_directional_extremum``.
"""

import math
from fractions import Fraction

import numpy as np

from demgranulo._kernels import DIRECTION_CODE
from demgranulo.dem import Dem, scan_lines, volume
from demgranulo.morphology import nse, opening_by_segment


# ---------------------------------------------------------------------------
# Naive reference implementations
# ---------------------------------------------------------------------------


def naive_window_extremum(values, k, minimum):
    """Windowed min/max with pad-0 reads, by sliding-window enumeration."""
    arr = np.asarray(values, dtype=np.int64)
    padded = np.zeros(arr.size + 2 * k, dtype=np.int64)
    padded[k:k + arr.size] = arr
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1)
    return windows.min(axis=1) if minimum else windows.max(axis=1)


def naive_directional_extremum(values, unit, k, after, minimum):
    """Windowed min/max along a unit step ``(dr, dc)``, pad-0 reads.

    The window at cell ``(r, c)`` holds the cells ``(r + t*dr, c + t*dc)``
    for ``t`` in ``-k .. after``; the raster is shifted once per ``t`` on
    a zero-padded copy, so no scan-line geometry is involved.
    """
    arr = np.asarray(values, dtype=np.int64)
    h, w = arr.shape
    m = max(k, after)
    padded = np.pad(arr, m)
    shifts = [padded[m + t * unit[0]:m + t * unit[0] + h,
                     m + t * unit[1]:m + t * unit[1] + w]
              for t in range(-k, after + 1)]
    return np.min(shifts, axis=0) if minimum else np.max(shifts, axis=0)


def naive_offset_extremum(values, offsets_rc, minimum):
    """Windowed min/max over (row, col) offsets, one cell at a time.

    Every cell reads each offset directly, with 0 outside the raster.
    """
    arr = np.asarray(values, dtype=np.int64)
    h, w = arr.shape
    out = np.empty_like(arr)
    for r in range(h):
        for c in range(w):
            acc = None
            for dr, dc in offsets_rc:
                rr, cc = r + dr, c + dc
                v = int(arr[rr, cc]) if 0 <= rr < h and 0 <= cc < w else 0
                if acc is None or (v < acc if minimum else v > acc):
                    acc = v
            out[r, c] = acc
    return out


def naive_lines(values, unit):
    """Scan lines along a unit step ``(dr, dc)``, as lists of ints.

    A line starts at every cell whose predecessor ``(r - dr, c - dc)``
    lies outside the raster and runs until it leaves the raster.
    """
    rows = np.asarray(values, dtype=np.int64).tolist()
    h, w = len(rows), len(rows[0])
    dr, dc = unit
    lines = []
    for r in range(h):
        for c in range(w):
            if 0 <= r - dr < h and 0 <= c - dc < w:
                continue
            n = 0
            while 0 <= r + n * dr < h and 0 <= c + n * dc < w:
                n += 1
            lines.append([rows[r + i * dr][c + i * dc] for i in range(n)])
    return lines


def naive_slab_loss(values, unit):
    """``loss[t]`` along a unit step, by a stack sweep over each line.

    The largest-rectangle-in-histogram walk: a line keeps a stack of
    ``(start, level)`` pairs with rising levels, and a 0 after its end
    empties it. Every pop is one maximal slab of ``width`` cells spanning
    the levels (base, level], whose volume ``width * (level - base)`` is
    binned at ``loss[width]``. Python ints, so no sum can wrap.
    """
    lines = naive_lines(values, unit)
    loss = [0] * (max(len(line) for line in lines) + 2)
    for line in lines:
        stack = []
        for idx, v in enumerate(line + [0]):
            start = idx
            while stack and stack[-1][1] > v:
                start, level = stack.pop()
                base = max(stack[-1][1], v) if stack else v
                width = idx - start
                loss[width] += width * (level - base)
            if v > 0 and (not stack or stack[-1][1] < v):
                stack.append((start, v))
    return np.array(loss, dtype=np.int64)


def fraction_entropy(volumes):
    """Shannon entropy (natural log) of a volume list, via exact Fractions.

    Each positive loss becomes ``Fraction(loss, v0)``, reduced, and is
    rounded to a float only then; ``granulometric_index`` must match this
    bit for bit.
    """
    v0 = volumes[0]
    acc = 0.0
    for a, b in zip(volumes, volumes[1:]):
        p = Fraction(a - b, v0)
        if p > 0:
            pf = float(p)
            acc -= pf * math.log(pf)
    return acc


def se_translates(se):
    """Offsets of a structuring element as (row, col) int pairs."""
    return [(dy, dx) for dx, dy in sorted(se.offsets)]


def naive_erode(dem, se, minimum=True):
    """Direct per-cell extremum over offsets, pad-0 outside the domain."""
    h, w = dem.height, dem.width
    out = np.zeros((h, w), dtype=np.int64)
    offs = se_translates(se)
    for r in range(h):
        for c in range(w):
            vals = []
            for dr, dc in offs:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and dem.mask[rr, cc]:
                    vals.append(int(dem.values[rr, cc]))
                else:
                    vals.append(0)
            out[r, c] = min(vals) if minimum else max(vals)
    return Dem(np.where(dem.mask, out, 0), dem.mask)


def translate_fit_opening(dem, se):
    """Opening as the explicit supremum over translates inside the domain.

    At each domain cell: the max over all element translates that lie
    entirely on present cells and cover the cell, of the min elevation
    over the translate; 0 when no translate fits.
    """
    h, w = dem.height, dem.width
    offs = se_translates(se)
    out = np.zeros((h, w), dtype=np.int64)
    for yr in range(-max(abs(o[0]) for o in offs) - h, 2 * h + 1):
        for yc in range(-max(abs(o[1]) for o in offs) - w, 2 * w + 1):
            cells = [(yr + dr, yc + dc) for dr, dc in offs]
            if not all(0 <= r < h and 0 <= c < w and dem.mask[r, c]
                       for r, c in cells):
                continue
            m = min(int(dem.values[r, c]) for r, c in cells)
            for r, c in cells:
                if m > out[r, c]:
                    out[r, c] = m
    return Dem(np.where(dem.mask, out, 0), dem.mask)


def opening_spectrum_volumes(dem, se, family="nse"):
    """Volumes of a spectrum's openings, one scale at a time, to the first 0.

    ``"nse"``: scales n = 0, 1, ... opened by explicit translate
    enumeration with ``nse(se, n)``, independent of every fast path.
    ``"length"``: segment lengths 1, 2, ... along the linear element's
    direction, opened by ``opening_by_segment``.
    """
    if family == "length":
        code = DIRECTION_CODE[se.as_line()[0]]

        def opened(i):  # a segment of i + 1 cells
            return np.where(dem.mask, opening_by_segment(dem.values, code, i + 1), 0)
    else:
        def opened(i):
            return translate_fit_opening(dem, nse(se, i)).values
    vols = [volume(dem)]
    while vols[-1] > 0:
        vols.append(int(opened(len(vols)).sum(dtype=np.int64)))
    return tuple(vols)


def binary_open_set(cells, se):
    """Binary opening: union of element translates inside the cell set."""
    offs = se_translates(se)
    cells = set(cells)
    out = set()
    for yr, yc in cells:
        translate = {(yr + dr, yc + dc) for dr, dc in offs}
        if translate <= cells:
            out |= translate
    return out


def threshold_cells(dem, h):
    """Domain cells with elevation >= h."""
    rows, cols = np.nonzero(dem.mask & (dem.values >= h))
    return set(zip(rows.tolist(), cols.tolist()))


def brute_runs_per_line(seq, h):
    """Lengths of maximal runs of values >= h in a masked 1-D sequence.

    ``seq`` holds ints with None for masked cells.
    """
    lengths = []
    run = 0
    for v in seq:
        if v is not None and v >= h:
            run += 1
        else:
            if run:
                lengths.append(run)
            run = 0
    if run:
        lengths.append(run)
    return lengths


def naive_run_table(dem, direction):
    """``{(line, level, length): runs}`` by thresholding one segment at a time.

    Every segment of every scan line is walked cell by cell at each level
    1..its peak, and each maximal run of cells >= the level is counted.
    """
    counts = {}
    for line in scan_lines(dem, direction):
        for seg in line.segments:
            for h in range(1, max(seg.values) + 1):
                t = 0
                for v in seg.values:
                    if v >= h:
                        t += 1
                    elif t:
                        key = (line.index, h, t)
                        counts[key] = counts.get(key, 0) + 1
                        t = 0
                if t:
                    key = (line.index, h, t)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def naive_run_csv(direction, counts):
    """A run-count dict as the run-table CSV, rows in sorted key order."""
    lines = ["direction,line,h,t,count"]
    for (i, h, t) in sorted(counts):
        lines.append(f"{direction},{i},{h},{t},{counts[(i, h, t)]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators (plain rng; hypothesis strategies live in the test modules)
# ---------------------------------------------------------------------------


def rng_for(seed):
    return np.random.default_rng(seed)
