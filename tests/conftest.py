"""Shared test oracles and raster generators.

The oracles here are deliberately brute force and independent of the
package's compute paths: windowed extrema via numpy sliding windows,
offset extrema via a per-cell loop, openings via explicit translate
enumeration, slab losses via a stack sweep over lines walked cell by
cell, per-level run counting via direct thresholding (per sequence, and
per segment of every scan line for whole run tables), scan lines and
their segments via a per-cell walk of every line, the oracle's flat
line layout via per-cell index arithmetic, and the entropy via exact
``Fraction`` probabilities, the ESRI and fixture-CSV parsers as
per-token loops, their writers as per-cell loops, and
quantization with one new array per step. Expected values frozen in the test modules were produced with
these. The one exception is the length-family spectrum reference, which
loops the package's own ``opening_by_segment`` over every length; its
two one-sided extremum passes are the ones test_kernels.py checks
against ``naive_directional_extremum``.
"""

import math
from fractions import Fraction

import numpy as np

from demgranulo.dem import (_ESRI_HEADER_KEYS, _I64_MAX, DIRECTION_STEPS, Dem, DemError,
                            DemParseError, ScanLine, Segment, quantize, volume)
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
        direction = se.as_line()[0]

        def opened(i):  # a segment of i + 1 cells
            return np.where(dem.mask, opening_by_segment(dem.values, direction, i + 1), 0)
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


def _line_starts(height, width, direction):
    """Yield (index, r0, c0, length) for every lattice line, one line at a time."""
    if direction == "row":
        for r in range(height):
            yield r, r, 0, width
    elif direction == "column":
        for c in range(width):
            yield c, 0, c, height
    elif direction == "diag-down":
        for i in range(height + width - 1):
            d = i - (height - 1)
            r0 = max(0, -d)
            c0 = max(0, d)
            yield i, r0, c0, min(height - 1 - r0, width - 1 - c0) + 1
    elif direction == "diag-up":
        for s in range(height + width - 1):
            r0 = max(0, s - (width - 1))
            yield s, r0, s - r0, min(s, height - 1) - r0 + 1
    else:
        raise ValueError(f"unknown direction {direction!r}")


def reference_scan_lines(dem, direction):
    """``dem.scan_lines`` as it was before it read ``_kernels.line_layout``:
    every line from :func:`_line_starts`, walked cell by cell by its
    ``DIRECTION_STEPS`` step, each run of present cells one segment."""
    dr, dc = DIRECTION_STEPS[direction]
    lines = []
    for index, r0, c0, length in _line_starts(dem.height, dem.width, direction):
        segments = []
        run_vals = []
        run_start = 0
        for i in range(length):
            r, c = r0 + i * dr, c0 + i * dc
            if dem.mask[r, c]:
                if not run_vals:
                    run_start = i
                run_vals.append(int(dem.values[r, c]))
            elif run_vals:
                segments.append(Segment(r0 + run_start * dr, c0 + run_start * dc,
                                        tuple(run_vals)))
                run_vals = []
        if run_vals:
            segments.append(Segment(r0 + run_start * dr, c0 + run_start * dc,
                                    tuple(run_vals)))
        lines.append(ScanLine(direction, index, tuple(segments)))
    return lines


def naive_run_table(dem, direction):
    """``{(line, level, length): runs}`` by thresholding one segment at a time.

    Every segment of every scan line is walked cell by cell at each level
    1..its peak, and each maximal run of cells >= the level is counted.
    """
    counts = {}
    for line in reference_scan_lines(dem, direction):
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


def reference_flat_lines(dem, direction):
    """``oracle._flat_lines`` as it was before it built its array by slicing
    and scatter: every line from :func:`_line_starts`, laid end to end by
    per-cell int64 index arithmetic, each behind one 0, with one more 0
    at the end. Returns (line indices, position of each line's leading 0,
    the int64 array)."""
    dr, dc = DIRECTION_STEPS[direction]
    index, r0, c0, length = np.array(
        list(_line_starts(dem.height, dem.width, direction)), dtype=np.int64).T
    first = np.cumsum(length) - length  # cells on the lines before each line
    step = np.arange(int(length.sum())) - np.repeat(first, length)
    cell = np.repeat(r0 * dem.width + c0, length) + step * (dr * dem.width + dc)
    starts = first + np.arange(index.size)  # one leading 0 per earlier line
    flat = np.zeros(step.size + index.size + 1, dtype=np.int64)
    flat[np.repeat(starts + 1, length) + step] = dem.values.ravel()[cell]
    return index, starts, flat


def reference_quantize(raw, mask=None, *, step=1.0, datum=0.0):
    """``dem.quantize`` as it was before it computed the levels in place:
    one new array per step. ``quantize`` must match it bit for bit."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite(datum):
        raise ValueError(f"datum must be finite, got {datum}")
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DemError("expected a 2-D grid")
    present = np.isfinite(arr)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != arr.shape:
            raise DemError("mask must have the grid's shape")
        present &= mask
    if not present.any():
        raise DemError("no unmasked finite values to quantize")
    levels = np.floor((arr - datum) / step) + 1.0
    levels = np.where(present, levels, 0.0)
    if np.nanmax(levels) >= 2**62:
        raise DemError("quantized levels overflow the elevation type")
    values = np.maximum(levels, 1.0).astype(np.int64)
    return Dem(np.where(present, values, 0), present)


# ---------------------------------------------------------------------------
# Reference parsers: one token at a time, as the package parsed before its
# bulk paths
# ---------------------------------------------------------------------------


def reference_parse_esri_ascii(text, *, step=1.0, datum=0.0):
    """``dem.parse_esri_ascii`` with every data token read by ``float``."""
    header = {}
    lines = text.splitlines()
    data_start = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            data_start = lineno
            continue
        try:
            float(tokens[0])
        except ValueError:
            if len(tokens) != 2:
                raise DemParseError(f"malformed header entry {tokens[0]!r}", line=lineno)
            try:
                header[tokens[0].lower()] = float(tokens[1])
            except ValueError:
                raise DemParseError(
                    f"non-numeric header value {tokens[1]!r}", line=lineno, column=2)
            data_start = lineno
            continue
        data_start = lineno - 1
        break
    for key in _ESRI_HEADER_KEYS:
        if key not in header:
            raise DemParseError(f"header missing {key}", line=data_start or 1)
    ncols, nrows = header["ncols"], header["nrows"]
    if not (math.isfinite(ncols) and math.isfinite(nrows)) or (
            ncols != int(ncols) or nrows != int(nrows) or ncols < 1 or nrows < 1):
        raise DemParseError("ncols/nrows must be positive integers", line=1)
    ncols, nrows = int(ncols), int(nrows)
    nodata = header.get("nodata_value")

    if nrows * ncols > (len(text) + 1) // 2:
        data = [line.split() for line in lines[data_start:]]
        last_line = data_start + max((i for i, tokens in enumerate(data, start=1)
                                      if tokens), default=0)
        raise DemParseError(
            f"grid ended after {sum(map(len, data))} of {nrows * ncols} cells",
            line=last_line)

    values = np.empty(nrows * ncols, dtype=np.float64)
    count = 0
    last_line = data_start
    for lineno in range(data_start + 1, len(lines) + 1):
        for colno, tok in enumerate(lines[lineno - 1].split(), start=1):
            if count >= nrows * ncols:
                raise DemParseError("grid has more cells than nrows*ncols",
                                    line=lineno, column=colno)
            try:
                values[count] = float(tok)
            except ValueError:
                raise DemParseError(f"non-numeric token {tok!r}",
                                    line=lineno, column=colno)
            count += 1
        if lines[lineno - 1].split():
            last_line = lineno
    if count < nrows * ncols:
        raise DemParseError(
            f"grid ended after {count} of {nrows * ncols} cells", line=last_line)

    grid = values.reshape(nrows, ncols)
    present = np.isfinite(grid)
    if nodata is not None:
        present &= grid != nodata
    if not present.any():
        raise DemParseError("grid contains no data cells", line=last_line)
    return quantize(grid, present, step=step, datum=datum)


def reference_parse_fixture_csv(text):
    """``dem.parse_fixture_csv`` with every cell read by ``int`` and stored
    through ``Dem.from_rows``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = []
        for colno, tok in enumerate(line.split(","), start=1):
            tok = tok.strip()
            if not tok:
                row.append(None)
                continue
            try:
                value = int(tok)
            except ValueError:
                raise DemParseError(f"non-integer cell {tok!r}",
                                    line=lineno, column=colno)
            if abs(value) > _I64_MAX:
                raise DemParseError(f"cell {tok!r} outside the int64 range",
                                    line=lineno, column=colno)
            row.append(value)
        rows.append(row)
    if not rows:
        raise DemParseError("empty fixture", line=1)
    width = max(len(r) for r in rows)
    for r in rows:
        r.extend([None] * (width - len(r)))
    try:
        return Dem.from_rows(rows)
    except DemError as exc:
        raise DemParseError(str(exc), line=1)


# ---------------------------------------------------------------------------
# Reference writers: one cell at a time, as the package wrote before it
# rendered whole rows
# ---------------------------------------------------------------------------


def reference_to_esri_ascii(dem, nodata=-9999):
    """``Dem.to_esri_ascii`` with every cell read by index."""
    lines = [
        f"ncols {dem.width}",
        f"nrows {dem.height}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        "cellsize 1.0",
        f"NODATA_value {nodata}",
    ]
    for r in range(dem.height):
        row = [str(int(dem.values[r, c])) if dem.mask[r, c] else str(nodata)
               for c in range(dem.width)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def reference_to_fixture_csv(dem):
    """``Dem.to_fixture_csv`` with every cell read by index."""
    lines = []
    for r in range(dem.height):
        lines.append(",".join(
            str(int(dem.values[r, c])) if dem.mask[r, c] else ""
            for c in range(dem.width)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random rasters (plain rng; hypothesis strategies live in the test modules)
#
# Each builder takes a seed or a numpy Generator, which
# ``np.random.default_rng`` hands back as it is, so a test can draw many
# rasters from one stream.
# ---------------------------------------------------------------------------


def random_dem(rng, max_height=12, max_width=12, levels=8, hole_fraction=0.2):
    """Random masked raster with at least one present cell."""
    rng = np.random.default_rng(rng)
    h = int(rng.integers(1, max_height + 1))
    w = int(rng.integers(1, max_width + 1))
    values = rng.integers(1, levels + 1, size=(h, w)).astype(np.int64)
    mask = rng.random((h, w)) >= hole_fraction
    if not mask.any():
        mask[rng.integers(0, h), rng.integers(0, w)] = True
    return Dem(values, mask)  # Dem stores 0 at the absent cells


def random_interval_dem(rng, max_rows=6, max_width=10, levels=6):
    """Random raster whose every row is one unbroken interval."""
    rng = np.random.default_rng(rng)
    h = int(rng.integers(1, max_rows + 1))
    w = int(rng.integers(1, max_width + 1))
    values = np.zeros((h, w), dtype=np.int64)
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        lo = int(rng.integers(0, w))
        hi = int(rng.integers(lo, w))
        mask[r, lo:hi + 1] = True
        values[r, lo:hi + 1] = rng.integers(1, levels + 1, size=hi - lo + 1)
    return Dem(values, mask)


def random_unipeak_dem(rng, max_levels=6, max_base=24):
    """Random single-peak row with strictly shrinking per-level runs.

    Level h carries exactly one run, each nested strictly inside the one
    below, so the run lengths are pairwise distinct and the volume-drop
    multiset matches the length-spectrum multiset exactly.
    """
    rng = np.random.default_rng(rng)
    m = int(rng.integers(1, max_levels + 1))
    lengths = sorted(rng.choice(np.arange(1, max_base + 1), size=m, replace=False),
                     reverse=True)
    base = lengths[0]
    values = np.zeros(base, dtype=np.int64)
    lo, hi = 0, base  # current run is [lo, hi)
    for h, t in enumerate(lengths, start=1):
        if h > 1:
            lo = lo + int(rng.integers(0, (hi - lo) - t + 1))
            hi = lo + t
        values[lo:hi] += 1
    return Dem(values.reshape(1, -1), np.ones((1, base), dtype=bool))
