"""Independent verification path built on threshold-run counting.

Thresholding each scan line of the raster at every level splits it into
maximal runs, and counting those runs per length and level determines
every directional spectrum without a single morphological operation.
The agreement between this route and the streaming operators in
:mod:`spectrum` is the central cross-validation of the package, so
nothing here is shared with the fast path, its structuring elements
included: a count's direction names its element, and no other module's
scan lines are walked (:func:`is_unipeak` reads its row from the
raster). The lattice lines are laid out here alone (:func:`_flat_lines`),
end to end in one flat array, each behind one 0, in the narrowest
unsigned dtype that holds the raster's top level, and one level walk
finds the runs, thresholding that array in that dtype at a block of
levels at once. :func:`run_lengths` keeps only how many runs have each
length, which is all a spectrum needs; :func:`run_table` keeps each
run's line and level too, and :func:`run_profile_equal` compares two
rasters' runs per line and level only at the levels either one holds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dem import (_I64_MAX, SE_FOR_DIRECTION, Dem, DemError, reflect_rows, row_interval,
                  volume)
# unused here: kept only because the benchmark's tracer wraps oracle.scan_lines
from .dem import scan_lines  # noqa: F401
from .spectrum import PatternSpectrum, discrete_volume_derivative, granulometric_index


class RunTable:
    """Counts of maximal runs per (line, level, length) for one direction.

    The table is four int64 columns of equal size, sorted by
    (line, level, length): ``runs[j]`` maximal runs exactly ``length[j]``
    cells long lie at threshold ``level[j]`` on line ``line[j]``.
    ``counts`` is the same table as a read-only mapping
    ``(line, level, length) -> runs`` in table order, built on first
    access.

    ``RunTable(direction, mapping)`` builds a table from such a mapping.
    Every entry must be a non-negative int64 and the volume, the sum of
    length times runs, must fit int64, so no sum over the table wraps.
    A table counted from a raster has that raster's volume: for every
    line and level the counted lengths add back up to the number of
    cells at or above the level.
    """

    def __init__(self, direction: str, counts: Mapping):
        keys = sorted(counts)
        try:
            cols = np.array(keys, dtype=np.int64).reshape(len(keys), 3)
            runs = np.array([counts[k] for k in keys], dtype=np.int64)
        except OverflowError:
            raise ValueError("run table entries must fit int64") from None
        line, level, length = cols.T
        _check_runs(length, runs, line, level)
        self._set(direction, line, level, length, runs)

    @classmethod
    def _from_columns(cls, direction, line, level, length, runs) -> "RunTable":
        table = cls.__new__(cls)
        table._set(direction, line, level, length, runs)
        return table

    def _set(self, direction, line, level, length, runs):
        self.direction = direction
        columns = []
        for col in (line, level, length, runs):
            col = np.ascontiguousarray(col, dtype=np.int64)
            col.flags.writeable = False
            columns.append(col)
        self.line, self.level, self.length, self.runs = columns

    @cached_property
    def counts(self) -> Mapping:
        keys = zip(self.line.tolist(), self.level.tolist(), self.length.tolist())
        return MappingProxyType(dict(zip(keys, self.runs.tolist())))

    def __eq__(self, other):
        if not isinstance(other, RunTable):
            return NotImplemented
        return self.direction == other.direction and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("line", "level", "length", "runs"))

    __hash__ = None

    def __repr__(self):
        return f"RunTable({self.direction!r}, {self.runs.size} entries)"

    def total_volume(self) -> int:
        return int(self.length @ self.runs)


class RunLengths:
    """Counts of maximal runs per length, over every line and level of one
    direction.

    ``runs[j]`` maximal runs are exactly ``length[j]`` cells long. Only
    lengths that occur are listed, in increasing order, as two read-only
    int64 arrays. These are the two columns of a :class:`RunTable` that
    :func:`spectrum_from_runs` reads, summed over the other two.

    ``RunLengths(direction, counts)`` takes ``counts[t]``, the number of
    runs of length ``t``, as an int64 array. As in a :class:`RunTable`,
    every count must be non-negative and the volume, the sum of length
    times runs, must fit int64.
    """

    def __init__(self, direction: str, counts: np.ndarray):
        self.direction = direction
        length = np.flatnonzero(counts).astype(np.int64, copy=False)
        runs = counts[length]
        _check_runs(length, runs)
        length.flags.writeable = runs.flags.writeable = False
        self.length, self.runs = length, runs

    def __repr__(self):
        return f"RunLengths({self.direction!r}, {self.length.size} lengths)"

    def total_volume(self) -> int:
        return int(self.length @ self.runs)


def _check_runs(length: np.ndarray, runs: np.ndarray, *keys: np.ndarray) -> None:
    """Refuse counts whose sums could wrap: a negative length, count or
    other key, or a volume, the sum of length times runs, past int64."""
    if any((col < 0).any() for col in (length, runs, *keys)):
        raise ValueError("run table entries must be non-negative")
    # summed in Python ints, which do not wrap
    if sum(t * c for t, c in zip(length.tolist(), runs.tolist())) > _I64_MAX:
        raise ValueError("run table volume overflows int64")


# cells thresholded at once by one block of the level walk
_BLOCK_CELLS = 2**16


def _flat_lines(dem: Dem, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Every lattice line of ``direction`` in one flat array, each behind a 0.

    Returns the position in the array of each line's leading 0, in line
    index order, and the array itself, which ends in one more 0 and
    holds the levels in the narrowest unsigned dtype that holds the top
    one.
    Masked cells already hold 0 in ``dem.values``, so a masked cell, a
    present 0 and the 0 between two lines all break every run at levels
    >= 1.

    Rows and columns all have one length, so the raster is written into
    a ``(lines, length + 1)`` view of the array by one slice assignment.
    Diagonals run from 1 to ``min(h, w)`` cells: each cell is scattered to
    its line and its place on the line in a zero ``(lines + 1,
    min(h, w) + 1)`` matrix, whose last row gives the trailing 0, and one
    boolean selection drops the padding behind each line's last cell.
    A diag-down line runs from top left to bottom right and is numbered
    ``c - r + h - 1``; a diag-up line runs from top right to bottom left
    and is numbered ``r + c``.
    """
    values = dem.values
    h, w = values.shape
    dtype = np.min_scalar_type(int(values.max()))
    if direction in ("row", "column"):
        grid = values if direction == "row" else values.T
        lines, length = grid.shape
        flat = np.zeros(lines * (length + 1) + 1, dtype=dtype)
        flat[:-1].reshape(lines, length + 1)[:, 1:] = grid
        starts = np.arange(lines, dtype=np.int64) * (length + 1)
    elif direction in ("diag-down", "diag-up"):
        lines, span = h + w - 1, min(h, w)
        r, c = np.ogrid[:h, :w]
        # each cell's line, and its place on the line, which starts on the
        # top row or on the first (diag-down) or last (diag-up) column
        if direction == "diag-down":
            at, place = c - r + h - 1, np.minimum(r, c)
        else:
            at, place = r + c, np.minimum(r, w - 1 - c)
        at *= span + 1
        at += place
        at += 1  # behind the line's leading 0
        padded = np.zeros((lines + 1, span + 1), dtype=dtype)
        padded.reshape(-1)[at] = values
        i = np.arange(lines, dtype=np.int64)
        length = np.minimum(np.minimum(i + 1, lines - i), span)
        flat = padded[np.arange(span + 1) <= np.append(length, 0)[:, None]]
        starts = np.cumsum(length + 1) - (length + 1)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return starts, flat


def _held_levels(flat: np.ndarray) -> np.ndarray:
    """The distinct levels >= 1 of ``flat``, ascending, in its dtype.

    Found by ``np.unique`` when the top one exceeds the cell count, and
    otherwise by a count of each level's cells.
    """
    top = int(flat.max())
    held = np.unique(flat) if top > flat.size else np.flatnonzero(np.bincount(flat))
    return held[held > 0].astype(flat.dtype, copy=False)


def _level_runs(flat: np.ndarray, held: np.ndarray | None = None,
                per: int | None = None):
    """Every maximal run at levels 1..max of ``flat``, a block of levels at once.

    Only the distinct levels the array holds are thresholds
    (:func:`_held_levels`, unless ``held`` gives others, ascending, in the
    array's dtype): every level above one of them, up to the next, has
    the runs of the next, so a threshold's runs stand for its weight, the
    levels from the one below it (or 0), exclusive, up to itself.

    A block thresholds the whole array at ``>= h`` for each of its
    levels, ``per`` of them (by default as many as make about
    _BLOCK_CELLS cells), as one ``(levels, cells)`` boolean matrix,
    comparing in the array's own dtype. Every row starts and ends with a
    0, so the places where a row changes pair up within the row: the cell
    before a run, then the run's last cell. Yields, block by block in
    level order, the block's levels (in the array's dtype) and their
    weights (int64), the position of the cell before each run in the
    row-major ``(levels, flat.size - 1)`` matrix of changes, and each
    run's length.
    """
    if held is None:
        held = _held_levels(flat)
    weight = np.diff(held.astype(np.int64), prepend=0)
    per = per or max(1, _BLOCK_CELLS // flat.size)
    for i in range(0, held.size, per):
        levels = held[i:i + per]
        above = flat >= levels[:, None]
        change = np.flatnonzero(above[:, 1:] != above[:, :-1])
        before = change[0::2]
        yield levels, weight[i:i + per], before, change[1::2] - before


def run_lengths(dem: Dem, direction: str) -> RunLengths:
    """Count maximal runs per length over every scan line and threshold.

    The count behind every directional spectrum: the same runs as
    :func:`run_table`, found by the same level walk, with the line and
    level of each run dropped as soon as it is found; a run counts once
    for every level its threshold stands for.
    """
    _, flat = _flat_lines(dem, direction)
    width, tspan = flat.size - 1, max(dem.height, dem.width) + 1
    counts = np.zeros(tspan, dtype=np.int64)
    for levels, weight, before, length in _level_runs(flat):
        per_level = np.bincount(before // width * tspan + length,
                                minlength=levels.size * tspan)
        counts += weight @ per_level.reshape(levels.size, tspan)
    return RunLengths(direction, counts)


def _line_runs(starts: np.ndarray, width: int, tspan: int,
               before: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, ...]:
    """One block of :func:`_level_runs` as entries: the block row (level),
    line, length and count of every (level, line, length) with runs,
    sorted by those three keys. ``starts`` holds each line's leading 0,
    ``width`` is the flat array's size less one, and ``tspan`` exceeds
    every run length."""
    row, at = np.divmod(before, width)
    line = np.searchsorted(starts, at, side="right") - 1
    key, count = np.unique((row * starts.size + line) * tspan + length,
                           return_counts=True)
    row_line, length = np.divmod(key, tspan)
    row, line = np.divmod(row_line, starts.size)
    return row, line, length, count


def run_table(dem: Dem, direction: str) -> RunTable:
    """Count maximal runs at every threshold on every scan line.

    Runs live inside segments (mask gaps break them). Levels sweep the
    full 1..max range of the raster; lines whose peak lies below a level
    simply stop contributing. The runs come from the level walk of
    :func:`run_lengths`; each block of levels counts its runs per
    (level, line, length) at once, and an entry of a threshold is
    repeated at every level it stands for.
    """
    starts, flat = _flat_lines(dem, direction)
    width, tspan = flat.size - 1, max(dem.height, dem.width) + 1
    # empty columns keep the joins below defined when every cell is 0
    lines, levels, lengths, runs = ([np.zeros(0, dtype=np.int64)] for _ in range(4))
    for held, weight, before, length in _level_runs(flat):
        row, line, length, count = _line_runs(starts, width, tspan, before, length)
        # an entry stands at levels held[row] - weight[row] + 1 .. held[row]
        repeat = weight[row]
        entry = np.repeat(np.arange(count.size), repeat)
        below = np.arange(entry.size) - np.repeat(np.cumsum(repeat) - repeat, repeat)
        lines.append(line[entry])
        levels.append(held[row].astype(np.int64)[entry] - below)
        lengths.append(length[entry])
        runs.append(count[entry])
    line, level, length = (np.concatenate(col) for col in (lines, levels, lengths))
    order = np.lexsort((length, level, line))
    return RunTable._from_columns(direction, line[order], level[order],
                                  length[order], np.concatenate(runs)[order])


def spectrum_from_runs(rt: RunTable | RunLengths, family: str = "nse") -> PatternSpectrum:
    """Rebuild a directional spectrum from run counts alone.

    A run of length t is removed by a segment opening once the segment
    outgrows it, so the volume loss at segment length k is
    k * (number of runs of length k, over all lines and levels); for the
    element-sum family the length bin (2n+1, 2n+2) collapses onto scale
    n, the last scale whose 2n+1 window still fits. Only the counts'
    ``direction``, ``length`` and ``runs`` are read, so a
    :class:`RunTable` and the :class:`RunLengths` of the same raster give
    the same spectrum.

    Args:
        rt: run table or run-length count for the direction of interest.
        family: "nse" or "length".

    Returns:
        PatternSpectrum identical to the morphological one.
    """
    if rt.total_volume() <= 0:
        raise ValueError("run table carries no volume")
    tmax = int(rt.length.max())
    # the table's volume fits int64, so no partial sum below can wrap
    loss = np.zeros(tmax + 3, dtype=np.int64)
    np.add.at(loss, rt.length, rt.length * rt.runs)
    at_least = np.cumsum(loss[::-1])[::-1]  # volume of the runs >= k cells long
    if family == "length":
        vols = at_least[1:tmax + 2]
    elif family == "nse":
        vols = at_least[1::2]
        vols = vols[:np.flatnonzero(vols == 0)[0] + 1]
    else:
        raise ValueError(f"unknown family {family!r}")
    name = SE_FOR_DIRECTION[rt.direction] if family == "nse" else f"L:{rt.direction}"
    return PatternSpectrum(name, family, tuple(vols.tolist()))


def run_profile_equal(dem1: Dem, dem2: Dem, direction: str) -> bool:
    """True iff the two rasters have entrywise identical run tables.

    This is a sufficient condition (not a necessary one) for their
    directional spectra to coincide.

    The tables are not built: the rasters' runs are compared at each
    level either raster holds, a block of levels at a time. Between two
    consecutive such levels neither raster's runs change, and past the
    top level neither has any, so runs equal at those levels are equal
    at every level. Rasters with different top levels differ at the
    higher one.
    """
    lines = [_flat_lines(dem, direction) for dem in (dem1, dem2)]
    flats = [flat for _, flat in lines]
    if int(flats[0].max()) != int(flats[1].max()):
        return False
    # equal tops give both arrays one dtype; both walks take one block size
    held = np.union1d(*map(_held_levels, flats))
    per = max(1, _BLOCK_CELLS // max(flat.size for flat in flats))
    tspan = max(dem1.height, dem1.width, dem2.height, dem2.width) + 1
    for blocks in zip(*(_level_runs(flat, held, per) for flat in flats)):
        a, b = (_line_runs(starts, flat.size - 1, tspan, before, length)
                for (starts, flat), (_, _, before, length) in zip(lines, blocks))
        if not all(map(np.array_equal, a, b)):
            return False
    return True


# ---------------------------------------------------------------------------
# Equivalence families
# ---------------------------------------------------------------------------


def reflection_family(dem: Dem, max_rows: int = 12):
    """All 2^rows rasters obtained by mirroring any subset of rows.

    Every member shares the raster's row-direction run profile, hence
    its row spectrum. Requires every row to be one unbroken interval.

    Yields the identity member first (empty subset), then subsets in
    increasing bitmask order (bit r selects row r).
    """
    if dem.height > max_rows:
        raise ValueError(f"{dem.height} rows exceed the enumeration cap {max_rows}")
    for r in range(dem.height):
        row_interval(dem, r)  # raises on rows with gaps
    for bits in range(2 ** dem.height):
        subset = [r for r in range(dem.height) if bits >> r & 1]
        yield reflect_rows(dem, subset)


# ---------------------------------------------------------------------------
# Single-peak rasters
# ---------------------------------------------------------------------------


class UniPeakCheck:
    """Boolean-like verdict with the reason a raster fails the test."""

    def __init__(self, ok: bool, reason: str = ""):
        self.ok = ok
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"UniPeakCheck({self.ok}{', ' + self.reason if self.reason else ''})"


def is_unipeak(dem: Dem) -> UniPeakCheck:
    """Whether a single-row raster has exactly one run at every level.

    A gap-free row has one run at every level from 1 to its top exactly
    when no cell lies below cells on both sides: such a valley cell of
    value v splits every level above v up to the lower of its two
    sides' peaks. The first level with other than one run is therefore
    the lowest valley's value + 1, and only that level's runs are
    counted, so the check takes time and memory in the row's cells, not
    in its levels.
    """
    if dem.height != 1:
        return UniPeakCheck(False, "not a single row")
    try:
        lo, hi = row_interval(dem, 0)  # a Dem's one row holds a cell
    except DemError:
        return UniPeakCheck(False, "row has mask gaps")
    row = dem.values[0, lo:hi + 1].astype(np.int64)
    left = np.maximum.accumulate(row)
    right = np.maximum.accumulate(row[::-1])[::-1]
    inner = row[1:-1]
    valleys = inner[(left[:-2] > inner) & (right[2:] > inner)]
    if not valleys.size:
        return UniPeakCheck(True)
    level = int(valleys.min()) + 1
    above = row >= level
    runs = int(above[0]) + int(np.count_nonzero(above[1:] & ~above[:-1]))
    return UniPeakCheck(False, f"{runs} runs at level {level}")


def unipeak_entropy_equivalence(dem: Dem) -> tuple[float, float]:
    """Entropy of normalized volume drops vs the length-family index.

    For a single-peak row the per-level volume drop equals the length of
    the level's one run, so when those lengths are pairwise distinct the
    two probability multisets coincide and the entropies agree exactly.
    Repeated lengths merge in the spectrum, which is why the equivalence
    is stated on the distinct-length class.
    """
    check = is_unipeak(dem)
    if not check:
        raise ValueError(f"not a single-peak raster: {check.reason}")
    v = volume(dem)
    derivative_entropy = 0.0
    for d in discrete_volume_derivative(dem):
        p = d / v
        derivative_entropy -= p * math.log(p)
    gi = granulometric_index(spectrum_from_runs(run_lengths(dem, "row"), "length"))
    return derivative_entropy, gi
