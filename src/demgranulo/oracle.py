"""Independent verification path built on threshold-run counting.

Thresholding each scan line of the raster at every level splits it into
maximal runs, and counting those runs per length and level determines
every directional spectrum without a single morphological operation.
The agreement between this route and the streaming operators in
:mod:`spectrum` is the central cross-validation of the package, so
nothing here is shared with the fast path: the lattice lines come from
``dem._line_starts`` and runs are counted level by level, one numpy
threshold-and-edge pass over all lines of a direction per level.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .dem import (_I64_MAX, DIRECTION_STEPS, SE_FOR_DIRECTION, Dem, _line_starts,
                  reflect_rows, row_interval, scan_lines, volume)
from .morphology import resolve_se
from .spectrum import PatternSpectrum, discrete_volume_derivative, granulometric_index


class RunTable:
    """Counts of maximal runs per (line, level, length) for one direction.

    The table is four int64 columns of equal size, sorted by
    (line, level, length): ``runs[j]`` maximal runs exactly ``length[j]``
    cells long lie at threshold ``level[j]`` on line ``line[j]``.
    ``counts`` reads the columns as a mapping
    ``(line, level, length) -> runs``.

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
        if (cols < 0).any() or (runs < 0).any():
            raise ValueError("run table entries must be non-negative")
        if sum(t * c for (_, _, t), c in counts.items()) > _I64_MAX:
            raise ValueError("run table volume overflows int64")
        self._set(direction, *cols.T, runs)

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
        self.counts = RunCounts(*columns)

    def __eq__(self, other):
        if not isinstance(other, RunTable):
            return NotImplemented
        return self.direction == other.direction and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("line", "level", "length", "runs"))

    __hash__ = None

    def __repr__(self):
        return f"RunTable({self.direction!r}, {self.runs.size} entries)"

    def cells_at_level(self, line_index: int, h: int) -> int:
        at = (self.line == line_index) & (self.level == h)
        return int(self.length[at] @ self.runs[at])

    def total_volume(self) -> int:
        return int(self.length @ self.runs)

    def to_csv(self) -> str:
        d = self.direction
        lines = ["direction,line,h,t,count"]
        lines.extend(f"{d},{i},{h},{t},{c}" for i, h, t, c in zip(
            self.line.tolist(), self.level.tolist(), self.length.tolist(),
            self.runs.tolist()))
        return "\n".join(lines) + "\n"


class RunCounts(Mapping):
    """Read-only mapping (line, level, length) -> runs over a table's columns.

    Iteration, ``values()`` and ``items()`` read the columns in table
    order; the first lookup by key builds a dict index.
    """

    def __init__(self, line, level, length, runs):
        self._keys = (line, level, length)
        self._runs = runs
        self._index = None

    def __len__(self):
        return self._runs.size

    def __iter__(self):
        return zip(*(col.tolist() for col in self._keys))

    def __getitem__(self, key):
        if self._index is None:
            self._index = dict(self.items())
        return self._index[key]

    def values(self) -> list[int]:
        return self._runs.tolist()

    def items(self) -> list[tuple[tuple[int, int, int], int]]:
        return list(zip(self, self.values()))


def _padded_lines(dem: Dem, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Every lattice line of ``direction`` as one row of a zero-filled matrix.

    Returns the line indices and the matrix: row j holds the cells of
    line ``index[j]`` in scan order behind one leading 0, and 0 past the
    line's end. Masked cells already hold 0 in ``dem.values``, so a
    masked cell and a present 0 both break every run at levels >= 1.
    """
    dr, dc = DIRECTION_STEPS[direction]
    index, r0, c0, length = np.array(
        list(_line_starts(dem.height, dem.width, direction)), dtype=np.int64).T
    step = np.arange(int(length.max()))
    inside = step < length[:, None]
    padded = np.zeros((index.size, step.size + 1), dtype=np.int64)
    padded[:, 1:][inside] = dem.values[(r0[:, None] + step * dr)[inside],
                                       (c0[:, None] + step * dc)[inside]]
    return index, padded


def run_table(dem: Dem, direction: str) -> RunTable:
    """Count maximal runs at every threshold on every scan line.

    Runs live inside segments (mask gaps break them). Levels sweep the
    full 1..max range of the raster; lines whose peak lies below a level
    simply stop contributing. Each level is one pass over all lines at
    once: threshold at ``>= h``, find where the thresholded cells change,
    pair each run's start with its end, and count the runs per
    (line, length).
    """
    index, padded = _padded_lines(dem, direction)
    width = padded.shape[1]
    flat = np.append(padded.ravel(), 0)  # the 0 ends the last line's last run
    # level 0 holds no runs; it keeps the joins below defined when every
    # cell is 0
    found, runs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for h in range(1, dem.zmax + 1):
        above = flat >= h
        # changes alternate: the cell before a run, then the run's last cell;
        # every row leads with a 0, so both lie on the run's own row
        change = np.flatnonzero(above[1:] != above[:-1])
        before, last = change[0::2], change[1::2]
        key, count = np.unique(before - before % width + (last - before),
                               return_counts=True)  # key: row * width + length
        found.append(key)
        runs.append(count)
    sizes = [key.size for key in found]
    key = np.concatenate(found)
    row, length = np.divmod(key, width)
    level = np.repeat(np.arange(len(sizes)), sizes)
    # levels were appended in order, so a stable sort on the row alone
    # leaves every line's entries sorted by (level, length)
    order = np.argsort(row, kind="stable")
    return RunTable._from_columns(direction, index[row[order]], level[order],
                                  length[order], np.concatenate(runs)[order])


def spectrum_from_runs(rt: RunTable, family: str = "nse",
                       se=None) -> PatternSpectrum:
    """Rebuild a directional spectrum from run counts alone.

    A run of length t is removed by a segment opening once the segment
    outgrows it, so the volume loss at segment length k is
    k * (number of runs of length k, over all lines and levels); for the
    element-sum family the length bin (2n+1, 2n+2) collapses onto scale
    n, the last scale whose 2n+1 window still fits. Only the table's
    length and runs columns are read.

    Args:
        rt: run table for the direction of interest.
        family: "nse" or "length".
        se: optional element (or name) to validate against the
            direction; a mismatch is an error.

    Returns:
        PatternSpectrum identical to the morphological one.
    """
    se_name = SE_FOR_DIRECTION[rt.direction]
    if se is not None:
        given = resolve_se(se)
        line = given.as_line()
        expected = resolve_se(se_name).as_line()
        if line is None or line[0] != expected[0] or line[1] != 1:
            raise ValueError(
                f"element {given.name or given.offsets} does not scan {rt.direction}")
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
    name = se_name if family == "nse" else f"L:{rt.direction}"
    return PatternSpectrum(name, family, tuple(vols.tolist()))


def run_profile_equal(dem1: Dem, dem2: Dem, direction: str) -> bool:
    """True iff the two rasters have entrywise identical run tables.

    This is a sufficient condition (not a necessary one) for their
    directional spectra to coincide.
    """
    return run_table(dem1, direction) == run_table(dem2, direction)


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
    """Whether a single-row raster has exactly one run at every level."""
    if dem.height != 1:
        return UniPeakCheck(False, "not a single row")
    lines = scan_lines(dem, "row")
    if len(lines[0].segments) != 1:
        return UniPeakCheck(False, "row has mask gaps")
    rt = run_table(dem, "row")
    per_level: dict[int, int] = {}
    for (_, h, _), c in rt.counts.items():
        per_level[h] = per_level.get(h, 0) + c
    for h, c in sorted(per_level.items()):
        if c != 1:
            return UniPeakCheck(False, f"{c} runs at level {h}")
    return UniPeakCheck(True)


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
    gi = granulometric_index(spectrum_from_runs(run_table(dem, "row"), "length"))
    return derivative_entropy, gi
