"""Masked integer elevation rasters: data model, ingestion, geometry.

A :class:`Dem` is an immutable raster of non-negative integer elevations
over a possibly non-rectangular domain. Cells outside the domain are
"absent" (masked). Freshly ingested rasters always carry elevations
``>= 1``; morphological operators may lower present cells to ``0``,
which is why the type itself only requires non-negative values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Scan directions and the unit lattice step (drow, dcol) of each.
DIRECTIONS = ("row", "column", "diag-down", "diag-up")
DIRECTION_STEPS = {
    "row": (0, 1),
    "column": (1, 0),
    "diag-down": (1, 1),
    "diag-up": (1, -1),
}
# Directional structuring element whose scans run along each direction.
SE_FOR_DIRECTION = {
    "row": "B4",
    "column": "B2",
    "diag-down": "B3",
    "diag-up": "B1",
}

_ESRI_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_I64_MAX = 2**63 - 1


class DemError(Exception):
    """Base error for DEM construction and ingestion."""


class DemParseError(DemError):
    """Malformed input file; carries the 1-based line/column of the fault."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class Dem:
    """Masked integer raster. ``values`` is int64 with 0 at absent cells."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.int64)
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        if values.ndim != 2 or mask.shape != values.shape:
            raise DemError("values and mask must be 2-D arrays of equal shape")
        if not mask.any():
            raise DemError("domain is empty (all cells masked)")
        if (values[mask] < 0).any():
            raise DemError("present elevations must be non-negative")
        values = np.where(mask, values, 0)
        # bounds the volume, and with it every slab and loss sum
        if int(values.max()) * int(np.count_nonzero(mask)) > _I64_MAX:
            raise DemError("elevations too large: the volume would overflow int64")
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    # -- geometry -----------------------------------------------------------

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def zmin(self) -> int:
        return int(self.values[self.mask].min())

    @property
    def zmax(self) -> int:
        return int(self.values[self.mask].max())

    def __eq__(self, other):
        if not isinstance(other, Dem):
            return NotImplemented
        return (self.values.shape == other.values.shape
                and bool((self.mask == other.mask).all())
                and bool((self.values == other.values).all()))

    def __repr__(self):
        return f"Dem({self.height}x{self.width}, {self.cell_count} cells)"

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | None]]) -> "Dem":
        """Build from nested lists where ``None`` marks an absent cell."""
        height = len(rows)
        width = max((len(r) for r in rows), default=0)
        values = np.zeros((height, width), dtype=np.int64)
        mask = np.zeros((height, width), dtype=bool)
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v is not None:
                    values[r, c] = int(v)
                    mask[r, c] = True
        return cls(values, mask)

    # -- serialization ------------------------------------------------------

    def to_esri_ascii(self, nodata: int = -9999) -> str:
        """Render as an ESRI ASCII grid, elevations written verbatim.

        Re-parsing with ``step=1, datum=1`` reproduces the raster
        bit-exactly; the default ingestion datum of 0 maps an integer
        grid one level up (see :func:`quantize`).
        """
        lines = [
            f"ncols {self.width}",
            f"nrows {self.height}",
            "xllcorner 0.0",
            "yllcorner 0.0",
            "cellsize 1.0",
            f"NODATA_value {nodata}",
        ]
        for r in range(self.height):
            row = [str(int(self.values[r, c])) if self.mask[r, c] else str(nodata)
                   for c in range(self.width)]
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"

    def to_fixture_csv(self) -> str:
        """Render as the internal fixture CSV: empty fields mean masked."""
        lines = []
        for r in range(self.height):
            lines.append(",".join(
                str(int(self.values[r, c])) if self.mask[r, c] else ""
                for c in range(self.width)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Segment:
    """Maximal contiguous run of domain cells on one scan line."""

    row0: int
    col0: int
    values: tuple[int, ...]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class ScanLine:
    """One lattice line of the raster in a given direction.

    ``segments`` are ordered by increasing lattice coordinate along the
    direction; concatenating them reproduces exactly the domain cells on
    the line. Lines whose cells are all masked carry no segments.
    """

    direction: str
    index: int
    segments: tuple[Segment, ...]

    @property
    def cell_count(self):
        return sum(len(s) for s in self.segments)


def _line_starts(height: int, width: int, direction: str):
    """Yield (index, r0, c0, length) for every lattice line."""
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


def scan_lines(dem: Dem, direction: str) -> list[ScanLine]:
    """Decompose the domain into 1-D scans along ``direction``.

    Every domain cell lands in exactly one segment of exactly one line;
    gaps in the mask split a lattice line into several segments.
    """
    dr, dc = DIRECTION_STEPS[direction]
    lines = []
    for index, r0, c0, length in _line_starts(dem.height, dem.width, direction):
        segments = []
        run_vals: list[int] = []
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


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def quantize(raw, mask=None, *, step: float = 1.0, datum: float = 0.0) -> Dem:
    """Quantize a real-valued grid into integer elevation levels.

    Each unmasked finite value z maps to ``floor((z - datum) / step) + 1``,
    clamped below at 1, so every present cell lands in a positive level
    and the level of ``z == datum`` is exactly 1. Indices are not
    shift-invariant, so the datum is an explicit configuration value that
    callers should record alongside results.

    Args:
        raw: 2-D array of elevations; non-finite entries are masked.
        mask: optional boolean array, True where the cell is present.
        step: level width, must be positive and finite.
        datum: elevation mapped to the bottom of level 1, must be finite.

    Returns:
        The quantized Dem.
    """
    # a NaN or infinite step or datum would map every cell to level 1
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite(datum):
        raise ValueError(f"datum must be finite, got {datum}")
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DemError("expected a 2-D grid")
    present = np.isfinite(arr)
    if mask is not None:
        present &= np.asarray(mask, dtype=bool)
    if not present.any():
        raise DemError("no unmasked finite values to quantize")
    levels = np.floor((arr - datum) / step) + 1.0
    levels = np.where(present, levels, 0.0)
    if np.nanmax(levels) >= 2**62:
        raise DemError("quantized levels overflow the elevation type")
    values = np.maximum(levels.astype(np.int64), 1)
    return Dem(np.where(present, values, 0), present)


def parse_esri_ascii(text: str, *, step: float = 1.0, datum: float = 0.0) -> Dem:
    """Parse an ESRI ASCII grid and quantize it into a Dem.

    The header must provide ncols, nrows, xllcorner, yllcorner and
    cellsize (any case), optionally NODATA_value; data rows follow, top
    row first. Cells equal to the declared NODATA value, or non-finite,
    are masked out.
    """
    header: dict[str, float] = {}
    lines = text.splitlines()
    data_start = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            data_start = lineno
            continue
        try:
            float(tokens[0])
        except ValueError:  # not a number (nan and inf are): a header key
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
    if ncols != int(ncols) or nrows != int(nrows) or ncols < 1 or nrows < 1:
        raise DemParseError("ncols/nrows must be positive integers", line=1)
    ncols, nrows = int(ncols), int(nrows)
    nodata = header.get("nodata_value")

    # every cell needs a token and a separator: a header that claims more
    # cells than the text can hold is short before the grid is allocated
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


def parse_fixture_csv(text: str) -> Dem:
    """Parse the internal fixture CSV (integer cells, empty = masked)."""
    rows: list[list[int | None]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        row: list[int | None] = []
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
# Whole-raster operations
# ---------------------------------------------------------------------------


def volume(dem: Dem) -> int:
    """Sum of all present elevations (masked cells store 0)."""
    return int(dem.values.sum(dtype=np.int64))


def row_interval(dem: Dem, r: int) -> tuple[int, int] | None:
    """(first, last) column of row ``r`` if it is one unbroken interval.

    Returns None for an empty row; raises for a row with gaps.
    """
    cols = np.flatnonzero(dem.mask[r])
    if cols.size == 0:
        return None
    lo, hi = int(cols[0]), int(cols[-1])
    if cols.size != hi - lo + 1:
        raise DemError(f"row {r} is not a single interval")
    return lo, hi


def reflect_rows(dem: Dem, subset: Iterable[int]) -> Dem:
    """Mirror the selected rows within their own column interval.

    Every selected row must be a single unbroken interval; the cell at
    column j moves to column (hi - j + lo). Other rows are untouched.
    """
    values = np.array(dem.values)
    for r in set(subset):
        interval = row_interval(dem, r)
        if interval is None:
            continue
        lo, hi = interval
        values[r, lo:hi + 1] = values[r, lo:hi + 1][::-1]
    return Dem(values, dem.mask)


def scale_heights(dem: Dem, k: int) -> Dem:
    """Multiply every present elevation by the integer factor ``k >= 1``."""
    if k < 1:
        raise ValueError(f"scale factor must be >= 1, got {k}")
    if dem.zmax > _I64_MAX // k:
        raise OverflowError("scaled elevations overflow the elevation type")
    return Dem(dem.values * np.int64(k), dem.mask)
