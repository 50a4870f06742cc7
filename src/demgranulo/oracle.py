"""Independent verification path built on threshold-run counting.

Thresholding each scan line of the raster at every level splits it into
maximal runs, and counting those runs per length and level determines
every directional spectrum without a single morphological operation.
The agreement between this route and the streaming operators in
:mod:`spectrum` is the central cross-validation of the package, so
nothing here is shared with the fast path: runs are enumerated level by
level, the slow obvious way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dem import SE_FOR_DIRECTION, Dem, reflect_rows, row_interval, scan_lines, volume
from .morphology import resolve_se
from .spectrum import PatternSpectrum, discrete_volume_derivative, granulometric_index


@dataclass(frozen=True)
class RunTable:
    """Counts of maximal runs per (line, level, length) for one direction.

    ``counts[(i, h, t)]`` is the number of maximal runs exactly t cells
    long at threshold h on line i. For every line and level the counted
    lengths add back up to the number of cells at or above the level.
    """

    direction: str
    counts: dict

    def cells_at_level(self, line_index: int, h: int) -> int:
        return sum(t * c for (i, hh, t), c in self.counts.items()
                   if i == line_index and hh == h)

    def total_volume(self) -> int:
        return sum(t * c for (_, _, t), c in self.counts.items())

    def to_csv(self) -> str:
        lines = ["direction,line,h,t,count"]
        for (i, h, t) in sorted(self.counts):
            lines.append(f"{self.direction},{i},{h},{t},{self.counts[(i, h, t)]}")
        return "\n".join(lines) + "\n"


def run_table(dem: Dem, direction: str) -> RunTable:
    """Count maximal runs at every threshold on every scan line.

    Runs live inside segments (mask gaps break them). Levels sweep the
    full 1..max range of the raster; segments whose peak lies below a
    level simply stop contributing.
    """
    counts: dict[tuple[int, int, int], int] = {}
    for line in scan_lines(dem, direction):
        for seg in line.segments:
            top = max(seg.values)
            for h in range(1, top + 1):
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
    return RunTable(direction, counts)


def spectrum_from_runs(rt: RunTable, family: str = "nse",
                       se=None) -> PatternSpectrum:
    """Rebuild a directional spectrum from run counts alone.

    A run of length t is removed by a segment opening once the segment
    outgrows it, so the volume loss at segment length k is
    k * (number of runs of length k, over all lines and levels); for the
    element-sum family the length bin (2n+1, 2n+2) collapses onto scale
    n, the last scale whose 2n+1 window still fits.

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
    loss: dict[int, int] = {}
    for (_, _, t), c in rt.counts.items():
        loss[t] = loss.get(t, 0) + t * c
    v0 = sum(loss.values())
    if v0 <= 0:
        raise ValueError("run table carries no volume")
    tmax = max(loss)
    if family == "length":
        vols = [sum(v for t, v in loss.items() if t >= k) for k in range(1, tmax + 2)]
    elif family == "nse":
        vols = []
        n = 0
        while True:
            vols.append(sum(v for t, v in loss.items() if t >= 2 * n + 1))
            if vols[-1] == 0:
                break
            n += 1
    else:
        raise ValueError(f"unknown family {family!r}")
    name = se_name if family == "nse" else f"L:{rt.direction}"
    return PatternSpectrum(name, family, tuple(vols))


def run_profile_equal(dem1: Dem, dem2: Dem, direction: str) -> bool:
    """True iff the two rasters have entrywise identical run tables.

    This is a sufficient condition (not a necessary one) for their
    directional spectra to coincide.
    """
    return run_table(dem1, direction).counts == run_table(dem2, direction).counts


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
