"""Correctness gate: reference spectra and checks on CLI outputs.

Nothing here touches ``demgranulo._kernels`` or ``demgranulo.spectrum``.
Directional spectra come from threshold run counting fed to the
package's independent oracle, ``spectrum_from_runs``: through
``run_table`` itself where that is cheap, and through a numpy run
counter (same definition, vectorized per level) on the large terrains,
where the pure-Python ``run_table`` would take tens of seconds. The
square-element spectrum comes from numpy sliding-window minima and
maxima with zero padding. References are computed once per run,
outside any timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from demgranulo.dem import Dem
from demgranulo.oracle import RunTable, run_table, spectrum_from_runs

from workloads import Batch, Raster

DIRECTION_OF = {"B1": "diag-up", "B2": "column", "B3": "diag-down", "B4": "row"}
DIRECTIONAL = ("B1", "B2", "B3", "B4")
ELEMENTS = ("B1", "B2", "B3", "B4", "B")
DIRECTIONS = ("row", "column", "diag-down", "diag-up")
FAMILIES = ("nse", "length")

# run_table visits cells x levels values in Python; above this it is
# replaced by the numpy run counter.
EXACT_RUN_TABLE_WORK = 200_000
REL_TOL = 1e-5  # outputs carry 6 significant digits


@dataclass(frozen=True)
class Spectrum:
    """Scales and surviving volumes, ending at the first zero volume."""

    scales: tuple[int, ...]
    volumes: tuple[int, ...]

    @property
    def probs(self) -> tuple[Fraction, ...]:
        v0 = self.volumes[0]
        return tuple(Fraction(a - b, v0)
                     for a, b in zip(self.volumes, self.volumes[1:]))

    @property
    def n0(self) -> int:
        return len(self.volumes) - 1

    def entropy(self) -> float:
        acc = 0.0
        for p in self.probs:
            if p > 0:
                pf = float(p)
                acc -= pf * math.log(pf)
        return acc

    def csv(self) -> str:
        """The ``spectrum`` command's CSV: unreduced loss/V0 per scale."""
        v0 = self.volumes[0]
        lines = ["n,volume,p"]
        for i in range(self.n0):
            loss = self.volumes[i] - self.volumes[i + 1]
            lines.append(f"{self.scales[i]},{self.volumes[i]},"
                         f"{f'{loss}/{v0}' if loss else '0'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Directional references: threshold run counting
# ---------------------------------------------------------------------------


def line_matrix(values: np.ndarray, direction: str) -> np.ndarray:
    """Scan lines of ``direction`` as rows, padded with 0 (never a run)."""
    if direction == "row":
        return values
    if direction == "column":
        return values.T
    h, w = values.shape
    r = np.broadcast_to(np.arange(h)[None, :], (h + w - 1, h))
    lines = np.arange(h + w - 1)[:, None]
    c = r + lines - (h - 1) if direction == "diag-down" else lines - r
    inside = (c >= 0) & (c < w)
    return np.where(inside, values[r, np.clip(c, 0, w - 1)], 0)


def run_length_counts(values: np.ndarray, direction: str) -> np.ndarray:
    """counts[t]: maximal runs of exactly t cells at any level >= 1."""
    lines = line_matrix(values, direction)
    n, m = lines.shape
    counts = np.zeros(m + 1, dtype=np.int64)
    above = np.zeros((n, m + 2), dtype=np.int8)
    for h in range(1, int(values.max()) + 1):
        above[:, 1:-1] = lines >= h
        edges = np.diff(above, axis=1).ravel()
        lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        counts += np.bincount(lengths, minlength=m + 1)
    return counts


def directional_spectrum(r: Raster, se: str) -> Spectrum:
    """Element-sum spectrum of a directional element, from run counts."""
    direction = DIRECTION_OF[se]
    if r.cells * r.levels <= EXACT_RUN_TABLE_WORK:
        rt = run_table(Dem(r.values, r.mask), direction)
    else:
        # keys are (line, level, length); spectrum_from_runs reads only
        # the length, so counts summed over lines and levels suffice
        counts = run_length_counts(r.values, direction)
        rt = RunTable(direction, {(0, 0, t): int(c)
                                  for t, c in enumerate(counts) if c})
    ps = spectrum_from_runs(rt, "nse")
    return Spectrum(ps.scales, ps.volumes)


# ---------------------------------------------------------------------------
# Square reference: sliding windows with zero padding
# ---------------------------------------------------------------------------


def _window(arr: np.ndarray, k: int, axis: int, minimum: bool) -> np.ndarray:
    pad = [(0, 0), (0, 0)]
    pad[axis] = (k, k)
    view = sliding_window_view(np.pad(arr, pad), 2 * k + 1, axis=axis)
    return view.min(axis=-1) if minimum else view.max(axis=-1)


def square_opening(values: np.ndarray, k: int) -> np.ndarray:
    """Opening by the (2k+1)^2 square; reads outside the raster are 0."""
    eroded = _window(_window(values, k, 1, True), k, 0, True)
    return _window(_window(eroded, k, 0, False), k, 1, False)


def square_spectrum(r: Raster) -> Spectrum:
    vols = [int(r.values.sum())]
    n = 1
    while vols[-1] > 0:
        vols.append(int(square_opening(r.values, n)[r.mask].sum()))
        n += 1
    return Spectrum(tuple(range(len(vols))), tuple(vols))


def references(batch: Batch) -> dict:
    """Per raster id, the five element spectra; none for oracle-check,
    whose reports carry their own comparison."""
    if batch.workload == "oracle-check":
        return {}
    refs = {}
    for r in batch.rasters:
        spectra = {se: directional_spectrum(r, se) for se in DIRECTIONAL}
        spectra["B"] = square_spectrum(r)
        refs[r.ident] = spectra
    return refs


# ---------------------------------------------------------------------------
# Feature rows
# ---------------------------------------------------------------------------


def feature_values(spectra: dict) -> dict:
    """Expected feature row fields for one raster, unrounded."""
    gi = {se: spectra[se].entropy() for se in ELEMENTS}
    if gi["B"] <= 0.0:
        z = [0.0] * 4
        degenerate = "1"
    else:
        z = [gi[se] / gi["B"] for se in DIRECTIONAL]
        degenerate = "0"
    x = [0.0] * 16
    for rank, i in enumerate(sorted(range(4), key=lambda i: (z[i], i))):
        x[i * 4 + rank] = z[i]
    row = {f"gi_{se.lower()}": gi[se] for se in ELEMENTS}
    row.update({f"z{i + 1}": v for i, v in enumerate(z)})
    row.update({f"x{i}": v for i, v in enumerate(x)})
    row["degenerate"] = degenerate
    row["high"] = DIRECTIONAL[max(range(4), key=lambda i: (z[i], -i))]
    row["low"] = DIRECTIONAL[min(range(4), key=lambda i: (z[i], i))]
    return row


def _close(text: str, expected: float) -> bool:
    try:
        got = float(text)
    except ValueError:
        return False
    return math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=1e-12)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]] | None:
    if not path.is_file():
        return None
    lines = [ln.split(",") for ln in path.read_text().splitlines() if ln]
    return (lines[0], lines[1:]) if lines else None


def _predict(tree: dict, x: list[float]) -> str:
    node = tree["nodes"][0]
    while "leaf" not in node:
        go = "left" if x[node["feature"]] <= node["threshold"] else "right"
        node = tree["nodes"][node[go]]
    return node["leaf"]


def check_features(batch: Batch, out: Path, refs: dict) -> dict:
    """Failures by raster id for features.csv and predictions.csv."""
    idents = [r.ident for r in batch.rasters]
    table = _read_csv(out / "features.csv")
    if table is None:
        return {i: "features.csv missing" for i in idents}
    header, rows = table
    by_id = {row[0]: dict(zip(header, row)) for row in rows if len(row) == len(header)}
    failures = {}
    for ident in idents:
        row = by_id.get(ident)
        if row is None:
            failures[ident] = "no feature row"
            continue
        for col, want in feature_values(refs[ident]).items():
            got = row.get(col)
            ok = got == want if isinstance(want, str) else got is not None and _close(got, want)
            if not ok:
                failures[ident] = f"feature {col}: got {got}, expected {want}"
                break

    tree = json.loads(batch.tree.read_text())
    table = _read_csv(out / "predictions.csv")
    labels = dict(row[:2] for row in table[1] if len(row) == 2) if table else {}
    for ident in idents:
        row = by_id.get(ident)
        if ident in failures or row is None:
            continue
        x = [float(row[f"x{i}"]) for i in range(16)]
        want = _predict(tree, x)
        if labels.get(ident) != want:
            failures[ident] = f"label {labels.get(ident)}, expected {want}"
    return failures


# ---------------------------------------------------------------------------
# oracle-check report
# ---------------------------------------------------------------------------


def check_oracle(batch: Batch, out: Path) -> dict:
    """Every raster must PASS in every direction and family; SKIP fails."""
    table = _read_csv(out / "oracle.csv")
    idents = [r.ident for r in batch.rasters]
    if table is None:
        return {i: "oracle.csv missing" for i in idents}
    verdicts = {}
    for row in table[1]:
        if len(row) >= 4:
            verdicts[(row[0], row[1], row[2])] = row[3]
    failures = {}
    for ident in idents:
        for direction in DIRECTIONS:
            for family in FAMILIES:
                got = verdicts.get((ident, direction, family))
                if got != "PASS":
                    failures[ident] = f"{direction}/{family}: {got or 'missing'}"
    return failures


def oracle_counts(out: Path) -> tuple[int, int]:
    """(checks, PASS verdicts) in an oracle-check report."""
    table = _read_csv(out / "oracle.csv")
    if table is None:
        return 0, 0
    verdicts = [row[3] for row in table[1] if len(row) >= 4]
    checks = sum(v in ("PASS", "FAIL") for v in verdicts)
    return checks, verdicts.count("PASS")


# ---------------------------------------------------------------------------
# spectrum outputs
# ---------------------------------------------------------------------------


def check_spectrum(batch: Batch, out: Path, refs: dict) -> dict:
    """Spectrum CSVs must match the references exactly, as rationals."""
    failures = {}
    for r in batch.rasters:
        spectra = refs[r.ident]
        for se in ELEMENTS:
            path = out / f"{r.ident}.spectrum.{se}.csv"
            if not path.is_file() or path.read_text() != spectra[se].csv():
                failures[r.ident] = f"spectrum {se} differs from reference"
                break
        if r.ident in failures:
            continue
        path = out / f"{r.ident}.summary.json"
        try:
            summary = json.loads(path.read_text())
            ok = summary["id"] == r.ident and all(
                summary["n0"][se] == spectra[se].n0
                and math.isclose(summary["gi"][se], spectra[se].entropy(),
                                 rel_tol=REL_TOL, abs_tol=1e-12)
                for se in ELEMENTS)
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failures[r.ident] = "summary differs from reference"
    return failures


def check(batch: Batch, out: Path, refs: dict) -> dict:
    """Failures by raster id for one round's outputs in ``out``."""
    if batch.workload == "features-terrain":
        return check_features(batch, out, refs)
    if batch.workload == "oracle-check":
        return check_oracle(batch, out)
    return check_spectrum(batch, out, refs)


def snapshot(out: Path) -> dict[str, bytes]:
    """Every output file under ``out``, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
