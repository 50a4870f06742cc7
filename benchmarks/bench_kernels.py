#!/usr/bin/env python3
"""Time the parsers, the hot kernels and the five-element features.

The parsers read the benchmark raster as rendered by
``Dem.to_fixture_csv`` and ``Dem.to_esri_ascii``, the fixture CSV once
more with a ``+`` before its first present cell, which sends it to the
by-line pass (a ``+`` before an absent first cell would be a bad token),
and the ESRI grid once more from a file, the path the CLI takes for an
``.asc`` input, and from a file whose first data row holds a
``1_0``-style token, which sends that row's block to the token-by-token
reader; both writers are timed too.

Every kernel is numpy code. The kernels run on the raster's levels,
``dem.values``, in the narrowest signed dtype that holds them (int16 for
up to 32767 levels), which the raster keeps and the spectra pass on. The
square spectrum B is the divisor of every feature; each scale erodes
the last scale's erosion by B and dilates the result, each a row and a
column pass. It is timed once more on a 48x48 raster, where the fixed
cost of each pass shows. The run-length count is the independent oracle's, which
``oracle-check`` sets against the spectra: it lays every line end to end
in the narrowest unsigned dtype that holds the levels and walks them.

Each case prints its best time and, from one more call that is not
timed, its tracemalloc peak: the memory it allocates beyond what it was
given, its result included.

Usage:
    python benchmarks/bench_kernels.py [--side N] [--levels L] [--repeats R]
"""

import argparse
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

from demgranulo import _kernels, oracle
from demgranulo._base import DIRECTIONS
from demgranulo.dem import parse_esri_ascii, parse_fixture_csv
from demgranulo.spectrum import normalized_mdgi, pattern_spectrum
from demgranulo.synth import synthetic_terrain


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def peak_call(fn):
    """Peak bytes traced while ``fn`` runs once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(side, levels, repeats):
    dem = synthetic_terrain(side, levels=levels, seed=3)
    small = synthetic_terrain(48, levels=levels, seed=3)
    arr = dem.values
    csv_text, esri_text = dem.to_fixture_csv(), dem.to_esri_ascii()
    signed_csv = re.sub(r"\d", r"+\g<0>", csv_text, count=1)
    head, nodata, rows = esri_text.partition("NODATA_value -9999\n")
    # an underscore after the first digit of the first multi-digit level
    underscored = head + nodata + re.sub(r"(?<![\d.-])(\d)(?=\d)", r"\1_", rows, count=1)
    esri_file = Path(tempfile.mkdtemp()) / "raster.asc"
    esri_file.write_text(esri_text, encoding="utf-8")
    by_token_file = esri_file.with_name("raster-by-token.asc")
    by_token_file.write_text(underscored, encoding="utf-8")
    cases = [
        ("parse fixture CSV", lambda: parse_fixture_csv(csv_text)),
        ("parse fixture CSV by line", lambda: parse_fixture_csv(signed_csv)),
        ("parse ESRI ASCII", lambda: parse_esri_ascii(esri_text)),
        ("parse ESRI ASCII file", lambda: parse_esri_ascii(esri_file)),
        ("parse ESRI ASCII file by token", lambda: parse_esri_ascii(by_token_file)),
        ("write fixture CSV", dem.to_fixture_csv),
        ("write ESRI ASCII", dem.to_esri_ascii),
        ("windowed min (k=8, rows)",
         lambda: _kernels.directional_extremum(arr, "row", 8, True)),
        ("windowed max (k=8, diag)",
         lambda: _kernels.directional_extremum(arr, "diag-up", 8, False)),
        ("square spectrum (B)", lambda: pattern_spectrum(dem, "B")),
        ("square spectrum (B, 48x48)", lambda: pattern_spectrum(small, "B")),
        ("spectrum sweep (4 dirs)",
         lambda: [_kernels.directional_loss(arr, d) for d in DIRECTIONS]),
        ("run-length count (4 dirs)",
         lambda: [oracle.run_lengths(dem, d) for d in DIRECTIONS]),
        ("full features (5 elements)", lambda: normalized_mdgi(dem)),
    ]

    print(f"raster {side}x{side}, {levels} levels, "
          f"{dem.cell_count} cells as {arr.dtype}, best of {repeats}")
    print(f"{'case':<30s} {'numpy (ms)':>10s} {'peak (KiB)':>10s}")
    try:
        for label, fn in cases:
            best = time_call(fn, repeats)
            print(f"{label:<30s} {best * 1000:>10.2f} {peak_call(fn) / 1024:>10.0f}")
    finally:
        esri_file.unlink()
        by_token_file.unlink()
        esri_file.parent.rmdir()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=160,
                        help="raster side length (default 160)")
    parser.add_argument("--levels", type=int, default=64,
                        help="elevation levels (default 64)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    args = parser.parse_args()
    run(args.side, args.levels, args.repeats)


if __name__ == "__main__":
    main()
