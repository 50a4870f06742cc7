#!/usr/bin/env python3
"""Time the hot kernels and the full five-element feature computation.

Every kernel is numpy code. The offset extremum serves only irregular
structuring elements, which the features never use; a 5-cell cross
times it.

Usage:
    python benchmarks/bench_kernels.py [--side N] [--levels L] [--repeats R]
"""

import argparse
import time

from demgranulo import _kernels
from demgranulo.spectrum import normalized_mdgi
from demgranulo.synth import synthetic_terrain


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


CROSS = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]


def run(side, levels, repeats):
    dem = synthetic_terrain(side, levels=levels, seed=3)
    cases = [
        ("windowed min (k=8, rows)",
         lambda: _kernels.directional_extremum(dem.values, _kernels.ROW, 8, True)),
        ("windowed max (k=8, diag)",
         lambda: _kernels.directional_extremum(dem.values, _kernels.DIAG_UP, 8, False)),
        ("offset min (5-cell cross)",
         lambda: _kernels.offset_extremum(dem.values, CROSS, True)),
        ("spectrum sweep (4 dirs)",
         lambda: [_kernels.directional_loss(dem.values, d) for d in range(4)]),
        ("full features (5 elements)",
         lambda: normalized_mdgi(dem)),
    ]

    print(f"raster {side}x{side}, {levels} levels, "
          f"{dem.cell_count} cells, best of {repeats}")
    print(f"{'case':<28s} {'numpy (ms)':>10s}")
    for label, fn in cases:
        print(f"{label:<28s} {time_call(fn, repeats) * 1000:>10.2f}")


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
