#!/usr/bin/env python3
"""Time the hot kernels, and the loop kernels on both builds.

The windowed extremum is one numpy implementation on every build, so
its cases are timed once. The loop kernels (the single-pass spectrum
sweep, and with it the full five-element feature computation) have a
numba build and a plain-Python build; those cases run under both when
numba is installed and the outputs are checked for exact agreement.

Usage:
    python benchmarks/bench_kernels.py [--side N] [--levels L] [--repeats R]

The plain-Python sweep is a per-sample interpreter loop, so at large
sides it dominates; keep --side modest (default 160). Set
DEMGRANULO_NO_NUMBA=1 to make the plain-Python build the default
package-wide.
"""

import argparse
import time

from demgranulo import _kernels
from demgranulo.spectrum import normalized_mdgi, pattern_spectrum
from demgranulo.synth import synthetic_terrain


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def run(side, levels, repeats):
    dem = synthetic_terrain(side, levels=levels, seed=3)
    numpy_cases = [
        ("windowed min (k=8, rows)",
         lambda: _kernels.directional_extremum(dem.values, _kernels.ROW, 8, True)),
        ("windowed max (k=8, diag)",
         lambda: _kernels.directional_extremum(dem.values, _kernels.DIAG_UP, 8, False)),
    ]
    build_cases = [
        ("spectrum sweep (4 dirs)",
         lambda: [_kernels.directional_loss(dem.values, d) for d in range(4)]),
        ("full features (5 elements)",
         lambda: normalized_mdgi(dem)),
    ]

    print(f"raster {side}x{side}, {levels} levels, "
          f"{dem.cell_count} cells, best of {repeats}")
    print(f"{'case':<28s} {'numpy (ms)':>10s}")
    for label, fn in numpy_cases:
        t, _ = time_call(fn, repeats)
        print(f"{label:<28s} {t * 1000:>10.2f}")

    print(f"{'case':<28s} {'pure (ms)':>10s} {'jit (ms)':>10s} {'speedup':>8s} {'agree':>6s}")
    for label, fn in build_cases:
        if _kernels.HAS_NUMBA:
            _kernels.use_numba(True)
            fn()  # warm the JIT outside the timed region
            t_jit, out_jit = time_call(fn, repeats)
        else:
            t_jit, out_jit = float("nan"), None
        _kernels.use_numba(False)
        t_pure, out_pure = time_call(fn, repeats)
        _kernels.use_numba(True)

        agree = "-"
        if out_jit is not None:
            if isinstance(out_pure, list):
                agree = "yes" if all((a == b).all()
                                     for a, b in zip(out_pure, out_jit)) else "NO"
            else:
                agree = "yes" if out_pure == out_jit else "NO"
        speedup = t_pure / t_jit if t_jit and t_jit > 0 else float("nan")
        print(f"{label:<28s} {t_pure * 1000:>10.2f} {t_jit * 1000:>10.2f} "
              f"{speedup:>7.1f}x {agree:>6s}")

    # exact spectrum agreement across builds, all elements
    if _kernels.HAS_NUMBA:
        spectra = {}
        for flag in (True, False):
            _kernels.use_numba(flag)
            spectra[flag] = [pattern_spectrum(dem, se) for se in
                             ("B1", "B2", "B3", "B4", "B")]
        _kernels.use_numba(True)
        ok = spectra[True] == spectra[False]
        print(f"exact spectrum agreement across builds: {'yes' if ok else 'NO'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=160,
                        help="raster side length (default 160)")
    parser.add_argument("--levels", type=int, default=64,
                        help="elevation levels (default 64)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    args = parser.parse_args()
    if not _kernels.HAS_NUMBA:
        print("numba unavailable: timing the pure build only")
    run(args.side, args.levels, args.repeats)


if __name__ == "__main__":
    main()
