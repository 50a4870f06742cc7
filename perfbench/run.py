#!/usr/bin/env python3
"""End-to-end benchmark of the demgranulo CLI on the pure-Python build.

Usage (from the repository root)::

    python3 perfbench/run.py --workload features-terrain --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` runs the real CLI as child processes, one at a time
(closed loop, one client, ``--parallel 1``), and reports the end-to-end
metrics: ``cells_per_ref``, ``peak_rss_mb``, ``setup_s`` and ``ok_frac``.
The children are spawned by ``launcher.py`` and every round is timed
next to the fixed loop in ``reference.py``.
``--trace 1`` calls ``cli.main`` in-process, alternating untraced rounds
with rounds under :class:`tracer.Tracer`, and reports the per-layer
metrics. Every round's outputs go through the correctness gate in
``gate.py``; a traced round must also match its untraced twin byte for
byte.

The inputs are generated from ``--seed`` (default 1). Seed 20261017 is
held out: a claimed gain must also hold there. Every child runs with
``DEMGRANULO_NO_NUMBA=1``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the backend, versions, machine and inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 11


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env["DEMGRANULO_NO_NUMBA"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(launcher, argv: list[str], work: Path) -> tuple[float, int, int, str]:
    """Run one CLI child to completion: (wall s, max RSS KiB, exit code, stderr)."""
    log = work / "child.err"
    wall, rss, code = launcher.run([sys.executable, "-m", "demgranulo.cli", *argv], log)
    return wall, rss, code, log.read_text()


def _keep_going(start: float, last: float, seconds: float) -> bool:
    """Another round fits if the last one, repeated, ends within budget."""
    return time.perf_counter() - start + last <= seconds


def _errors_by_input(batch, stderr: str) -> dict:
    """Map the CLI's per-file ``error: <path>: ...`` lines to raster ids."""
    failures = {}
    for path, r in zip(batch.files, batch.rasters):
        for line in stderr.splitlines():
            if line.startswith(f"error: {path}:"):
                failures[r.ident] = line
    return failures


def run_e2e(batch, refs, seconds: float) -> tuple[dict, int, int]:
    import gate
    from launcher import Launcher
    from reference import Reference
    from workloads import cli_argvs

    with Launcher(batch.work, _child_env()) as launcher:
        setup = []
        for _ in range(SETUP_REPEATS):
            wall, _, code, err = spawn(launcher, ["--version"], batch.work)
            if code != 0:
                raise RuntimeError(f"demgranulo --version failed: {err.strip()}")
            setup.append(wall)

        reference = Reference()
        ref_before = reference.seconds()
        rates, ref_units, peak_kib, attempted, failed = [], [], 0, 0, 0
        start = time.perf_counter()
        last = 0.0
        n = 0
        while n == 0 or _keep_going(start, last, seconds):
            round_start = time.perf_counter()
            out = batch.work / f"round{n}"
            out.mkdir()
            wall_sum, failures = 0.0, {}
            for argv in cli_argvs(batch, out):
                wall, rss, code, err = spawn(launcher, argv, batch.work)
                wall_sum += wall
                peak_kib = max(peak_kib, rss)
                if code != 0:
                    failures.update(_errors_by_input(batch, err) or
                                    {r.ident: f"exit {code}" for r in batch.rasters})
            ref_after = reference.seconds()
            failures.update(gate.check(batch, out, refs))
            _report(failures)
            attempted += len(batch.rasters)
            failed += len(failures)
            rates.append(batch.cells / wall_sum)
            ref_units.append(wall_sum / ((ref_before + ref_after) / 2))
            ref_before = ref_after
            shutil.rmtree(out)
            last = time.perf_counter() - round_start
            n += 1

    metrics = {
        "cells_per_ref": (n * batch.cells / sum(ref_units), "cells/ref"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    print(f"rounds {n}, cells {batch.cells}, cells/s per round "
          f"{[round(r) for r in rates]} (median {statistics.median(rates):.0f}), "
          f"cells/ref per round {[round(batch.cells / u) for u in ref_units]}, "
          f"setup s {[round(t, 3) for t in setup]}", file=sys.stderr)
    return metrics, attempted, failed


def _in_process_round(batch, out: Path, tracer=None) -> tuple[float, dict]:
    """One round through ``cli.main`` in this process; (wall s, failures)."""
    from demgranulo import cli
    from workloads import cli_argvs

    out.mkdir()
    failures = {}
    sink_out, sink_err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        for argv in cli_argvs(batch, out):
            code = tracer.run_cli(argv) if tracer else cli.main(argv)
            if code != 0:
                failures.update({r.ident: f"exit {code}" for r in batch.rasters})
    wall = time.perf_counter() - t0
    failures.update(_errors_by_input(batch, sink_err.getvalue()))
    return wall, failures


def run_traced(batch, refs, seconds: float) -> tuple[dict, int, int]:
    import demgranulo
    import gate
    from tracer import Tracer

    if demgranulo.numba_active():
        raise RuntimeError("numba kernels are active; the benchmark measures the pure build")

    plain_walls, traced_walls, per_round = [], [], []
    attempted, failed = 0, 0
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n == 0 or _keep_going(start, last, seconds):
        plain_out = batch.work / f"plain{n}"
        traced_out = batch.work / f"traced{n}"
        plain_wall, plain_fail = _in_process_round(batch, plain_out)
        with Tracer() as tracer:
            traced_wall, traced_fail = _in_process_round(batch, traced_out, tracer)
        plain_fail.update(gate.check(batch, plain_out, refs))
        traced_fail.update(gate.check(batch, traced_out, refs))
        if gate.snapshot(plain_out) != gate.snapshot(traced_out):
            traced_fail.update({r.ident: "traced outputs differ from untraced"
                                for r in batch.rasters})
        _report(plain_fail)
        _report(traced_fail)
        attempted += 2 * len(batch.rasters)
        failed += len(plain_fail) + len(traced_fail)
        metrics = tracer.metrics()
        checks, passes = gate.oracle_counts(traced_out)
        metrics["oracle.checks"] = checks
        metrics["oracle.pass_frac"] = passes / checks if checks else 0.0
        per_round.append(metrics)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        shutil.rmtree(plain_out)
        shutil.rmtree(traced_out)
        last = plain_wall + traced_wall
        n += 1

    # counts repeat exactly across rounds; times are medians
    metrics = {name: (statistics.median(m[name] for m in per_round), _unit(name))
               for name in per_round[0]}
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    print(f"rounds {n} traced + {n} untraced, cells {batch.cells}", file=sys.stderr)
    return metrics, attempted, failed


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    return "count"


def _report(failures: dict) -> None:
    for ident, why in sorted(failures.items()):
        print(f"incorrect: {ident}: {why}", file=sys.stderr)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demgranulo" / "cli.py").is_file():
        print(f"error: no demgranulo sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["DEMGRANULO_NO_NUMBA"] = "1"
    sys.path.insert(0, str(SRC))
    # one core for this process, the launcher and every child, so the
    # reference loop sees the same core as the rounds it is timed next to
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy
    import demgranulo
    import gate
    from workloads import write_batch

    if Path(demgranulo.__file__).resolve().parent != SRC / "demgranulo":
        print(f"error: imported demgranulo from {demgranulo.__file__}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        batch = write_batch(args.workload, args.seed, work)
        refs = gate.references(batch)
        run = run_traced if args.trace else run_e2e
        metrics, attempted, failed = run(batch, refs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    info = {
        "workload": args.workload,
        "backend": "numba" if demgranulo.numba_active() else "pure",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu": _cpu_model(),
        "inputs": batch.describe(),
        "held_out_seed": HELD_OUT_SEED,
    }
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
