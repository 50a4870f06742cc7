"""Command-line batch workflows with reproducible CSV/JSON outputs.

Subcommands:

* ``spectrum``      volume curves and indices per raster and element
* ``features``      one feature row per raster (indices, Z, X, flags)
* ``oracle-check``  morphological vs run-counted spectra, exact compare
* ``train-tree``    fit the depth-capped CART on a feature CSV
* ``classify``      apply a stored tree to a feature CSV
* ``gen-fixtures``  emit the documented fixture rasters and demo data

Outputs are byte-identical across runs for the same configuration:
inputs are processed in sorted order, rationals are written as "a/b"
with the raw volume denominator, and reals carry 6 significant digits.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .classify import (predict, render_tree, train_cart, training_accuracy,
                       tree_from_json, tree_to_json)
from .dem import (DIRECTIONS, SE_FOR_DIRECTION, Dem, DemError, parse_esri_ascii,
                  parse_fixture_csv)
from .morphology import SE_NAMES
from .oracle import reflection_family, run_table, spectrum_from_runs
from .spectrum import (FeatureRecord, granulometric_index, high_low_direction,
                       normalized_mdgi, pattern_spectrum)
from .synth import (fictitious_dem, reflection_demo_dem, run_profile_pair,
                    synthetic_watershed_features, unipeak_demo_dem)

PAD_CONVENTION = "zero-outside-domain"
ENTROPY_LOG = "natural"


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _metadata(cfg) -> dict:
    return {
        "pad_convention": PAD_CONVENTION,
        "entropy_log": ENTROPY_LOG,
        "quantize_step": float(cfg.step),
        "quantize_datum": float(cfg.datum),
        "tool_version": __version__,
    }


@dataclass
class RunConfig:
    inputs: list[str]
    out_dir: Path
    step: float = 1.0
    datum: float = 0.0
    parallel: int = 1
    directions: tuple[str, ...] = DIRECTIONS
    max_oracle_work: int = 2_000_000
    corrupt_hook: bool = False

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not math.isfinite(self.datum):
            raise ValueError(f"datum must be finite, got {self.datum}")
        if self.parallel < 1:
            raise ValueError("parallelism degree must be >= 1")
        if not self.inputs:
            raise ValueError("at least one input is required")


def _expand_inputs(patterns) -> list[tuple[str, Path]]:
    """Resolve globs and sort by id (file stem, then full path).

    A wildcard pattern matching nothing contributes an empty set; a
    literal path is kept even when missing so it errors per-file.
    """
    paths = []
    for pat in patterns:
        hits = sorted(glob.glob(pat))
        if hits:
            paths.extend(Path(h) for h in hits)
        elif not any(ch in pat for ch in "*?["):
            paths.append(Path(pat))
    seen = {}
    for p in paths:
        ident = p.stem
        if ident in seen and seen[ident] != p:
            ident = str(p).replace("/", "_")
        seen[ident] = p
    return sorted(seen.items())


# Failures that end one input's job and leave the rest of the batch
# running; an oversized raster can overflow or exhaust memory.
_FILE_ERRORS = (DemError, ValueError, OSError, OverflowError, MemoryError)


def _load_dem(path: Path, cfg: RunConfig) -> Dem:
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return parse_fixture_csv(text)
    return parse_esri_ascii(text, step=cfg.step, datum=cfg.datum)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _spectrum_csv(ps) -> str:
    # probabilities written unreduced over the total volume so the file
    # states exactly (loss / V0); zero losses print as a bare 0
    lines = ["n,volume,p"]
    v0, scales = ps.volumes[0], ps.scales
    for i in range(ps.n0):
        lossv = ps.volumes[i] - ps.volumes[i + 1]
        p = f"{lossv}/{v0}" if lossv else "0"
        lines.append(f"{scales[i]},{ps.volumes[i]},{p}")
    return "\n".join(lines) + "\n"


def _spectrum_one(args):
    ident, path, cfg = args
    try:
        dem = _load_dem(path, cfg)
        outputs = {}
        gi = {}
        n0 = {}
        for se in SE_NAMES:
            ps = pattern_spectrum(dem, se)
            outputs[f"{ident}.spectrum.{se}.csv"] = _spectrum_csv(ps)
            gi[se] = float(_fmt(granulometric_index(ps)))
            n0[se] = ps.n0
        summary = {"id": ident, "gi": gi, "n0": n0, "metadata": None}
        return ident, outputs, summary, None
    except _FILE_ERRORS as exc:
        return ident, {}, None, f"{path}: {exc}"


def cmd_spectrum(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(ident, path, cfg) for ident, path in _expand_inputs(cfg.inputs)]
    results = _run_jobs(_spectrum_one, jobs, cfg.parallel)
    failures = 0
    for ident, outputs, summary, error in results:
        if error is not None:
            failures += 1
            print(f"error: {error}", file=sys.stderr)
            continue
        for name, text in sorted(outputs.items()):
            (cfg.out_dir / name).write_text(text)
        summary["metadata"] = _metadata(cfg)
        (cfg.out_dir / f"{ident}.summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

_FEATURE_COLUMNS = (["id"] + [f"gi_{se.lower()}" for se in SE_NAMES]
                    + [f"z{i}" for i in range(1, 5)]
                    + [f"x{i}" for i in range(16)]
                    + ["degenerate", "high", "low"])


def _features_one(args):
    ident, path, cfg = args
    try:
        dem = _load_dem(path, cfg)
        rec = normalized_mdgi(dem, watershed_id=ident)
        hi, lo = high_low_direction(rec.z)
        row = ([ident] + [_fmt(rec.gi[se]) for se in SE_NAMES]
               + [_fmt(v) for v in rec.z] + [_fmt(v) for v in rec.x]
               + ["1" if rec.degenerate else "0", hi, lo])
        return ident, row, None
    except _FILE_ERRORS as exc:
        return ident, None, f"{path}: {exc}"


def cmd_features(cfg: RunConfig, output: Path) -> int:
    output.parent.mkdir(parents=True, exist_ok=True)
    jobs = [(ident, path, cfg) for ident, path in _expand_inputs(cfg.inputs)]
    results = _run_jobs(_features_one, jobs, cfg.parallel)
    failures = 0
    lines = [",".join(_FEATURE_COLUMNS)]
    for ident, row, error in results:
        if error is not None:
            failures += 1
            print(f"error: {error}", file=sys.stderr)
            continue
        lines.append(",".join(row))
    output.write_text("\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def _oracle_one(args):
    ident, path, cfg = args
    try:
        dem = _load_dem(path, cfg)
        work = dem.height * dem.width * max(dem.zmax, 1)
        if work > cfg.max_oracle_work:
            return ident, [(ident, "-", "-", "SKIP",
                            f"work {work} exceeds cap {cfg.max_oracle_work}")], None
        rows = []
        for direction in cfg.directions:
            rt = run_table(dem, direction)
            se = SE_FOR_DIRECTION[direction]
            for family in ("nse", "length"):
                fast = pattern_spectrum(dem, se, family=family)
                ref = spectrum_from_runs(rt, family)
                probs = list(fast.probs)
                if cfg.corrupt_hook and probs:
                    probs[0] += Fraction(1, fast.volumes[0] + 1)  # test hook
                verdict, detail = "PASS", ""
                if probs != list(ref.probs):
                    first = next(i for i, (a, b) in enumerate(
                        zip(probs + [None], list(ref.probs) + [None])) if a != b)
                    verdict, detail = "FAIL", f"first mismatch at index {first}"
                rows.append((ident, direction, family, verdict, detail))
        return ident, rows, None
    except _FILE_ERRORS as exc:
        return ident, [], f"{path}: {exc}"


def cmd_oracle_check(cfg: RunConfig, report_path: Path | None) -> int:
    jobs = [(ident, path, cfg) for ident, path in _expand_inputs(cfg.inputs)]
    results = _run_jobs(_oracle_one, jobs, cfg.parallel)
    failures = 0
    lines = ["id,direction,family,verdict,detail"]
    for ident, rows, error in results:
        if error is not None:
            failures += 1
            print(f"error: {error}", file=sys.stderr)
            continue
        for row in rows:
            if row[3] == "FAIL":
                failures += 1
            lines.append(",".join(row))
            print(" ".join(filter(None, row)))
    if report_path is not None:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text("\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train-tree / classify
# ---------------------------------------------------------------------------


def _read_feature_csv(path: Path, label_column: str | None):
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty feature CSV")
    header = lines[0].split(",")
    try:
        xcols = [header.index(f"x{i}") for i in range(16)]
        id_col = header.index("id")
    except ValueError as exc:
        raise ValueError(f"{path}: missing feature columns ({exc})") from None
    label_col = None
    if label_column is not None:
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_col = header.index(label_column)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(cells)} cells, "
                             f"expected {len(header)}")
        try:
            x = tuple(float(cells[c]) for c in xcols)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} has a non-numeric feature")
        label = cells[label_col] if label_col is not None else None
        records.append(FeatureRecord(watershed_id=cells[id_col], x=x, label=label))
    return records


def cmd_train_tree(features: Path, label_column: str, max_depth: int,
                   out_dir: Path) -> int:
    records = _read_feature_csv(features, label_column)
    tree = train_cart(records, max_depth)
    acc = training_accuracy(tree, records)
    hits = int(acc * len(records))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "tree.json").write_text(tree_to_json(tree))
    (out_dir / "tree.txt").write_text(render_tree(tree))
    print(f"records {len(records)} depth {tree.depth()} "
          f"accuracy {hits}/{len(records)} ({_fmt(float(acc))})")
    return 0


def cmd_classify(tree_path: Path, features: Path, output: Path) -> int:
    tree = tree_from_json(tree_path.read_text())
    records = _read_feature_csv(features, None)
    output.parent.mkdir(parents=True, exist_ok=True)
    lines = ["id,label"]
    for rec in records:
        lines.append(f"{rec.watershed_id},{predict(tree, rec)}")
    output.write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures
# ---------------------------------------------------------------------------


def cmd_gen_fixtures(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted = []

    def emit(name: str, text: str):
        (out_dir / name).write_text(text)
        emitted.append(name)

    fict = fictitious_dem()
    emit("fictitious.csv", fict.to_fixture_csv())
    emit("fictitious.asc", fict.to_esri_ascii())
    demo = reflection_demo_dem()
    emit("reflection_base.csv", demo.to_fixture_csv())
    for i, member in enumerate(reflection_family(demo)):
        emit(f"reflection_{i:02d}.csv", member.to_fixture_csv())
    pair_a, pair_b = run_profile_pair()
    emit("run_pair_a.csv", pair_a.to_fixture_csv())
    emit("run_pair_b.csv", pair_b.to_fixture_csv())
    emit("unipeak.csv", unipeak_demo_dem().to_fixture_csv())
    emit("constant.csv", Dem.from_rows([[1, 1, 1, 1, 1]]).to_fixture_csv())

    records = synthetic_watershed_features()
    lines = [",".join(["id"] + [f"x{i}" for i in range(16)] + ["label"])]
    for rec in records:
        lines.append(",".join([rec.watershed_id] + [_fmt(v) for v in rec.x]
                              + [rec.label]))
    emit("features_demo.csv", "\n".join(lines) + "\n")

    for name in emitted:
        print(name)
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _run_jobs(fn, jobs, parallel):
    """Run per-input jobs, serially or in processes; order is preserved."""
    if parallel <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # imported here, so serial runs never load the process pool machinery
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(fn, jobs))


def _add_batch_args(sub):
    sub.add_argument("inputs", nargs="+", help="input rasters (.asc/.csv), globs allowed")
    sub.add_argument("--out-dir", type=Path, default=None,
                     help="output directory (default out)")
    sub.add_argument("--step", type=float, default=None,
                     help="quantization level width for .asc inputs (default 1)")
    sub.add_argument("--datum", type=float, default=None,
                     help="elevation of level 1 for .asc inputs (default 0)")
    sub.add_argument("--parallel", type=int, default=None,
                     help="process-level parallelism (default 1)")
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file with defaults; explicit flags win")


def _build_config(args) -> RunConfig:
    file_cfg = {}
    if getattr(args, "config", None) is not None:
        file_cfg = json.loads(args.config.read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")

    def pick(name, default):
        val = getattr(args, name, None)
        if val is not None:
            return val
        return file_cfg.get(name, default)

    def number(name, kind, default):
        val = pick(name, default)
        try:
            return kind(val)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a number, got {val!r}") from None

    directions = pick("directions", None)
    if isinstance(directions, str):
        directions = tuple(d.strip() for d in directions.split(",") if d.strip())
    elif directions is not None and not isinstance(directions, list):
        raise ValueError("directions must be a string or a list of names")
    for d in directions or ():
        if d not in DIRECTIONS:
            raise ValueError(f"unknown direction {d!r}")
    return RunConfig(
        inputs=list(args.inputs),
        out_dir=Path(pick("out_dir", "out")),
        step=number("step", float, 1.0),
        datum=number("datum", float, 0.0),
        parallel=number("parallel", int, 1),
        directions=tuple(directions) if directions else DIRECTIONS,
        max_oracle_work=number("max_oracle_work", int, 2_000_000),
        corrupt_hook=bool(getattr(args, "self_test_corrupt", False)),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demgranulo",
        description="Directional granulometric indices on masked elevation rasters")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="volume curves and indices per raster")
    _add_batch_args(sp)

    ft = subs.add_parser("features", help="feature rows per raster")
    _add_batch_args(ft)
    ft.add_argument("--output", type=Path, default=None,
                    help="feature CSV path (default <out-dir>/features.csv)")

    oc = subs.add_parser("oracle-check",
                         help="compare streaming and run-counted spectra")
    _add_batch_args(oc)
    oc.add_argument("--report", type=Path, default=None, help="also write a CSV report")
    oc.add_argument("--directions", default=None,
                    help="comma-separated subset of row,column,diag-down,diag-up")
    oc.add_argument("--max-oracle-work", type=int, default=None,
                    help="skip rasters with cells*levels beyond this")
    oc.add_argument("--self-test-corrupt", action="store_true",
                    help=argparse.SUPPRESS)

    tt = subs.add_parser("train-tree", help="fit a depth-capped tree on features")
    tt.add_argument("features", type=Path)
    tt.add_argument("--label-column", default="label")
    tt.add_argument("--max-depth", type=int, default=2)
    tt.add_argument("--out-dir", type=Path, default=Path("out"))

    cl = subs.add_parser("classify", help="apply a stored tree to features")
    cl.add_argument("features", type=Path)
    cl.add_argument("--tree", type=Path, required=True)
    cl.add_argument("--output", type=Path, default=Path("predictions.csv"))

    gf = subs.add_parser("gen-fixtures", help="emit documented fixture rasters")
    gf.add_argument("--out-dir", type=Path, default=Path("fixtures"))

    args = parser.parse_args(argv)
    try:
        if args.command == "spectrum":
            return cmd_spectrum(_build_config(args))
        if args.command == "features":
            cfg = _build_config(args)
            output = args.output or (cfg.out_dir / "features.csv")
            return cmd_features(cfg, output)
        if args.command == "oracle-check":
            return cmd_oracle_check(_build_config(args), args.report)
        if args.command == "train-tree":
            return cmd_train_tree(args.features, args.label_column,
                                  args.max_depth, args.out_dir)
        if args.command == "classify":
            return cmd_classify(args.tree, args.features, args.output)
        if args.command == "gen-fixtures":
            return cmd_gen_fixtures(args.out_dir)
    except (DemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
