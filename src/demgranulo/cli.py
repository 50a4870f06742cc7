"""Command-line batch workflows with reproducible CSV/JSON outputs.

Subcommands:

* ``spectrum``      volume curves and indices per raster and element
* ``features``      one feature row per raster (indices, Z, X, flags)
* ``oracle-check``  morphological vs run-counted volume sequences, exact compare
* ``train-tree``    fit the depth-capped CART on a feature CSV
* ``classify``      apply a stored tree to a feature CSV
* ``gen-fixtures``  emit the documented fixture rasters and demo data

Outputs are byte-identical across runs for the same configuration:
inputs are processed in sorted order, rationals are written as "a/b"
with the raw volume denominator, and reals carry 6 significant digits.

Each command imports only the modules it calls, and binds the names it
calls from them into this module when it starts: ``spectrum`` and
``features`` bind ``dem`` and ``spectrum``, ``oracle-check`` also
``oracle``, ``gen-fixtures`` also ``oracle`` and ``synth``, and
``train-tree`` and ``classify`` bind ``classify`` alone, so they and
``--version`` start without numpy.

The standard library is imported the same way: ``json`` by the two
functions here that use it (``--config`` and the ``spectrum`` summaries)
and by ``classify`` for tree files, ``fractions`` by tree training
alone, and ``dataclasses`` by no module of the package. So no command
loads ``dataclasses``, ``classify`` and ``--version`` load no
``fractions`` or ``typing``, ``train-tree`` no ``typing``, and the batch
commands no ``fractions`` (nor, but for ``spectrum``, ``json``).

Every file is read and written as UTF-8, whatever the locale. A file
name the locale cannot decode reaches ``sys.argv`` with lone surrogates
in it; its id keeps them, and they are written out as the name's own
bytes, but for the ``spectrum`` summary's JSON text, which holds the
name's bytes decoded as UTF-8.
"""

from __future__ import annotations

import argparse
import gc
import glob
import math
import os
import sys
from functools import partial
from importlib import import_module
from pathlib import Path

from . import __version__
from ._base import (DIRECTIONS, SE_FOR_DIRECTION, SE_NAMES, DemError, FeatureRecord,
                    Record, _check_step_and_datum)

# The names the commands call, by the module they come from; _bind()
# puts them into this module's globals when a command starts.
_NAMES = {
    "classify": ("predict", "render_tree", "train_cart", "training_accuracy",
                 "tree_from_json", "tree_to_json"),
    "dem": ("Dem", "parse_esri_ascii", "parse_fixture_csv"),
    "oracle": ("_held_levels", "reflection_family", "run_lengths", "run_table",
               "spectrum_from_runs"),
    "spectrum": ("granulometric_index", "high_low_direction", "normalized_mdgi",
                 "pattern_spectra", "pattern_spectrum"),
    "synth": ("fictitious_dem", "reflection_demo_dem", "run_profile_pair",
              "synthetic_watershed_features", "unipeak_demo_dem"),
}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind each of their ``_NAMES`` not bound yet.

    The commands call these names through this module's globals, and
    ``perfbench/tracer.py`` swaps some of them for timing wrappers;
    ``setdefault`` keeps a wrapper that is already installed.
    """
    bound = globals()
    for module in modules:
        mod = import_module(f".{module}", __package__)
        for name in _NAMES[module]:
            bound.setdefault(name, getattr(mod, name))


def __getattr__(name):
    # module attribute access (cli.predict, cli.run_table) binds every name
    if any(name in names for names in _NAMES.values()):
        _bind(*_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


PAD_CONVENTION = "zero-outside-domain"
ENTROPY_LOG = "natural"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


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


class RunConfig(Record):
    """The options of one batch run, checked.

    ``OPTIONS`` holds each option's name and its only default; every
    option is a keyword after ``inputs``, and an unknown one raises
    ``TypeError``. ``directions`` may be a comma-separated string or a
    list (``None`` for all four), ``out_dir`` a string, and a number
    anything ``float`` or ``int`` takes but a bool or, for a count, a
    fraction; each is stored as its default's type. The first fault
    raises ``ValueError``, checked in this order: directions, out_dir,
    the number types, step and datum values, parallel, max_oracle_work,
    inputs.
    """

    OPTIONS = {
        "out_dir": Path("out"),
        "step": 1.0,
        "datum": 0.0,
        "parallel": 1,
        "directions": DIRECTIONS,
        # cells x held levels: on a 2-vCPU Xeon the run count takes about
        # 1 s at the cap on a terrain, about 3 s for 3,000 random levels
        "max_oracle_work": 300_000_000,
        "corrupt_hook": False,
    }
    _fields = ("inputs", *OPTIONS)

    def __init__(self, inputs: list[str], **options):
        for name in options:
            if name not in self.OPTIONS:
                raise TypeError(f"RunConfig got an unexpected keyword argument {name!r}")
        self.inputs = inputs
        for name, default in self.OPTIONS.items():
            setattr(self, name, options.get(name, default))
        directions = self.directions
        if directions is None:  # a config's null keeps the default
            directions = DIRECTIONS
        elif isinstance(directions, str):
            directions = [d.strip() for d in directions.split(",") if d.strip()]
        elif not isinstance(directions, (list, tuple)):
            raise ValueError("directions must be a string or a list of names")
        if not directions:
            # an empty subset is an error, not the default of all four
            raise ValueError("directions names no direction")
        for i, d in enumerate(directions):
            if d not in DIRECTIONS:
                raise ValueError(f"unknown direction {d!r}")
            if d in directions[:i]:
                raise ValueError(f"directions names {d} twice")
        self.directions = tuple(directions)
        if not isinstance(self.out_dir, (str, Path)):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        self.out_dir = Path(self.out_dir)
        for name, kind in (("step", float), ("datum", float),
                           ("parallel", int), ("max_oracle_work", int)):
            # a JSON true is no number, and a count takes no fraction; int()
            # and float() would take true as 1 and cut 2.5 down to 2
            val = getattr(self, name)
            try:
                if isinstance(val, bool) or (
                        kind is int and isinstance(val, float) and not val.is_integer()):
                    raise ValueError
                setattr(self, name, kind(val))
            except (TypeError, ValueError, OverflowError):  # float(10**400) overflows
                what = "an integer" if kind is int else "a number"
                raise ValueError(f"{name} must be {what}, got {val!r}") from None
        _check_step_and_datum(self.step, self.datum)
        if self.parallel < 1:
            raise ValueError("parallelism degree must be >= 1")
        if self.max_oracle_work < 0:
            raise ValueError(
                f"max_oracle_work must be non-negative, got {self.max_oracle_work}")
        if not self.inputs:
            raise ValueError("at least one input is required")


def _expand_inputs(patterns) -> list[tuple[str, Path]]:
    """Resolve globs and sort by id.

    An input's id is its file stem. When another input holds that, it is
    the path with every ``/`` written ``_``, and when that is taken too,
    the path id with ``~2``, ``~3``, ... appended, the first that is free.
    An argument that names an existing path is that path, even when it
    holds ``*``, ``?`` or ``[``; any other is expanded as a pattern. A
    wildcard pattern matching nothing contributes an empty set; a literal
    path is kept even when missing so it errors per-file.
    """
    paths = []
    for pat in patterns:
        hits = [pat] if os.path.exists(pat) else sorted(glob.glob(pat))
        if hits:
            paths.extend(Path(h) for h in hits)
        elif not any(ch in pat for ch in "*?["):
            paths.append(Path(pat))
    seen = {}
    for p in paths:
        ident = p.stem
        if seen.get(ident, p) != p:
            fallback = ident = str(p).replace("/", "_")
            n = 2
            while seen.get(ident, p) != p:  # never overwrite another input
                ident, n = f"{fallback}~{n}", n + 1
        seen[ident] = p
    return sorted(seen.items())


# Failures that end one input's job and leave the rest of the batch
# running; an oversized raster can overflow or exhaust memory.
_FILE_ERRORS = (DemError, ValueError, OSError, OverflowError, MemoryError)


def _job(args):
    """Load one raster and run the command's work on it: (result, error)."""
    work, ident, path, cfg = args
    try:
        if path.suffix.lower() == ".csv":
            dem = parse_fixture_csv(path.read_text(encoding="utf-8"))
        else:
            dem = parse_esri_ascii(path, step=cfg.step, datum=cfg.datum)
        return work(ident, dem, cfg), None
    except _FILE_ERRORS as exc:
        return None, f"{path}: {exc}"


def _run_batch(work, cfg: RunConfig, emit, modules=("dem", "spectrum")) -> int:
    """Run ``work(ident, dem, cfg)`` on every input; return the failure count.

    ``work`` calls the names of ``modules``, which are bound first.
    Inputs run in sorted order, serially or over ``cfg.parallel``
    processes, at most one per input. Each result goes to ``emit`` in
    that order, and a true return from ``emit`` counts as a failure. A
    file that fails to load or to compute prints ``error: <path>: <msg>``
    in its place and leaves the rest of the batch running.
    """
    _bind(*modules)
    jobs = [(work, ident, path, cfg) for ident, path in _expand_inputs(cfg.inputs)]
    if cfg.parallel > 1 and len(jobs) > 1:
        # imported here, so serial runs never load the process pool machinery;
        # a worker that starts from a fresh import binds the same names
        from concurrent.futures import ProcessPoolExecutor
        # the pool may fork every worker up front: no more than the inputs
        with ProcessPoolExecutor(max_workers=min(cfg.parallel, len(jobs)),
                                 initializer=partial(_bind, *modules)) as pool:
            results = list(pool.map(_job, jobs))
    else:
        results = map(_job, jobs)
    failures = 0
    for result, error in results:
        if error is None:
            failures += bool(emit(result))
        else:
            failures += 1
            print(f"error: {error}", file=sys.stderr)
    return failures


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


def _spectrum_one(ident, dem, cfg) -> dict[str, str]:
    """Text of every file the raster gets, by name."""
    import json
    outputs = {}
    gi = {}
    n0 = {}
    for se in SE_NAMES:
        ps = pattern_spectrum(dem, se)
        outputs[f"{ident}.spectrum.{se}.csv"] = _spectrum_csv(ps)
        gi[se] = float(_fmt(granulometric_index(ps)))
        n0[se] = ps.n0
    # the name's bytes read as UTF-8; a byte that is not UTF-8 reads as
    # the text \xNN, since a lone surrogate would not encode back
    text_id = os.fsencode(ident).decode("utf-8", "backslashreplace")
    summary = {"id": text_id, "gi": gi, "n0": n0, "metadata": _metadata(cfg)}
    outputs[f"{ident}.summary.json"] = (
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return outputs


def cmd_spectrum(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    def write(outputs):
        for name, text in sorted(outputs.items()):
            _write_text(cfg.out_dir / name, text)

    return 1 if _run_batch(_spectrum_one, cfg, write) else 0


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

_X_COLUMNS = [f"x{i}" for i in range(16)]
_FEATURE_COLUMNS = (["id"] + [f"gi_{se.lower()}" for se in SE_NAMES]
                    + [f"z{i}" for i in range(1, 5)] + _X_COLUMNS
                    + ["degenerate", "high", "low"])


def _check_csv_id(ident: str) -> None:
    """Refuse an id that would not stay one cell of a CSV row."""
    if any(ch in ident for ch in ',"\r\n'):
        raise ValueError(f"id {ident!r} holds a comma, quote or line break, "
                         "which a CSV cell cannot")


def _features_one(ident, dem, cfg) -> str:
    _check_csv_id(ident)
    rec = normalized_mdgi(dem, watershed_id=ident)
    hi, lo = high_low_direction(rec.z)
    return ",".join([ident] + [_fmt(rec.gi[se]) for se in SE_NAMES]
                    + [_fmt(v) for v in rec.z] + [_fmt(v) for v in rec.x]
                    + ["1" if rec.degenerate else "0", hi, lo])


def cmd_features(cfg: RunConfig, output: Path | None = None) -> int:
    output = output or cfg.out_dir / "features.csv"
    output.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(_FEATURE_COLUMNS)]
    failures = _run_batch(_features_one, cfg, lines.append)
    _write_text(output, "\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def _oracle_one(ident, dem, cfg) -> list[tuple[str, ...]]:
    _check_csv_id(ident)
    # the run count thresholds only the levels the raster holds, counted
    # when cells x top level, which bounds their work, is over the cap
    work = dem.height * dem.width * max(dem.zmax, 1)
    if work > cfg.max_oracle_work:
        work = dem.height * dem.width * _held_levels(dem.values.ravel()).size
    if work > cfg.max_oracle_work:
        return [(ident, "-", "-", "SKIP",
                 f"work {work} exceeds cap {cfg.max_oracle_work}")]
    rows = []
    for direction in cfg.directions:
        counted = run_lengths(dem, direction)
        # both families read the volume curve of one sweep
        for fast in pattern_spectra(dem, SE_FOR_DIRECTION[direction], ("nse", "length")):
            ref = spectrum_from_runs(counted, fast.family).volumes
            volumes = fast.volumes
            if cfg.corrupt_hook:
                volumes = (volumes[0] + 1,) + volumes[1:]  # test hook
            verdict, detail = "PASS", ""
            if volumes != ref:
                first = next(i for i, (a, b) in enumerate(
                    zip(volumes + (None,), ref + (None,))) if a != b)
                verdict, detail = "FAIL", f"first mismatch at index {first}"
            rows.append((ident, direction, fast.family, verdict, detail))
    return rows


def cmd_oracle_check(cfg: RunConfig, report_path: Path | None) -> int:
    lines = ["id,direction,family,verdict,detail"]

    def report(rows):
        for row in rows:
            lines.append(",".join(row))
            print(" ".join(filter(None, row)))
        return any(row[3] == "FAIL" for row in rows)

    failures = _run_batch(_oracle_one, cfg, report, ("dem", "spectrum", "oracle"))
    if report_path is not None:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        _write_text(report_path, "\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train-tree / classify
# ---------------------------------------------------------------------------


def _read_feature_csv(path: Path, label_column: str | None):
    # blank lines are skipped but keep their place in the numbering
    text = path.read_text(encoding="utf-8")
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty feature CSV")
    header = lines[0][1].split(",")
    try:
        xcols = [header.index(name) for name in _X_COLUMNS]
        id_col = header.index("id")
    except ValueError as exc:
        raise ValueError(f"{path}: missing feature columns ({exc})") from None
    label_col = None
    if label_column is not None:
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_col = header.index(label_column)
    records = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(cells)} cells, "
                             f"expected {len(header)}")
        try:
            x = tuple(float(cells[c]) for c in xcols)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} has a non-numeric feature")
        # float() accepts nan and inf, which no split threshold can order
        if not all(map(math.isfinite, x)):
            raise ValueError(f"{path}: line {lineno} has a non-finite feature")
        label = cells[label_col] if label_col is not None else None
        records.append(FeatureRecord(watershed_id=cells[id_col], x=x, label=label))
    return records


def cmd_train_tree(features: Path, label_column: str, max_depth: int,
                   out_dir: Path) -> int:
    _bind("classify")
    records = _read_feature_csv(features, label_column)
    tree = train_cart(records, max_depth)
    acc = training_accuracy(tree, records)
    hits = int(acc * len(records))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "tree.json", tree_to_json(tree))
    _write_text(out_dir / "tree.txt", render_tree(tree))
    print(f"records {len(records)} depth {tree.depth()} "
          f"accuracy {hits}/{len(records)} ({_fmt(float(acc))})")
    return 0


def cmd_classify(tree_path: Path, features: Path, output: Path) -> int:
    _bind("classify")
    try:
        tree = tree_from_json(tree_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON included
        raise ValueError(f"{tree_path}: {exc}") from None
    records = _read_feature_csv(features, None)
    output.parent.mkdir(parents=True, exist_ok=True)
    lines = ["id,label"]
    for rec in records:
        lines.append(f"{rec.watershed_id},{predict(tree, rec)}")
    _write_text(output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures
# ---------------------------------------------------------------------------


def cmd_gen_fixtures(out_dir: Path) -> int:
    _bind("dem", "oracle", "synth")
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted = []

    def emit(name: str, text: str):
        _write_text(out_dir / name, text)
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
    lines = [",".join(["id"] + _X_COLUMNS + ["label"])]
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


def _add_batch_args(sub):
    sub.add_argument("inputs", nargs="+", help="input rasters (.asc/.csv), globs allowed")
    sub.add_argument("--step", type=float,
                     help="quantization level width for .asc inputs (default 1)")
    sub.add_argument("--datum", type=float,
                     help="elevation of level 1 for .asc inputs (default 0)")
    sub.add_argument("--parallel", type=int, help="process-level parallelism (default 1)")
    sub.add_argument("--config", type=Path, help="JSON file with defaults; explicit flags win")


def _build_config(args) -> RunConfig:
    """Explicit flags over the ``--config`` file over ``RunConfig``'s defaults."""
    options = RunConfig.OPTIONS
    given = {}
    if args.config is not None:
        import json
        file_cfg = json.loads(args.config.read_text(encoding="utf-8"))
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        # the test hook is a flag only
        given = {k: v for k, v in file_cfg.items() if k in options and k != "corrupt_hook"}
    given.update((k, v) for k, v in vars(args).items() if k in options and v is not None)
    return RunConfig(args.inputs, **given)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demgranulo",
        description="Directional granulometric indices on masked elevation rasters")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="volume curves and indices per raster")
    _add_batch_args(sp)
    sp.set_defaults(run=lambda args: cmd_spectrum(_build_config(args)))

    ft = subs.add_parser("features", help="feature rows per raster")
    _add_batch_args(ft)
    ft.set_defaults(run=lambda args: cmd_features(_build_config(args), args.output))
    ft.add_argument("--output", type=Path,
                    help="feature CSV path (default <out-dir>/features.csv)")
    for batch in (sp, ft):  # oracle-check writes only its --report
        batch.add_argument("--out-dir", type=Path, help="output directory (default out)")

    oc = subs.add_parser("oracle-check",
                         help="compare streaming and run-counted spectra")
    _add_batch_args(oc)
    oc.set_defaults(run=lambda args: cmd_oracle_check(_build_config(args), args.report))
    oc.add_argument("--report", type=Path, help="also write a CSV report")
    oc.add_argument("--directions",
                    help="comma-separated subset of row,column,diag-down,diag-up")
    oc.add_argument("--max-oracle-work", type=int,
                    help="skip rasters whose cells x held levels exceed this (default "
                         "300000000, which admits 1000x1000 cells of 300 levels)")
    oc.add_argument("--self-test-corrupt", dest="corrupt_hook", action="store_true",
                    help=argparse.SUPPRESS)

    tt = subs.add_parser("train-tree", help="fit a depth-capped tree on features")
    tt.add_argument("features", type=Path)
    tt.add_argument("--label-column", default="label")
    tt.add_argument("--max-depth", type=int, default=2)
    tt.add_argument("--out-dir", type=Path, default=Path("out"))
    tt.set_defaults(run=lambda args: cmd_train_tree(
        args.features, args.label_column, args.max_depth, args.out_dir))

    cl = subs.add_parser("classify", help="apply a stored tree to features")
    cl.add_argument("features", type=Path)
    cl.add_argument("--tree", type=Path, required=True)
    cl.add_argument("--output", type=Path, default=Path("predictions.csv"))
    cl.set_defaults(run=lambda args: cmd_classify(args.tree, args.features, args.output))

    gf = subs.add_parser("gen-fixtures", help="emit documented fixture rasters")
    gf.add_argument("--out-dir", type=Path, default=Path("fixtures"))
    gf.set_defaults(run=lambda args: cmd_gen_fixtures(args.out_dir))

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (DemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """``main`` on the command line: ``python -m demgranulo.cli`` and the
    ``demgranulo`` console script start here.

    Once ``main`` returns or raises (``--version`` exits inside it), the
    collector freezes every object, so interpreter shutdown skips its
    last pass over them. ``gc.disable()`` would leave that pass in
    place, and ``os._exit`` would skip the atexit handlers. ``main``
    itself leaves the collector as it found it, for callers that go on
    running.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
