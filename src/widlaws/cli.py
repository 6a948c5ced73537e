"""Command-line front end.

Subcommands: verify (run a config's verification suite), sample (dump
raw draws), haar-demo (Haar construction check on the p-adic integers
or the solenoid), selftest (built-in fixtures for the arithmetic
oracle, the centering bound, compatibility, and divisibility).

Machine-readable output (JSON document, optional CSV) goes to stdout or
--out; human-readable summaries go to stderr.  Exit codes: 0 pass,
1 verification failure, 2 usage/config error.  All commands honor
--seed, and fixed seeds give byte-identical machine output.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys

from .groups import MAX_STOCK, STOCK_DEPTH, PadicIntegers, Solenoid, Torus, config_int, config_real
from .measures import AtomError, LevyMeasure, Quadruplet
from .sampling import MAX_DIGITS, check_digit_budget, check_jump_budget, make_rng, quadruplet_sampler
from .verification import (
    TOLERANCE_C,
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    oracle_padic_arithmetic,
    run_suite,
)

SCHEMA_VERSION = 2
# The draws of a config that names no samples, and of selftest.
DEFAULT_SAMPLES = 100000
# The most draws one chunk of the sample dump holds: the dump is written
# chunk by chunk, so its text never outgrows one chunk.
CHUNK = 1024
CSV_COLUMNS = ["character", "re_theory", "im_theory", "re_emp", "im_emp", "abs_err", "tol", "pass"]


class ConfigError(Exception):
    def __init__(self, field, message):
        self.field, self.message = field, message
        super().__init__(f"field '{field}': {message}")


def _get(doc, path, default=None, required=False):
    """doc's value at the last key of the dotted config path; a missing
    required key is reported under the full path."""
    key = path.rsplit(".", 1)[-1]
    if key in doc:
        return doc[key]
    if required:
        raise ConfigError(path, "missing")
    return default


def _field(field, parse, *args):
    """parse(*args); a ValueError becomes a ConfigError naming field, an AtomError its atom."""
    try:
        return parse(*args)
    except AtomError as exc:
        raise ConfigError(f"{field}[{exc.index}].{exc.part}", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def _as_int(field, value, minimum=None):
    return _field(field, config_int, value, minimum)


def _as_real(field, value):
    return _field(field, config_real, value)


def _parse_subgroup(group, raw):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("quadruplet.H", "expected an object with a 'kind'")

    def order(minimum):
        return _as_int("quadruplet.H.r", _get(raw, "quadruplet.H.r", required=True), minimum)

    kind = raw["kind"]
    # a kind that is not a string, a list say, is no kind of any group
    subgroup = _field("quadruplet.H", group.parse_subgroup, kind, order) if isinstance(kind, str) else None
    if subgroup is None:
        raise ConfigError("quadruplet.H.kind", f"unknown kind {kind!r} for this group")
    return subgroup


def _parse_characters(group, depth, raw):
    if raw == "default" or raw is None:
        return _field("characters", group.default_characters, depth)
    if not isinstance(raw, list):
        raise ConfigError("characters", "expected 'default' or a list")
    if not raw:
        raise ConfigError("characters", "empty list: a verdict over no rows passes vacuously")
    return [
        _field(f"characters[{i}]", group.parse_character, item, depth)
        for i, item in enumerate(raw)
    ]


def parse_config(doc, characters=True):
    """Parse a JSON experiment config into (quadruplet, depth, characters,
    samples, seed, tolerance_c).  Raises ConfigError naming the offending
    field.  With characters=False the characters field is neither read
    nor built, and None stands in its place."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    group_name = _get(doc, "group", required=True)
    if group_name == "torus":
        group = Torus()
    elif group_name in ("padic", "solenoid"):
        p = _as_int("p", _get(doc, "p", required=True), 2)
        group = _field("p", PadicIntegers if group_name == "padic" else Solenoid, p)
    else:
        raise ConfigError("group", f"unknown group {group_name!r}")
    depth = _as_int("depth", _get(doc, "depth", STOCK_DEPTH), 0)
    samples = _as_int("samples", _get(doc, "samples", DEFAULT_SAMPLES), 1)
    if group.retained is not None:
        # a draw holds at least one digit: past MAX_DIGITS draws no depth fits
        _field("samples" if samples > MAX_DIGITS else "depth", check_digit_budget, depth, samples)

    qraw = _get(doc, "quadruplet", required=True)
    if not isinstance(qraw, dict):
        raise ConfigError("quadruplet", "expected an object")
    subgroup = _parse_subgroup(group, _get(qraw, "quadruplet.H", required=True))
    a_raw = _get(qraw, "quadruplet.a", required=True)
    shift = _field("quadruplet.a", group.parse_point, a_raw, depth, subgroup)
    b = _as_real("quadruplet.b", _get(qraw, "quadruplet.b", 0.0))
    eta_raw = _get(qraw, "quadruplet.eta", [])
    if not isinstance(eta_raw, list):
        raise ConfigError("quadruplet.eta", "expected a list of atoms")
    atoms = []
    for i, atom in enumerate(eta_raw):
        field = f"quadruplet.eta[{i}]"
        if not (isinstance(atom, dict) and "point" in atom and "mass" in atom):
            raise ConfigError(field, "expected an object with 'point' and 'mass'")
        pt = _field(field + ".point", group.parse_point, atom["point"], depth, subgroup)
        atoms.append((pt, _as_real(field + ".mass", atom["mass"])))
    levy = _field("quadruplet.eta", LevyMeasure, tuple(atoms))
    quad = _field("quadruplet", Quadruplet, group, subgroup, shift, b, levy)

    _field("quadruplet.eta", check_jump_budget, levy, samples)
    seed = _as_int("seed", _get(doc, "seed", 0), 0)
    tolerance_c = _as_real("tolerance_c", _get(doc, "tolerance_c", TOLERANCE_C))
    if not (math.isfinite(tolerance_c) and tolerance_c > 0):
        raise ConfigError("tolerance_c", f"must be finite and positive, got {tolerance_c!r}")
    chars = None
    if characters:
        chars = _parse_characters(group, depth, _get(doc, "characters", "default"))
    return quad, depth, chars, samples, seed, tolerance_c


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("<config file>", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<config file>", f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# report serialization

def _row_values(r) -> list:
    """One report row's values, in CSV_COLUMNS order."""
    return [
        r.label,
        r.theory.real,
        r.theory.imag,
        r.empirical.real,
        r.empirical.imag,
        r.abs_error,
        r.tolerance,
        r.passed,
    ]


def report_to_document(report):
    """Machine JSON form of a report.  wall_time is deliberately omitted
    so that fixed seeds give byte-identical output; it is shown in the
    stderr summary instead."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": report.config,
        "overall_pass": report.overall_pass,
        "rows": [dict(zip(CSV_COLUMNS, _row_values(r))) for r in report.rows],
    }


def rows_to_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        label, *numbers, passed = _row_values(r)
        writer.writerow([label, *map(repr, numbers), "true" if passed else "false"])
    return buf.getvalue()


def _write(path, option, chunks):
    """Write the text chunks to path; an OSError, such as a missing
    directory, becomes a ConfigError naming the path's option."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(option, str(exc)) from exc


def _check_outputs(args):
    """Refuse a given --out or --csv path that cannot be written, before
    any draw or check runs: it must name a file, not a directory, in a
    writable directory that exists.  No file is made here; _write still
    turns a later OSError into the same ConfigError."""
    for option in ("--out", "--csv"):
        path = getattr(args, option[2:], None)
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not path or os.path.isdir(path):
            problem = "not a file name"
        elif not os.path.isdir(parent):
            problem = f"no directory {parent!r}"
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            problem = "not writable"
        else:
            continue
        raise ConfigError(option, f"{path!r}: {problem}")


def _emit(chunks, out_path) -> bool:
    """Write the text chunks to out_path, or to stdout when it is None.

    Returns False when the reader closed stdout early: nothing more is
    written, and stdout is pointed at os.devnull so that the flush at
    interpreter exit cannot fail again.
    """
    if out_path is not None:
        _write(out_path, "--out", chunks)
        return True
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _emit_report(report, out_path, csv_path):
    _emit([json.dumps(report_to_document(report), indent=2, sort_keys=True) + "\n"], out_path)
    if csv_path is not None:
        _write(csv_path, "--csv", [rows_to_csv(report)])


def _summary(name, report) -> int:
    """Print the report's summary line to stderr; returns the exit code."""
    npass = sum(r.passed for r in report.rows)
    print(
        f"{name}: {npass}/{len(report.rows)} rows pass; "
        f"overall={'PASS' if report.overall_pass else 'FAIL'}; "
        f"wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0 if report.overall_pass else 1


# ---------------------------------------------------------------------------
# commands

def _override(doc, args, *fields):
    """doc with every given field that was set on the command line replaced.
    A doc that is not an object is returned as it is, for parse_config to
    reject as field '<root>'."""
    if isinstance(doc, dict):
        for name in fields:
            if getattr(args, name) is not None:
                doc[name] = getattr(args, name)
    return doc


def _run_config(doc, args, *fields):
    """The body of verify and haar-demo: override the doc's given fields
    from args, parse it, run its suite and emit the report, returned."""
    doc = _override(doc, args, *fields)
    quad, depth, characters, samples, seed, tolerance_c = parse_config(doc)
    # a drawn jump total over the cap is refused while drawing (poisson_counts)
    report = _field("quadruplet.eta", run_suite, quad, characters, samples, seed, tolerance_c, depth)
    _emit_report(report, args.out, args.csv)
    return report


def cmd_verify(args) -> int:
    report = _run_config(load_config(args.config), args, "samples", "seed", "depth", "tolerance_c")
    return _summary("verify", report)


def _each_once(columns, convert) -> list:
    """convert(column) for every column, run once per distinct column
    object (a solenoid batch hands its deepest angle out twice)."""
    done = {}
    for col in columns:
        if id(col) not in done:
            done[id(col)] = convert(col)
    return [done[id(col)] for col in columns]


def _sample_lines(batch, fmt):
    """The sample dump as text chunks of at most CHUNK draws, one line
    per draw: a CSV line of repr'd fields, or a JSON record."""
    for lo in range(0, len(batch), CHUNK):
        columns = batch.columns(lo, lo + CHUNK)
        if fmt == "csv":
            fields = _each_once(columns, lambda col: list(map(repr, col.tolist())))
            yield "\n".join(map(",".join, zip(*fields))) + "\n"
        else:
            rows = zip(*_each_once(columns, lambda col: col.tolist()))
            yield "".join(json.dumps(batch.group.record(row)) + "\n" for row in rows)


def cmd_sample(args) -> int:
    """Dump the config's draws; --count replaces the config's samples, so
    parse_config checks the budgets against the draws actually made.  The
    characters field is not read."""
    if args.samples is not None and args.samples < 1:
        raise ConfigError("count", "must be >= 1")
    doc = _override(load_config(args.config), args, "samples", "seed", "depth")
    quad, depth, _, samples, seed, _ = parse_config(doc, characters=False)
    sampler = quadruplet_sampler(quad, depth=depth)
    batch = _field("quadruplet.eta", sampler, make_rng(seed, stream=0), samples)
    if _emit(_sample_lines(batch, args.format), args.out):
        print(f"sample: wrote {samples} draws ({args.format})", file=sys.stderr)
    return 0


def cmd_haar_demo(args) -> int:
    """The verify suite of the group's Haar law: full subgroup, identity
    shift, no Gauss or jump layer, default characters; it lists none, so a
    set over MAX_STOCK is refused naming depth, or p when no depth fits."""
    if args.group == "padic":
        haar = {"H": {"kind": "lambda", "r": 0}, "a": [0]}
    else:
        haar = {"H": {"kind": "full"}, "a": {"base": 0.0, "digits": []}}
    doc = {"group": args.group, "quadruplet": haar}
    try:
        report = _run_config(doc, args, "p", "depth", "samples", "seed", "tolerance_c")
    except ConfigError as exc:
        if exc.field != "characters":
            raise
        fits = [d for d in range(STOCK_DEPTH) if PadicIntegers(args.p).stock_size(d) <= MAX_STOCK]
        hint = f"the deepest depth that fits is {fits[-1]}" if fits else f"no depth fits at p > {MAX_STOCK}"
        raise ConfigError("depth" if fits else "p", f"{exc.message.partition(';')[0]}; {hint}") from exc
    depth = report.config["depth"]
    print(f"Haar construction on {args.group} (p={args.p}, depth={depth}):", file=sys.stderr)
    print(f"{'character':>12} {'|empirical|':>12} {'abs_err':>10} {'tol':>8} pass", file=sys.stderr)
    for r in report.rows:
        print(
            f"{r.label:>12} {abs(r.empirical):>12.5f} {r.abs_error:>10.5f} "
            f"{r.tolerance:>8.5f} {'yes' if r.passed else 'NO'}",
            file=sys.stderr,
        )
    return _summary("haar-demo", report)


# selftest's fixture laws as configs: two for the compatibility check,
# three centered ones for the divisibility check
_PADIC_ETA = [{"point": [1, 0, 1], "mass": 0.8}, {"point": [0, 1, 1], "mass": 0.5}]
_SOLENOID_ETA = [{"point": 0.7, "mass": 0.6}, {"point": -1.2, "mass": 0.4}]
_COMPATIBILITY_LAWS = [
    {"group": "padic", "p": 2, "depth": 5,
     "quadruplet": {"H": {"kind": "lambda", "r": 6}, "a": [1, 1], "eta": _PADIC_ETA}},
    {"group": "solenoid", "p": 2, "depth": 5,
     "quadruplet": {"H": {"kind": "trivial"}, "a": 0.3, "b": 0.2, "eta": _SOLENOID_ETA}},
]
_DIVISIBILITY_LAWS = [
    {"group": "torus",
     "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0, "b": 0.8,
                    "eta": [{"point": 2.1, "mass": 1.1}, {"point": -0.6, "mass": 0.5}]}},
    {"group": "padic", "p": 2, "depth": 5,
     "quadruplet": {"H": {"kind": "lambda", "r": 6}, "a": [], "eta": _PADIC_ETA}},
    {"group": "solenoid", "p": 2, "depth": 5,
     "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0, "b": 0.5, "eta": _SOLENOID_ETA}},
]


def _selftest_law(doc, samples):
    """The quadruplet of a fixture config, parsed at `samples` draws, so
    that the digit and jump caps hold it as they hold a config's law; a
    law over a cap raises ConfigError naming samples."""
    try:
        return parse_config({**doc, "samples": samples}, characters=False)[0]
    except ConfigError as exc:
        raise ConfigError("samples", exc.message) from exc


def _selftest_fixtures(samples, seed):
    """The four built-in checks; returns a list of (name, pass) pairs.
    Every fixture law is parsed, and so held to the caps, before any
    check runs."""
    compat = [_selftest_law(doc, samples) for doc in _COMPATIBILITY_LAWS]
    div = [_selftest_law(doc, samples) for doc in _DIVISIBILITY_LAWS]

    results = []
    results.append(("padic-arithmetic-oracle", oracle_padic_arithmetic(10000, seed)))

    grids = []
    for group in (Torus(), Solenoid(2), Solenoid(3)):
        grids += check_compare_inequality(group, group.default_characters())
    results.append(("centering-bound-grid", all(ok for _, ok in grids)))

    compat_ok = True
    for q in compat:
        for n in (1, 2, 3):
            compat_ok = compat_ok and check_compatibility(q, n, samples, seed).overall_pass
    results.append(("depth-compatibility", compat_ok))

    div_ok = True
    for q in div:
        div_ok = div_ok and check_divisibility(q, 4, samples, seed).overall_pass
    results.append(("convolution-divisibility", div_ok))
    return results


def cmd_selftest(args) -> int:
    samples, seed = _as_int("samples", args.samples, 1), _as_int("seed", args.seed, 0)
    results = _selftest_fixtures(samples, seed)
    overall = all(ok for _, ok in results)
    for name, ok in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "selftest": [{"name": name, "pass": ok} for name, ok in results],
        "overall_pass": overall,
    }
    _emit([json.dumps(doc, indent=2, sort_keys=True) + "\n"], args.out)
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widlaws",
        description="Construct, sample, and verify weakly infinitely divisible laws "
        "on the circle, the p-adic integers, and the p-adic solenoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a config's verification suite")
    verify.add_argument("--config", required=True, help="JSON experiment config")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    verify.add_argument("--csv", help="also write the row table as CSV")
    verify.add_argument("--samples", type=int, help="override config sample count")
    verify.add_argument("--seed", type=int, help="override config seed")
    verify.add_argument("--depth", type=int, help="override config depth")
    verify.add_argument("--tolerance-c", dest="tolerance_c", type=float, help="override tolerance constant")
    verify.set_defaults(func=cmd_verify)

    sample = sub.add_parser("sample", help="dump raw draws from a config's law")
    sample.add_argument("--config", required=True)
    sample.add_argument("--count", dest="samples", type=int, help="number of draws (default: config samples)")
    sample.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sample.add_argument("--out", help="write draws here instead of stdout")
    sample.add_argument("--seed", type=int)
    sample.add_argument("--depth", type=int)
    sample.set_defaults(func=cmd_sample)

    haar = sub.add_parser("haar-demo", help="verify the Haar construction")
    haar.add_argument("--group", choices=["padic", "solenoid"], required=True)
    haar.add_argument("--p", type=int, required=True)
    haar.add_argument("--depth", type=int)
    haar.add_argument("--samples", type=int)
    haar.add_argument("--seed", type=int)
    haar.add_argument("--tolerance-c", dest="tolerance_c", type=float)
    haar.add_argument("--out", help="write the JSON report here instead of stdout")
    haar.add_argument("--csv", help="also write the row table as CSV")
    haar.set_defaults(func=cmd_haar_demo)

    selftest = sub.add_parser("selftest", help="run the built-in fixture checks")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    selftest.add_argument("--out", help="write the JSON summary here instead of stdout")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry of `python -m widlaws` and of the `widlaws`
    script: exit with main()'s code.  The collector is frozen once main
    returns or raises, so the interpreter's shutdown frees objects by
    reference count alone instead of running full cyclic collections
    over every object numpy and widlaws made.  stdio is still flushed
    and atexit handlers still run, but an object left in a reference
    cycle is never finalized: every file the commands write is closed
    before main returns.  Callers of main() in their own process keep
    normal collection."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)
