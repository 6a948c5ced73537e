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
import io
import json
import math
import os
import sys

from .groups import (
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Solenoid,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusPoint,
    TorusSubgroup,
    config_int,
    config_real,
)
from .measures import LevyMeasure, Quadruplet
from .sampling import check_digit_budget, check_jump_budget, make_rng, quadruplet_sampler
from .verification import (
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    default_characters,
    oracle_padic_arithmetic,
    run_suite,
)

SCHEMA_VERSION = 2
# The most draws one chunk of the sample dump holds: the dump is written
# chunk by chunk, so its text never outgrows one chunk.
CHUNK = 4096
CSV_COLUMNS = ["character", "re_theory", "im_theory", "re_emp", "im_emp", "abs_err", "tol", "pass"]


class ConfigError(Exception):
    def __init__(self, field, message):
        self.field = field
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
    """parse(*args), with a ValueError reported as a ConfigError naming field."""
    try:
        return parse(*args)
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

    subgroup = _field("quadruplet.H", group.parse_subgroup, raw["kind"], order)
    if subgroup is None:
        raise ConfigError("quadruplet.H.kind", f"unknown kind {raw['kind']!r} for this group")
    return subgroup


def _parse_characters(group, depth, raw):
    if raw == "default" or raw is None:
        return _field("characters", default_characters, group, depth)
    if not isinstance(raw, list):
        raise ConfigError("characters", "expected 'default' or a list")
    return [
        _field(f"characters[{i}]", group.parse_character, item, depth)
        for i, item in enumerate(raw)
    ]


def parse_config(doc):
    """Parse a JSON experiment config into (quadruplet, depth, characters,
    samples, seed, tolerance_c).  Raises ConfigError naming the offending
    field."""
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
    depth = _as_int("depth", _get(doc, "depth", 3), 0)
    samples = _as_int("samples", _get(doc, "samples", 100000), 1)
    if not isinstance(group, Torus):
        _field("depth", check_digit_budget, depth, samples)

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
    levy = _field("quadruplet", LevyMeasure, tuple(atoms))
    quad = _field("quadruplet", Quadruplet, group, subgroup, shift, b, levy)

    _field("quadruplet.eta", check_jump_budget, levy, samples)
    seed = _as_int("seed", _get(doc, "seed", 0), 0)
    tolerance_c = _as_real("tolerance_c", _get(doc, "tolerance_c", 4.0))
    if not (math.isfinite(tolerance_c) and tolerance_c > 0):
        raise ConfigError("tolerance_c", f"must be finite and positive, got {tolerance_c!r}")
    characters = _parse_characters(group, depth, _get(doc, "characters", "default"))
    return quad, depth, characters, samples, seed, tolerance_c


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


def _emit(chunks, out_path) -> bool:
    """Write the text chunks to out_path, or to stdout when it is None.

    Returns False when the reader closed stdout early: nothing more is
    written, and stdout is pointed at os.devnull so that the flush at
    interpreter exit cannot fail again.
    """
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
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
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(report))


def _summary(name, report):
    npass = sum(r.passed for r in report.rows)
    print(
        f"{name}: {npass}/{len(report.rows)} rows pass; "
        f"overall={'PASS' if report.overall_pass else 'FAIL'}; "
        f"wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )


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


def cmd_verify(args) -> int:
    doc = _override(load_config(args.config), args, "samples", "seed", "depth", "tolerance_c")
    quad, depth, characters, samples, seed, tolerance_c = parse_config(doc)
    report = run_suite(quad, characters, samples, seed, tolerance_c, depth=depth)
    _emit_report(report, args.out, args.csv)
    _summary("verify", report)
    return 0 if report.overall_pass else 1


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
            yield "".join(json.dumps(batch.record(row)) + "\n" for row in rows)


def cmd_sample(args) -> int:
    """Dump the config's draws; --count replaces the config's samples, so
    parse_config checks the budgets against the draws actually made."""
    if args.samples is not None and args.samples < 1:
        raise ConfigError("count", "must be >= 1")
    doc = _override(load_config(args.config), args, "samples", "seed", "depth")
    quad, depth, _, samples, seed, _ = parse_config(doc)
    sampler = quadruplet_sampler(quad, depth=depth)
    batch = sampler(make_rng(seed, stream=0), samples)
    if _emit(_sample_lines(batch, args.format), args.out):
        print(f"sample: wrote {samples} draws ({args.format})", file=sys.stderr)
    return 0


def cmd_haar_demo(args) -> int:
    """The verify suite of the group's Haar law: full subgroup, identity
    shift, no Gauss or jump layer, default characters."""
    if args.group == "padic":
        haar = {"H": {"kind": "lambda", "r": 0}, "a": [0]}
    else:
        haar = {"H": {"kind": "full"}, "a": 0.0}
    doc = {"group": args.group, "quadruplet": haar}
    doc = _override(doc, args, "p", "depth", "samples", "seed", "tolerance_c")
    quad, depth, characters, samples, seed, tolerance_c = parse_config(doc)
    report = run_suite(quad, characters, samples, seed, tolerance_c, depth=depth)
    _emit_report(report, args.out, args.csv)
    print(f"Haar construction on {args.group} (p={args.p}, depth={args.depth}):", file=sys.stderr)
    print(f"{'character':>12} {'|empirical|':>12} {'abs_err':>10} {'tol':>8} pass", file=sys.stderr)
    for r in report.rows:
        print(
            f"{r.label:>12} {abs(r.empirical):>12.5f} {r.abs_error:>10.5f} "
            f"{r.tolerance:>8.5f} {'yes' if r.passed else 'NO'}",
            file=sys.stderr,
        )
    _summary("haar-demo", report)
    return 0 if report.overall_pass else 1


def _selftest_fixtures(samples, seed):
    """The four built-in checks; returns a list of (name, pass) pairs."""
    results = []
    results.append(("padic-arithmetic-oracle", oracle_padic_arithmetic(10000, seed)))

    grids = []
    grids += check_compare_inequality(Torus(), default_characters(Torus()), 1000)
    for p in (2, 3):
        grids += check_compare_inequality(
            Solenoid(p), default_characters(Solenoid(p), depth=3), 1000
        )
    results.append(("centering-bound-grid", all(ok for _, ok in grids)))

    p = 2
    padic_eta = LevyMeasure(
        (
            (PadicInt(p, (1, 0, 1, 0, 0, 0)), 0.8),
            (PadicInt(p, (0, 1, 1, 0, 0, 0)), 0.5),
        )
    )
    padic_q = Quadruplet(
        PadicIntegers(p), PadicSubgroup(6), PadicInt(p, (1, 1, 0, 0, 0, 0)), 0.0, padic_eta
    )
    sol_eta = LevyMeasure(
        (
            (SolenoidPoint(p, 5, 0.7), 0.6),
            (SolenoidPoint(p, 5, -1.2), 0.4),
        )
    )
    sol_q = Quadruplet(
        Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint(p, 5, 0.3), 0.2, sol_eta
    )
    compat_ok = True
    for q in (padic_q, sol_q):
        for n in (1, 2, 3):
            compat_ok = compat_ok and check_compatibility(q, n, samples, seed).overall_pass
    results.append(("depth-compatibility", compat_ok))

    torus_q = Quadruplet(
        Torus(),
        TorusSubgroup.trivial(),
        TorusPoint.identity(),
        0.8,
        LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5))),
    )
    padic_div = Quadruplet(PadicIntegers(p), PadicSubgroup(6), PadicInt.zero(p, 5), 0.0, padic_eta)
    sol_div = Quadruplet(
        Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint.identity(p, 5), 0.5, sol_eta
    )
    div_ok = True
    for q in (torus_q, padic_div, sol_div):
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
    haar.add_argument("--depth", type=int, default=3)
    haar.add_argument("--samples", type=int, default=100000)
    haar.add_argument("--seed", type=int, default=0)
    haar.add_argument("--tolerance-c", dest="tolerance_c", type=float, default=4.0)
    haar.add_argument("--out", help="write the JSON report here instead of stdout")
    haar.add_argument("--csv", help="also write the row table as CSV")
    haar.set_defaults(func=cmd_haar_demo)

    selftest = sub.add_parser("selftest", help="run the built-in fixture checks")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--samples", type=int, default=100000)
    selftest.add_argument("--out", help="write the JSON summary here instead of stdout")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
