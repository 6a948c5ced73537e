"""The benchmark's workloads: a seeded config, the CLI arguments it runs,
the checks on its output, and the layers that must do work on it.

Each workload varies the law's values with the seed but keeps the
properties its cost depends on fixed (group, p, depth, subgroup, number
of characters, total jump mass), so runs with different seeds measure
the same amount of work.

The output checks run in a checker child (``main`` below).  They import
numpy and widlaws inside the functions because the benchmark process
imports this module too and must keep its own peak RSS small.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

@dataclass
class Outcome:
    """What one invocation's output showed.

    `rows` and `rows_failed` count report rows or selftest checks;
    `problems` lists reasons the invocation itself failed.
    """

    rows: int = 0
    rows_failed: int = 0
    problems: list = field(default_factory=list)


def _json_report(out: bytes, outcome: Outcome):
    try:
        doc = json.loads(out)
    except ValueError as exc:
        outcome.problems.append(f"malformed JSON: {exc}")
        return None
    if not isinstance(doc, dict) or doc.get("schema_version") is None:
        outcome.problems.append("report has no schema_version")
        return None
    if doc.get("overall_pass") is not True:
        outcome.problems.append("overall_pass is not true")
    return doc


def _count_rows(items, expected, outcome: Outcome, what):
    if not isinstance(items, list) or len(items) != expected:
        got = len(items) if isinstance(items, list) else items
        outcome.problems.append(f"expected {expected} {what}, got {got}")
        return
    outcome.rows += len(items)
    outcome.rows_failed += sum(1 for item in items if item.get("pass") is not True)


def _two_masses(rng, total):
    """Two positive masses with a fixed sum, so the mean number of
    Poisson jumps, and with it the sampler's cost, does not depend on
    the seed."""
    first = round(rng.uniform(0.25, 0.75) * total, 3)
    return first, round(total - first, 3)


def _solenoid_law(rng, p, depth, total_mass):
    """A solenoid law with trivial H, a shift, a Gauss layer and two jump
    atoms of the given total mass."""
    masses = _two_masses(rng, total_mass)
    return {
        "group": "solenoid",
        "p": p,
        "depth": depth,
        "quadruplet": {
            "H": {"kind": "trivial"},
            "a": round(rng.uniform(-3.0, 3.0), 6),
            "b": round(rng.uniform(0.1, 0.5), 6),
            "eta": [
                {"point": round(rng.uniform(0.2, 3.0), 6), "mass": masses[0]},
                {"point": round(rng.uniform(-3.0, -0.2), 6), "mass": masses[1]},
            ],
        },
    }


class VerifyPadic:
    name = "verify-padic"
    why = (
        "verify at p=3 depth 3 with K=120 default characters: per-row resampling and "
        "char_mean, the hot path ROADMAP item 3 targets; no solenoid code"
    )
    busy = frozenset(
        {
            "sampling.draw",
            "sampling.compound_poisson",
            "sampling.make_rng",
            "groups.padic_digit_matrix",
            "verification.char_mean",
            "verification.engine",
            "measures.ft_quadruplet",
            "measures.pushforward",
            "cli.parse_config",
            "cli.serialize",
        }
    )
    p, depth = 3, 3

    def config(self, seed, smoke):
        rng = random.Random(f"{self.name}/{seed}")
        width = self.depth + 1
        points = []
        while len(points) < 2:
            point = [rng.randrange(self.p) for _ in range(width)]
            if any(point) and point not in points:
                points.append(point)
        masses = _two_masses(rng, 1.2)
        return {
            "group": "padic",
            "p": self.p,
            "depth": self.depth,
            "quadruplet": {
                "H": {"kind": "lambda", "r": 2},
                "a": [rng.randrange(self.p) for _ in range(width)],
                "eta": [{"point": pt, "mass": m} for pt, m in zip(points, masses)],
            },
            "characters": "default",
            "samples": 2000 if smoke else 100000,
            "seed": seed,
        }

    def argv(self, config_path, config, smoke):
        return ["verify", "--config", config_path]

    def check(self, out, config):
        outcome = Outcome()
        doc = _json_report(out, outcome)
        if doc is not None:
            # the default character set: every (d, ell) with d <= min(3, depth)
            k = sum(self.p ** (d + 1) for d in range(min(3, self.depth) + 1))
            _count_rows(doc.get("rows"), k, outcome, "rows")
        return outcome


class Selftest:
    name = "selftest"
    why = (
        "selftest with defaults: the only workload covering all three groups and every "
        "comparison engine, the oracle, the centering grid and combine_samples"
    )
    busy = frozenset(
        {
            "sampling.draw",
            "sampling.compound_poisson",
            "sampling.make_rng",
            "groups.padic_digit_matrix",
            "groups.solenoid_lift_matrix",
            "groups.canonical_angle",
            "groups.padic_scalar",
            "verification.char_mean",
            "verification.combine_samples",
            "verification.engine",
            "verification.oracle",
            "verification.centering_grid",
            "measures.ft_quadruplet",
            "measures.pushforward",
            "cli.serialize",
        }
    )
    checks = (
        "padic-arithmetic-oracle",
        "centering-bound-grid",
        "depth-compatibility",
        "convolution-divisibility",
    )

    def config(self, seed, smoke):
        """selftest reads no config; its set-up probe parses a seeded law of
        the shape of its solenoid fixtures (p=2, depth 5, trivial H)."""
        rng = random.Random(f"{self.name}/{seed}")
        return {**_solenoid_law(rng, 2, 5, 1.0), "seed": seed}

    def argv(self, config_path, config, smoke):
        argv = ["selftest", "--seed", str(config["seed"])]
        return argv + ["--samples", "2000"] if smoke else argv

    def check(self, out, config):
        outcome = Outcome()
        doc = _json_report(out, outcome)
        if doc is not None:
            items = doc.get("selftest")
            _count_rows(items, len(self.checks), outcome, "checks")
            if not outcome.problems and tuple(i.get("name") for i in items) != self.checks:
                outcome.problems.append(f"selftest checks are not {self.checks}")
        return outcome


class SampleSolenoid:
    name = "sample-solenoid"
    why = (
        "sample --format csv of 50k depth-3 solenoid draws: one draw, then scalar "
        "canonical_angle per coordinate while writing; no verification code"
    )
    busy = frozenset(
        {
            "sampling.draw",
            "sampling.compound_poisson",
            "sampling.make_rng",
            "groups.solenoid_lift_matrix",
            "groups.canonical_angle",
            "measures.pushforward",
            "cli.parse_config",
            "cli.serialize",
        }
    )
    p, depth = 2, 3

    def config(self, seed, smoke):
        rng = random.Random(f"{self.name}/{seed}")
        law = _solenoid_law(rng, self.p, self.depth, 1.1)
        return {**law, "samples": 500 if smoke else 50000, "seed": seed}

    def argv(self, config_path, config, smoke):
        count = str(config["samples"])
        return ["sample", "--config", config_path, "--format", "csv", "--count", count]

    def check(self, out, config):
        """Each line is the deep angle then coordinates 0..depth.  Check the
        shape, the range, the tower relation p * x_j = x_(j-1) mod 2pi and
        the empirical transform against the closed form."""
        import numpy as np

        outcome = Outcome()
        lines = out.decode("ascii", "replace").split("\n")
        if lines[-1] != "" or len(lines) - 1 != config["samples"]:
            outcome.problems.append(f"expected {config['samples']} lines, got {len(lines) - 1}")
            return outcome
        fields = [line.split(",") for line in lines[:-1]]
        if any(len(row) != self.depth + 2 for row in fields):
            outcome.problems.append(f"a line without depth+2 = {self.depth + 2} fields")
            return outcome
        try:
            values = np.array(fields, dtype=float)
        except ValueError as exc:
            outcome.problems.append(f"a field is not a number: {exc}")
            return outcome
        deep, coords = values[:, 0], values[:, 1:]
        if not np.all(np.isfinite(values) & (values >= -math.pi) & (values < math.pi)):
            outcome.problems.append("an angle outside [-pi, pi)")
        if not np.array_equal(coords[:, -1], deep):
            outcome.problems.append("coordinate depth differs from the deep angle")
        tower = np.mod(self.p * coords[:, 1:] - coords[:, :-1] + math.pi, 2 * math.pi) - math.pi
        if np.max(np.abs(tower)) > 1e-9:
            outcome.problems.append("coordinates break the tower relation")
        if not outcome.problems:
            outcome.problems += self._law_problems(coords, config)
        return outcome

    def _law_problems(self, coords, config):
        """Empirical characters (d, ell) of the dump against ft_quadruplet,
        within the library's own 4/sqrt(N) row tolerance."""
        import numpy as np

        from widlaws.characters import SolenoidCharacter
        from widlaws.cli import parse_config
        from widlaws.measures import ft_quadruplet

        quad = parse_config(config)[0]
        tol = 4.0 / math.sqrt(len(coords))
        problems = []
        for d in range(self.depth + 1):
            for ell in (1, 2, -3):
                empirical = complex(np.exp(1j * ell * coords[:, d]).mean())
                theory = ft_quadruplet(quad, SolenoidCharacter(d, ell))
                if abs(empirical - theory) > tol:
                    problems.append(f"character ({d}, {ell}): |{empirical} - {theory}| > {tol}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyPadic(), Selftest(), SampleSolenoid())}


def main(argv):
    """Check one output: ``workloads.py WORKLOAD CONFIG.json OUTPUT``.
    Prints the Outcome as JSON."""
    workload, config_path, output_path = argv
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    outcome = WORKLOADS[workload].check(Path(output_path).read_bytes(), config)
    print(json.dumps(asdict(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
