"""Layered benchmark of the widlaws CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload, one table
    python3 perfbench/run.py --smoke                     # tiny N, checks metric names

Each workload (see workloads.py) gets a config generated from --seed and
runs as fresh ``python -m widlaws ...`` children, one at a time, from the
root of the checkout with ``src/`` first on PYTHONPATH and numpy's BLAS
pool held to one thread.  Every output is checked: exit code, report
shape, every row or selftest check, and byte identity with the first
invocation of the run.

--trace 0 measures the end-to-end metrics with tracing off, for at least
--seconds and at least two invocations:
  wall_s       wall time of one invocation, spawn to exit, at reference
               host speed (below); the median of the run
  cpu_s        user + system time of that child, from os.wait4, at
               reference host speed; the median of the run
  peak_rss_mb  that child's own ru_maxrss, from os.wait4; the median
  setup_s      a fresh interpreter that imports widlaws.cli, parses the
               config and builds the sampler (setup_probe.py), at
               reference host speed; the median of two per invocation and
               at least eleven per run

Host speed.  On a shared host the speed of a CPU drifts by 20-40 % over
minutes, as other tenants load the cores under it, so the raw time of an
invocation says as much about the neighbours as about the program.  The
benchmark pins itself, and so every child, to one CPU, and while a child
runs it times a fixed pure-Python loop (a calibration burst of about
8 ms) every quarter second on that same CPU, plus once just before the
spawn and once just after the exit.  The child's wall time excludes the
bursts' CPU time, and its times are divided by its pace: the mean burst
time over REFERENCE_BURST_S, a fixed 8 ms, a typical burst on a 2-vCPU
Xeon VM.  A change to widlaws does not change the loop, so it moves the
reported times as much as it moves the raw ones.  On that VM, over 18
back-to-back invocations of sample-solenoid, the raw wall time spread by
15 % (interquartile range over median) and the paced one by 4 %; a loop
timed on the other CPU, or only between invocations, tracked the
child's speed far worse.  The table before the result line also prints
the raw medians and the median pace.  Because the child shares its CPU,
a change that adds threads gains no wall time here; cpu_s shows what it
costs.

--trace 1 alternates untraced invocations with traced ones (tracing.py)
and reports per layer the number of calls and the self time as a share of
the traced ``main`` call, plus the traced wall time and the tracing
overhead (median traced minus median untraced invocation, both paced).
It fails when a layer that must do work on the workload records no call.

Failed operations (report rows, selftest checks and invocations) are the
``failed`` count of the last line, out of ``attempted``.  The last line
of stdout is the JSON result; the lines before it are a table and an
environment manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import COUNTERS, LAYER_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_INVOCATIONS = 2
MIN_SETUPS = 11
SETUPS_PER_INVOCATION = 2
CHILD_TIMEOUT_S = 150.0
BURST_ITERATIONS = 100_000
BURST_PERIOD_S = 0.25
REFERENCE_BURST_S = 0.008

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYER_NAMES for kind, unit in (("calls", "count"), ("self_share", "ratio"))},
    **{counter: "count" for counter in COUNTERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Child:
    """A finished child.  `wall` excludes the calibration bursts that ran
    while it did; `pace` is their mean time over REFERENCE_BURST_S."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    pace: float
    out_path: Path
    digest: str
    err: str

    @property
    def paced_wall(self):
        return self.wall / self.pace

    @property
    def paced_cpu(self):
        return self.cpu / self.pace


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to the last CPU it
    may run on, so that the calibration bursts time the CPU the child
    runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def burst():
    """CPU time of a fixed pure-Python loop: the host's current pace."""
    start = time.process_time()
    total = 0
    for i in range(BURST_ITERATIONS):
        total += i * i % 7
    return time.process_time() - start


def _child_env():
    """The caller's environment with this checkout's sources first on the
    path and numpy's BLAS pool held to one thread: left at its default,
    its idle threads spin and add a noisy third to cpu_s on selftest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args, scratch: Path, name: str) -> Child:
    """Run `python args...` to completion and measure it.  Its stdout and
    stderr go to the files `name`.out and `name`.err in `scratch`.

    os.wait4 gives the resource usage of this child alone; the
    RUSAGE_CHILDREN maximum would carry over every child reaped before.
    A child's ru_maxrss also counts the peak RSS of this process, which
    it inherits at exec, so this process keeps child outputs on disk and
    leaves their parsing to a checker child.

    While the child runs, this process times a calibration burst every
    BURST_PERIOD_S on the CPU they share, and once before and once after.
    """
    out_path, err_path = scratch / f"{name}.out", scratch / f"{name}.err"
    bursts = [burst()]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        stolen = 0.0
        try:
            timed_out = False
            while not select.select([pidfd], [], [], BURST_PERIOD_S)[0]:
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    timed_out = True
                    proc.kill()
                    break
                bursts.append(burst())
                stolen += bursts[-1]
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start - stolen
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(pidfd)
            if proc.returncode is None:  # interrupted: do not leave it running
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
    with open(out_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    errtext = err_path.read_text(encoding="utf-8", errors="replace")
    if timed_out:
        errtext += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    bursts.append(burst())
    cpu = usage.ru_utime + usage.ru_stime
    pace = statistics.fmean(bursts) / REFERENCE_BURST_S
    return Child(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, pace, out_path, digest, errtext)


class Tally:
    """Operations attempted and failed, and byte identity within a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def invocation(self, label, child: Child, outcome):
        self.attempted += 1 + outcome["rows"]
        self.failed += outcome["rows_failed"]
        problems = list(outcome["problems"])
        if child.code != 0:
            last = child.err.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {child.code}: {last[0]}")
        if self.reference is None:
            self.reference = child.digest
        elif child.digest != self.reference:
            problems.append("output differs from the first invocation with this seed")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Run:
    """One workload at one seed: its config file, probes and invocations."""

    def __init__(self, workload, seed, smoke, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.config_path = scratch / f"{workload.name}.json"
        config = workload.config(seed, smoke)
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.cli_argv = workload.argv(str(self.config_path), config, smoke)
        self.tally = Tally()
        self.outcomes = {}

    def probe(self, manifest=False):
        args = [str(HERE / "setup_probe.py"), str(self.config_path)]
        child = run_child(args + (["--manifest"] if manifest else []), self.scratch, "probe")
        if child.code != 0:
            raise BenchError(f"set-up probe failed ({child.code}): {child.err.strip()}")
        return child

    def warm_up(self):
        """One untimed probe: fills caches, writes bytecode, and reports the
        environment.  Fails unless widlaws comes from this checkout."""
        child = self.probe(manifest=True)
        info = json.loads(child.out_path.read_text(encoding="utf-8").strip().splitlines()[-1])
        if Path(info["widlaws_file"]).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"widlaws imported from {info['widlaws_file']}, not {SRC}")
        return info

    def outcome(self, child: Child):
        """Check an output in a checker child; identical bytes are checked once."""
        if child.digest not in self.outcomes:
            checker = run_child(
                [str(HERE / "workloads.py"), self.workload.name, str(self.config_path), str(child.out_path)],
                self.scratch,
                "check",
            )
            if checker.code != 0:
                raise BenchError(f"output checker failed ({checker.code}): {checker.err.strip()}")
            self.outcomes[child.digest] = json.loads(checker.out_path.read_text(encoding="utf-8"))
        return self.outcomes[child.digest]

    def invoke(self, label):
        child = run_child(["-m", "widlaws", *self.cli_argv], self.scratch, "cli")
        self.tally.invocation(label, child, self.outcome(child))
        return child

    def invoke_traced(self, label):
        summary_path = self.scratch / "trace.json"
        summary_path.unlink(missing_ok=True)
        child = run_child([str(HERE / "tracing.py"), str(summary_path), *self.cli_argv], self.scratch, "cli")
        self.tally.invocation(label, child, self.outcome(child))
        if not summary_path.exists():
            raise BenchError(f"traced run wrote no summary: {child.err.strip()}")
        return child, json.loads(summary_path.read_text(encoding="utf-8"))


def measure(run: Run, seconds):
    """End-to-end metrics with tracing off.  Returns (metrics, samples);
    the samples also hold the raw times and paces, for the table."""
    children, probes = [], []
    deadline = time.perf_counter() + seconds
    while len(children) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        probes += [run.probe() for _ in range(SETUPS_PER_INVOCATION)]
        children.append(run.invoke(f"invocation {len(children) + 1}"))
    while len(probes) < MIN_SETUPS:
        probes.append(run.probe())
    rss = [c.rss_mb for c in children]
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if own_peak_mb >= min(rss):
        raise BenchError(f"the benchmark's own peak RSS ({own_peak_mb:.1f} MB) masks the child's")
    samples = {
        "wall_s": [c.paced_wall for c in children],
        "cpu_s": [c.paced_cpu for c in children],
        "peak_rss_mb": rss,
        "setup_s": [p.paced_wall for p in probes],
        "raw.wall_s": [c.wall for c in children],
        "raw.setup_s": [p.wall for p in probes],
        "pace": [c.pace for c in children + probes],
    }
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    return metrics, samples


def measure_traced(run: Run, seconds):
    """Per-layer metrics from traced children, alternated with untraced
    ones for the overhead.  Returns (metrics, samples)."""
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run.invoke(f"untraced invocation {len(untraced) + 1}").paced_wall)
        child, summary = run.invoke_traced(f"traced invocation {len(traced) + 1}")
        traced.append(child.paced_wall)
        summaries.append(summary)

    samples = {}
    for layer in LAYER_NAMES:
        samples[f"{layer}.calls"] = [s["calls"][layer] for s in summaries]
        samples[f"{layer}.self_share"] = [s["self_s"][layer] / s["main_s"] for s in summaries]
    for counter in COUNTERS:
        samples[counter] = [s["counters"][counter] for s in summaries]
    samples["trace.wall_s"] = traced
    samples["trace.coverage"] = [sum(s["self_s"].values()) / s["main_s"] for s in summaries]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]

    idle = sorted(layer for layer in run.workload.busy if metrics[f"{layer}.calls"] == 0)
    if idle:
        raise BenchError(f"{run.workload.name}: layers recorded no calls: {', '.join(idle)}")
    return metrics, samples


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(run: Run, probe_info):
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe_info["python"],
        "numpy": probe_info["numpy"],
        "bit_generator": probe_info["bit_generator"],
        "widlaws": probe_info["widlaws"],
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def run_workload(workload, seed, seconds, trace, smoke, scratch):
    """Measure one workload; returns (metrics, units, samples, tally, manifest)."""
    run = Run(workload, seed, smoke, scratch)
    info = manifest(run, run.warm_up())
    if trace:
        metrics, samples = measure_traced(run, seconds)
        units = PER_LAYER
    else:
        metrics, samples = measure(run, seconds)
        units = END_TO_END
    return metrics, units, samples, run.tally, info


def print_table(name, metrics, units, samples, tally):
    """One line per metric, then the samples that are not metrics (raw
    times and paces, median first), then fail_frac and every failure."""
    def line(metric, value, unit, values):
        spread = f"[{min(values):.6g} .. {max(values):.6g}]" if len(values) > 1 else ""
        print(f"{name:16} {metric:40} {value:14.6g} {unit:6} n={len(values):<3} {spread}")

    for metric, value in metrics.items():
        line(metric, value, units[metric], samples[metric])
    for extra in sorted(set(samples) - set(metrics)):
        unit = "s" if extra.endswith("_s") else "ratio"
        line(extra, statistics.median(samples[extra]), unit, samples[extra])
    frac = tally.failed / tally.attempted
    print(f"{name:16} {'fail_frac':40} {frac:14.6g} {'ratio':6} n={tally.attempted:<3} failed={tally.failed}")
    for problem in tally.problems:
        print(f"{name:16} FAILED {problem}")


def result_line(tally_list, metrics, units):
    attempted = sum(t.attempted for t in tally_list)
    failed = sum(t.failed for t in tally_list)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def _order(names, seed):
    """Workloads in the listed order for even seeds, reversed for odd."""
    return names if seed % 2 == 0 else names[::-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, minimal runs, traced and untraced; fail unless every "
        "metric named in BENCHMARK.json is emitted",
    )
    args = parser.parse_args(argv)
    if not (SRC / "widlaws" / "cli.py").is_file():
        print(f"no widlaws sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.smoke else [args.trace]
    seconds = 0.0 if args.smoke else args.seconds
    pin_to_one_cpu()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tallies, combined, units_of, emitted = [], {}, {}, {0: set(), 1: set()}
        for trace in traces:
            for name in _order(names, args.seed):
                metrics, units, samples, tally, info = run_workload(
                    WORKLOADS[name], args.seed, seconds, trace, args.smoke, scratch
                )
                print("manifest " + json.dumps(info, sort_keys=True))
                print_table(name, metrics, units, samples, tally)
                tallies.append(tally)
                emitted[trace] |= set(metrics)
                prefix = "" if len(names) == 1 and len(traces) == 1 else f"{name}."
                for metric, value in metrics.items():
                    combined[prefix + metric] = value
                    units_of[prefix + metric] = units[metric]
        mismatch = []
        if args.smoke:
            declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                names_declared = {m["name"] for m in declared[key]}
                mismatch += [f"{m} not emitted" for m in sorted(names_declared - emitted[trace])]
                mismatch += [f"{m} not in {key}" for m in sorted(emitted[trace] - names_declared)]
            print("smoke: " + ("; ".join(mismatch) or "every BENCHMARK.json metric is emitted"))
        print(result_line(tallies, combined, units_of))
        return 1 if mismatch or any(t.failed for t in tallies) else 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
