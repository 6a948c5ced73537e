"""Outside-in tracing of the widlaws modules.

The tracer wraps module-level names of the installed widlaws package so
that every call records a span in memory: layer, start, end and the span
that was open when it started.  A layer's self time is its spans'
durations minus the time their child spans cover.  Nothing inside
`src/` changes: the wrappers are rebound in every widlaws namespace that
binds the original function object, so a name imported into several
modules (``canonical_angle`` lives in six) is traced wherever it is
called from.

Run as a script, this file is the benchmark's traced child:

    python3 perfbench/tracing.py SUMMARY.json <widlaws CLI arguments>

It installs the wrappers, calls ``widlaws.cli.main(argv)`` in its own
process, writes the per-layer summary to SUMMARY.json and exits with the
code main returned.  Running the traced workload in a fresh interpreter
keeps its wall time comparable with the untraced ``python -m widlaws``
invocation, so their difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# Layer name -> the (module, qualified name) boundaries it wraps.
LAYERS = {
    "sampling.compound_poisson": [("widlaws.sampling", "sample_compound_poisson")],
    "sampling.make_rng": [("widlaws.sampling", "make_rng")],
    "groups.padic_digit_matrix": [("widlaws.groups", "padic_digit_matrix")],
    "groups.solenoid_lift_matrix": [("widlaws.groups", "solenoid_lift_matrix")],
    "groups.canonical_angle": [("widlaws.groups", "canonical_angle")],
    "groups.padic_scalar": [
        ("widlaws.groups", "padic_add"),
        ("widlaws.groups", "padic_neg"),
        ("widlaws.groups", "padic_mul_nat"),
        ("widlaws.groups", "PadicInt.from_int"),
    ],
    "verification.char_mean": [("widlaws.verification", "char_mean")],
    "verification.combine_samples": [("widlaws.verification", "combine_samples")],
    "verification.engine": [
        ("widlaws.verification", "run_suite"),
        ("widlaws.verification", "check_compatibility"),
        ("widlaws.verification", "check_divisibility"),
    ],
    "verification.oracle": [("widlaws.verification", "oracle_padic_arithmetic")],
    "verification.centering_grid": [("widlaws.verification", "check_compare_inequality")],
    "measures.ft_quadruplet": [("widlaws.measures", "ft_quadruplet")],
    "measures.pushforward": [
        ("widlaws.measures", "pushforward_torus"),
        ("widlaws.measures", "pushforward_padic"),
        ("widlaws.measures", "pushforward_solenoid"),
    ],
    "cli.parse_config": [("widlaws.cli", "parse_config")],
    # _sample_lines and _emit are private, but they are where the sample
    # command spends its time; a rename fails install() loudly.
    "cli.serialize": [
        ("widlaws.cli", "report_to_document"),
        ("widlaws.cli", "rows_to_csv"),
        ("widlaws.cli", "_sample_lines"),
        ("widlaws.cli", "_emit"),
    ],
}
# The samplers that quadruplet_sampler returns are closures, so this
# layer wraps the factory and traces what it returns.
DRAW = "sampling.draw"
DRAW_FACTORY = ("widlaws.verification", "quadruplet_sampler")
LAYER_NAMES = (DRAW, *LAYERS)
DRAWS = "sampling.draws"
EVALS = "verification.char_mean.evals"
COUNTERS = (DRAWS, EVALS)


class Tracer:
    """Span recorder.  Spans live in flat arrays until summary()."""

    def __init__(self):
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, layer, fn, counter=None, amount=None):
        """Return fn wrapped to record a `layer` span per call and, when
        `counter` is given, to add amount(args, result) to it."""
        layer_id = LAYER_NAMES.index(layer)
        kinds, starts, ends, parents, stack = self.layer, self.start, self.end, self.parent, self.stack
        counters, now = self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if counter is not None:
                counters[counter] += amount(args, result)
            return result

        return traced

    def summary(self):
        """Per-layer calls and self time, plus the element counters."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[idx]
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for idx, layer_id in enumerate(self.layer):
            name = LAYER_NAMES[layer_id]
            calls[name] += 1
            self_s[name] += durations[idx] - covered[idx]
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters)}


def _widlaws_namespaces():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "widlaws" or name.startswith("widlaws.")
    ]


def _rebind(namespaces, owner, attr, original, wrapper):
    """Bind `wrapper` wherever `original` is bound."""
    if isinstance(owner, type):
        setattr(owner, attr, staticmethod(wrapper))
    for module in namespaces:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _resolve(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not callable(getattr(owner, attr, None)):
        raise RuntimeError(f"trace boundary {module_name}.{qualname} is not a function")
    return owner, attr, getattr(owner, attr)


def install(tracer):
    """Wrap every boundary in LAYERS and the draw factory.

    Raises RuntimeError when a boundary no longer exists, so that a
    rename cannot silently zero a layer.
    """
    importlib.import_module("widlaws.cli")  # loads every widlaws module
    namespaces = _widlaws_namespaces()
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            owner, attr, original = _resolve(module_name, qualname)
            if layer == "verification.char_mean":
                wrapper = tracer.wrap(layer, original, EVALS, lambda args, _: len(args[0]))
            else:
                wrapper = tracer.wrap(layer, original)
            _rebind(namespaces, owner, attr, original, wrapper)

    owner, attr, factory = _resolve(*DRAW_FACTORY)

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        sampler = factory(*args, **kwargs)
        return tracer.wrap(DRAW, sampler, DRAWS, lambda _, batch: len(batch))

    _rebind(namespaces, owner, attr, factory, traced_factory)


def main(argv):
    if len(argv) < 2:
        print("usage: tracing.py SUMMARY.json <widlaws CLI arguments>", file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[1:]
    import widlaws.cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = widlaws.cli.main(cli_argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update({"exit_code": code, "main_s": main_s})
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
