"""The config envelope by generation: single-field mutations of the golden
configs, each run through `verify` at 50 draws, and `haar-demo` arguments
at and past their bounds.

Whatever the mutation, the command exits 0, 1 or 2 without a traceback,
an exit 2 names a field of the document (or a key missing from one of
its objects), and a rerun gives the same bytes.  The run is derandomized.
config-jump-cap.json is left out: at 50 draws it still draws 5e6 jumps,
a quarter of a second a run; the mass values below probe that cap.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from widlaws.cli import main
from widlaws.groups import MAX_STOCK, STOCK_DEPTH, PadicIntegers
from widlaws.sampling import MAX_DIGITS, MAX_JUMPS

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
SAMPLES = 50
CONFIGS = {
    name: json.loads((GOLDEN / f"config-{name}.json").read_text())
    for name in ("torus", "padic", "deep-padic", "solenoid")
}
# depths and masses at and past the digit and jump caps at SAMPLES draws
# that are refused before the draw; an accepted depth at the digit cap
# would cost seconds and about 140 MB a run
VALUES = [
    None, True, False, "3", [], {}, [0], math.nan, math.inf, -math.inf,
    2**70, -(2**70), -1, 0, 1, 2, 0.5, 1e-300, 2**31, 2**32, 4294967291,
    MAX_DIGITS // SAMPLES, MAX_DIGITS, MAX_JUMPS / SAMPLES, float(MAX_JUMPS),
]


def _sites(node, keys=()):
    """The key path of every value in a config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield keys + (key,)
        if isinstance(value, (dict, list)):
            yield from _sites(value, keys + (key,))


SITES = [(name, keys) for name, doc in CONFIGS.items() for keys in _sites(doc)]
_DELETE = object()


def _dotted(keys) -> str:
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def _mutate(doc, keys, value):
    """A copy of doc with the value at keys replaced, or deleted when value
    is _DELETE."""
    doc = copy.deepcopy(doc)
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _names_a_field(doc, field) -> bool:
    """True iff field is the dotted path of a value in doc, or of a key
    missing from one of doc's objects."""
    keys = [int(i) if i else name for name, i in re.findall(r"(\w+)|\[(\d+)\]", field)]
    if _dotted(keys) != field:
        return False
    node = doc
    for depth, key in enumerate(keys):
        if isinstance(key, int) and isinstance(node, list) and key < len(node):
            node = node[key]
        elif isinstance(key, str) and isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return depth == len(keys) - 1 and isinstance(key, str) and isinstance(node, dict)
    return True


def _run(argv):
    """(exit code, stdout, stderr) of the CLI on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _verify(doc, directory):
    """(exit code, stdout, stderr) of verify on doc at SAMPLES draws."""
    config = pathlib.Path(directory) / "config.json"
    config.write_text(json.dumps(doc))
    return _run(["verify", "--config", str(config), "--samples", str(SAMPLES)])


@st.composite
def mutations(draw):
    name, keys = draw(st.sampled_from(SITES))
    deletable = isinstance(keys[-1], str)
    value = draw(st.sampled_from([_DELETE] * deletable + VALUES))
    return keys, _mutate(CONFIGS[name], keys, value)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutations(), st.integers(0, 4))
def test_a_mutated_golden_config_exits_cleanly_naming_its_field(mutation, rerun):
    keys, doc = mutation
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _verify(doc, directory)
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            named = re.search(r"^config error: field '(.*?)': ", err)
            assert named, err
            # --samples puts samples into the document the command reads
            assert _names_a_field(dict(doc, samples=SAMPLES), named.group(1)), (_dotted(keys), err)
        else:
            assert len(json.loads(out)["rows"]) > 0
        if rerun == 0:
            assert _verify(doc, directory)[:2] == (code, out)


# haar-demo arguments: primes small, near 2**4, past 2**8, 2**16 and
# 2**31, and the largest below 2**32, with non-primes and p past 2**32;
# draw counts at and past their bounds (the default 100,000 draws is left
# out: at p = 3 it costs a third of a second a run); a depth at and past
# the digit cap at those draws, both refused (an accepted depth exactly at
# the cap costs seconds and about 140 MB a run); and seeds and tolerances
# at and past theirs.  Half the draws of each option but p and depth take
# a plain value, so that enough runs get past the option checks.
HAAR_PRIMES = [2, 3, 5, 17, 19, 257, 65537, 2**31 - 1, 4294967291, -3, 0, 1, 4, 2**32, 2**70]
HAAR_SAMPLES = [-1, 0, 1, 2, SAMPLES, MAX_DIGITS + 1, 2**70]
HAAR_SEEDS = [-1, 0, 2**64, 2**70]
HAAR_TOLERANCES = ["nan", "inf", "-inf", "1e400", "-1", "0", "1e-300", "4"]
# an accepted default p-adic set above this many rows is not generated:
# at p = 65,537, depth 0 its 65,537 rows take more than a second a run
HAAR_ROWS = 1000


def _accepts_a_large_stock_set(group, p, depth) -> bool:
    """True iff haar-demo would build a p-adic default set of more than
    HAAR_ROWS characters, and no more than MAX_STOCK, at (p, depth)."""
    if group != "padic" or (depth is not None and depth < 0):
        return False
    try:
        size = PadicIntegers(p).stock_size(STOCK_DEPTH if depth is None else depth)
    except ValueError:
        return False
    return HAAR_ROWS < size <= MAX_STOCK


@st.composite
def haar_demo_arguments(draw):
    group = draw(st.sampled_from(["padic", "solenoid"]))
    p = draw(st.sampled_from(HAAR_PRIMES))
    samples = draw(st.just(SAMPLES) | st.sampled_from(HAAR_SAMPLES))
    cap = MAX_DIGITS // samples if samples > 0 else MAX_DIGITS
    depths = [None, -1, 0, 1, 2, 3, 4, 40, cap, MAX_DIGITS, 2**70]
    options = {
        "--depth": draw(st.sampled_from([d for d in depths if not _accepts_a_large_stock_set(group, p, d)])),
        "--seed": draw(st.none() | st.sampled_from(HAAR_SEEDS)),
        "--tolerance-c": draw(st.none() | st.sampled_from(HAAR_TOLERANCES)),
    }
    argv = ["haar-demo", f"--group={group}", f"--p={p}", f"--samples={samples}"]
    return argv + [f"{option}={value}" for option, value in options.items() if value is not None]


@settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(haar_demo_arguments(), st.integers(0, 4))
def test_haar_demo_arguments_exit_cleanly_naming_their_field(argv, rerun):
    code, out, err = _run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        named = re.match(r"config error: field '(.*?)': ", err)
        assert named and named.group(1) in ("p", "depth", "samples", "seed", "tolerance_c"), (argv, err)
    else:
        assert len(json.loads(out)["rows"]) > 0
    if rerun == 0:
        assert _run(argv)[:2] == (code, out)


def test_the_field_check_reads_paths_and_missing_keys():
    doc = CONFIGS["solenoid"]
    for field in ("p", "quadruplet.H.kind", "quadruplet.eta[1].mass", "characters", "quadruplet.H.r"):
        assert _names_a_field(doc, field), field
    for field in ("quadruplet.eta[2]", "quadruplet.eta[0].point.base", "x.y", "<root>", "quadruplet..a"):
        assert not _names_a_field(doc, field), field


@pytest.mark.parametrize("kind", [[], {}, [0]], ids=["list", "object", "one-list"])
@pytest.mark.parametrize("name", ["torus", "padic", "solenoid"])
def test_a_subgroup_kind_that_is_not_a_string_names_its_field(name, kind, tmp_path):
    # a list or an object as the kind was a TypeError (unhashable) on the
    # circle and the solenoid
    code, _, err = _verify(_mutate(CONFIGS[name], ("quadruplet", "H", "kind"), kind), tmp_path)
    assert code == 2 and "config error: field 'quadruplet.H.kind': unknown kind" in err


def test_a_drawn_jump_total_over_the_cap_names_eta(tmp_path, capsys):
    # an accepted config expects MAX_JUMPS jumps, and seed 0 draws more
    doc = {
        "group": "torus",
        "samples": 1,
        "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0, "eta": [{"point": 1.0, "mass": MAX_JUMPS}]},
    }
    config = tmp_path / "cap.json"
    config.write_text(json.dumps(doc))
    for command in ("verify", "sample"):
        assert main([command, "--config", str(config), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error: field 'quadruplet.eta': " in err and "jumps drawn" in err
