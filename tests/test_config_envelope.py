"""The config envelope by generation: single-field mutations of the golden
configs, each run through `verify` at 50 draws.

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


def _verify(doc, directory):
    """(exit code, stdout, stderr) of verify on doc at SAMPLES draws."""
    config = pathlib.Path(directory) / "config.json"
    config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(config), "--samples", str(SAMPLES)])
    return code, out.getvalue(), err.getvalue()


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
