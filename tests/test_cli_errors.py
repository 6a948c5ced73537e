"""CLI contract for rejected input: exit code 2 and the offending field
named, before any sampling starts."""

import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import widlaws.cli
import widlaws.groups
import widlaws.sampling
from widlaws.cli import ConfigError, main, parse_config
from widlaws.groups import TorusSubgroup


def test_haar_demo_names_depth_field(capsys):
    code = main(["haar-demo", "--group", "padic", "--p", "2", "--depth", "-1", "--samples", "100"])
    assert code == 2
    assert "field 'depth'" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["padic", "solenoid"])
def test_haar_demo_rejects_nonpositive_tolerance(group, capsys):
    argv = ["haar-demo", "--group", group, "--p", "3", "--samples", "100", "--tolerance-c", "-1"]
    assert main(argv) == 2
    assert "field 'tolerance_c'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e3", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["haar-demo", "--group", "padic", "--p", "3"],
        ["verify", "--config", str(pathlib.Path(__file__).parent / "data" / "golden" / "config-torus.json")],
    ],
    ids=["haar-demo", "verify"],
)
def test_negative_tolerance_in_equals_form_reaches_the_config_check(command, value, capsys):
    # "--tolerance-c -1e3" is read by argparse as an option, a usage error;
    # the "=" form hands the value to the config check
    assert main([*command, "--samples", "100", f"--tolerance-c={value}"]) == 2
    assert "config error: field 'tolerance_c': " in capsys.readouterr().err


def test_selftest_rejects_zero_samples_before_running(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before --samples was checked")

    monkeypatch.setattr(widlaws.cli, "oracle_padic_arithmetic", oracle)
    assert main(["selftest", "--samples", "0"]) == 2
    assert "field 'samples'" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [1_666_667, 8_000_000])
def test_selftest_samples_over_a_cap_are_refused_before_running(samples, monkeypatch, capsys):
    # 1,666,667 draws of the depth-5 Delta_2 fixture hold more than
    # MAX_DIGITS digits; 8,000,000 also draw more than MAX_JUMPS jumps
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the caps were checked")

    monkeypatch.setattr(widlaws.cli, "oracle_padic_arithmetic", oracle)
    assert main(["selftest", "--samples", str(samples)]) == 2
    assert "field 'samples'" in capsys.readouterr().err


def test_circle_cyclic_order_of_2_to_63_verifies(tmp_path):
    doc = {"group": "torus", "quadruplet": {"H": {"kind": "cyclic", "r": 2**63}, "a": 0.0}}
    cfg = tmp_path / "cyclic.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "2000", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("order", [2**63 + 1, 2**70])
def test_circle_cyclic_order_past_2_to_63_names_its_field(order, tmp_path):
    # 2**70 passed parse_config and failed in rng.integers, naming no field
    doc = {"group": "torus", "quadruplet": {"H": {"kind": "cyclic", "r": order}, "a": 0.0}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "quadruplet.H"
    cfg = tmp_path / "cyclic.json"
    cfg.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "widlaws", "verify", "--config", str(cfg), "--samples", "100"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "field 'quadruplet.H'" in proc.stderr and "Traceback" not in proc.stderr


def test_circle_cyclic_order_is_read_as_an_exact_integer():
    assert TorusSubgroup(np.int64(6)).order == 6 and type(TorusSubgroup(np.int64(6)).order) is int
    with pytest.raises(TypeError):
        TorusSubgroup(3.0)
    for order in (0, -2, 2**63 + 1):
        with pytest.raises(ValueError, match="1..2\\*\\*63"):
            TorusSubgroup(order)


def test_config_rejects_padic_character_beyond_exact_envelope(tmp_path, capsys):
    # batched p-adic means are exact while p**(d+2) < 2**63: d = 37 at p = 3
    doc = {
        "group": "padic",
        "p": 3,
        "depth": 40,
        "quadruplet": {"H": {"kind": "lambda", "r": 0}, "a": [0]},
        "characters": [[37, 1], [38, 1]],
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "characters[1]"
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert "characters[1]" in capsys.readouterr().err


# Below the trivial subgroup the solenoid sampler lifts the shift and every
# jump atom to R x Z^depth.  A float deep angle at p**depth ~ 8e11 has no
# exact lift; the config names the point instead of failing in the sampler.
def _deep_solenoid(subgroup, shift, eta):
    return {
        "group": "solenoid",
        "p": 3,
        "depth": 25,
        "quadruplet": {"H": {"kind": subgroup}, "a": shift, "eta": eta},
    }


@pytest.mark.parametrize(
    "shift,eta,field",
    [
        (0.0, [{"point": 1.0, "mass": 0.5}], "quadruplet.eta[0].point"),
        (1.0, [], "quadruplet.a"),
    ],
)
def test_deep_solenoid_point_without_exact_lift_names_its_field(shift, eta, field, tmp_path, capsys):
    doc = _deep_solenoid("trivial", shift, eta)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_deep_solenoid_below_full_subgroup_still_verifies(tmp_path):
    # the Haar layer absorbs the law, so nothing is lifted
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(_deep_solenoid("full", 0.0, [{"point": 1.0, "mass": 0.5}])))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--samples", "2000", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 68 and all(r["pass"] for r in rows)


# A solenoid batch keeps a base angle and base-p digits, and reads every
# coordinate off them with an error of a few ulps at any depth.  One float
# deep angle per draw put an error near p**depth * 2**-51 rad on
# coordinate 0, and the Haar demo at the default 100,000 draws failed rows
# at each of these depths.
@pytest.mark.parametrize("p,depth", [(3, 33), (3, 34), (2, 52)])
def test_solenoid_haar_demo_passes_where_the_float_deep_angle_failed(p, depth, capsys):
    argv = ["haar-demo", "--group", "solenoid", "--p", str(p), "--depth", str(depth), "--seed", "0"]
    assert main(argv) == 0
    assert "overall=PASS" in capsys.readouterr().err


# The golden config's shift 0.4 has no exact lift at depth 40: p**40 * 0.4
# is no longer a float multiple of 2pi/p**40 away from a coherent tower.
@pytest.mark.parametrize("command", ["verify", "sample"])
def test_depth_override_without_an_exact_lift_names_the_shift(command, capsys):
    config = str(pathlib.Path(__file__).parent / "data" / "golden" / "config-solenoid.json")
    count = ["--samples", "10"] if command == "verify" else ["--count", "3"]
    assert main([command, "--config", config, "--depth", "40"] + count) == 2
    assert "field 'quadruplet.a'" in capsys.readouterr().err


# A deep angle's coordinate 0 is the float p**depth * deep_angle, which
# needs p**depth < 2**1021; past it the point itself is refused.  The
# Haar demo writes its identity shift as (base, digits), which has no
# such limit, so it runs at that depth.
def test_solenoid_point_past_the_float_range_names_its_field(capsys):
    argv = ["haar-demo", "--group", "solenoid", "--p", "3", "--depth", "700", "--samples", "1000"]
    assert main(argv) == 0
    assert "config error" not in capsys.readouterr().err
    doc = _deep_solenoid("full", 0.0, []) | {"depth": 700, "samples": 1000}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "quadruplet.a"


def test_solenoid_character_past_the_float_range_names_its_field():
    # 2**600 < 2**1021 is a valid depth; the Gauss form divides by p**(2d)
    doc = _deep_solenoid("full", 0.0, []) | {"p": 2, "depth": 600, "samples": 10}
    assert parse_config(doc | {"characters": [[511, 1]]})[2][0].d == 511
    with pytest.raises(ConfigError) as err:
        parse_config(doc | {"characters": [[0, 1], [512, 1]]})
    assert err.value.field == "characters[1]"


# A p-adic or solenoid draw holds depth + 1 digits; a run of more than
# widlaws.sampling.MAX_DIGITS digits in total is refused before anything
# is allocated or a point is parsed.
def _digits_doc(group, depth, samples):
    if group == "padic":
        haar = {"H": {"kind": "lambda", "r": 0}, "a": [0]}
    else:
        haar = {"H": {"kind": "full"}, "a": 0.0}
    return {"group": group, "p": 2, "depth": depth, "samples": samples, "quadruplet": haar}


@pytest.mark.parametrize("group", ["padic", "solenoid"])
def test_draw_over_the_digit_cap_names_depth(group, monkeypatch, tmp_path, capsys):
    def parse_point(*args):
        raise AssertionError("a point was parsed before the digit cap was checked")

    assert widlaws.sampling.MAX_DIGITS == 10**7
    with pytest.raises(ConfigError) as err:
        parse_config(_digits_doc(group, 1_000_000, 100_000))
    assert err.value.field == "depth"
    # exactly at the cap is accepted
    assert parse_config(_digits_doc(group, 999, 10_000))[1] == 999
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(_digits_doc(group, 1_000_000, 100_000)))
    monkeypatch.setattr(widlaws.groups.PadicIntegers, "parse_point", parse_point)
    monkeypatch.setattr(widlaws.groups.Solenoid, "parse_point", parse_point)
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "field 'depth'" in capsys.readouterr().err
    argv = ["haar-demo", "--group", group, "--p", "2", "--depth", "1000000"]
    assert main(argv) == 2
    assert "field 'depth'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "samples, depth, field",
    [(10_000_001, 0, "samples"), (10_000_001, 5, "samples"), (10_000_000, 1, "depth")],
)
def test_draws_alone_over_the_digit_cap_name_samples(samples, depth, field, capsys):
    # past MAX_DIGITS draws no depth fits, since a draw holds at least one
    # digit; at or below it a smaller depth does
    argv = ["haar-demo", "--group", "padic", "--p", "17", "--samples", str(samples), "--depth", str(depth)]
    assert main(argv) == 2
    assert f"config error: field '{field}': " in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        parse_config(_digits_doc("solenoid", depth, samples))
    assert err.value.field == field


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--samples", "10000001"],
        ["verify", "--samples", str(2**70)],
        ["sample", "--count", "10000001"],
    ],
    ids=["verify", "verify-2**70", "sample"],
)
def test_circle_draws_over_the_digit_cap_name_samples(argv, capsys):
    # a circle draw counts as one digit: 10**9 draws of a Gauss-only law
    # passed parse_config and crashed in the sampler's np.full, exit 1.
    # The digit cap is checked before the jump cap, which this config's
    # eta would also break
    config = pathlib.Path(__file__).parent / "data" / "golden" / "config-torus.json"
    start = time.perf_counter()
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field 'samples': {argv[-1]} circle draws, ")
    # a circle draw holds no digits, so the refusal counts draws only
    assert "above the cap of 10000000 draws" in err and "digit" not in err


def test_circle_draws_at_the_digit_cap_parse():
    doc = {"group": "torus", "samples": 10**7, "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0, "b": 0.5}}
    assert parse_config(doc)[3] == 10**7


@pytest.mark.parametrize("group", ["padic", "solenoid"])
def test_sample_count_over_the_digit_cap_names_depth(group, tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(_digits_doc(group, 999, 10)))
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", str(cfg), "--count", "10", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 10
    assert main(["sample", "--config", str(cfg), "--count", "10001"]) == 2
    assert "field 'depth'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--samples", "100"],
        ["verify"],
        ["sample", "--seed", "1", "--count", "3"],
    ],
)
def test_non_object_config_names_root_with_or_without_overrides(argv, tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
    assert "field '<root>'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "quadruplet,field",
    [
        ({"H": {"kind": "cyclic"}, "a": 0.0}, "quadruplet.H.r"),
        ({"a": 0.0}, "quadruplet.H"),
        ({"H": {"kind": "full"}}, "quadruplet.a"),
    ],
)
def test_missing_nested_field_is_named_by_its_full_path(quadruplet, field, tmp_path, capsys):
    doc = {"group": "torus", "quadruplet": quadruplet}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert f"field '{field}': missing" in capsys.readouterr().err


def _torus(quadruplet, **extra):
    return json.dumps({"group": "torus", "quadruplet": quadruplet, **extra})


_FULL = {"H": {"kind": "full"}, "a": 0.0}
_PADIC_HAAR = {"H": {"kind": "lambda", "r": 0}, "a": [0]}
_PADIC_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden" / "config-padic.json").read_text()
)


@pytest.mark.parametrize(
    "text,command,field",
    [
        (_torus({"H": "full", "a": 0.0}), "verify", "quadruplet.H"),
        (_torus({"H": {"kind": "lambda"}, "a": 0.0}), "verify", "quadruplet.H.kind"),
        (_torus(_FULL, characters=5), "verify", "characters"),
        (json.dumps({**_PADIC_GOLDEN, "characters": []}), "verify", "characters"),
        (_torus([_FULL]), "verify", "quadruplet"),
        (_torus({**_FULL, "eta": {"point": 0.1, "mass": 1.0}}), "verify", "quadruplet.eta"),
        (
            _torus({**_FULL, "eta": [{"point": 0.1, "mass": 1.0}, {"point": 0.2}]}),
            "verify",
            "quadruplet.eta[1]",
        ),
        ('{"group": "torus",', "verify", "<config file>"),
        (_torus(_FULL), "sample", "count"),
        # a Quadruplet and its Levy measure check themselves when built;
        # a refused atom is named by its place and its refused half
        (
            json.dumps({"group": "padic", "p": 3, "quadruplet": {**_PADIC_HAAR, "b": 0.5}}),
            "verify",
            "quadruplet",
        ),
        (
            _torus({"H": {"kind": "trivial"}, "a": 0.0, "eta": [{"point": 0.0, "mass": 1.0}]}),
            "verify",
            "quadruplet.eta[0].point",
        ),
        (
            _torus({**_FULL, "eta": [{"point": 0.5, "mass": 1.0}, {"point": 1.5, "mass": 0}]}),
            "verify",
            "quadruplet.eta[1].mass",
        ),
        (
            _torus({**_FULL, "eta": [{"point": 0.5, "mass": -1}]}),
            "verify",
            "quadruplet.eta[0].mass",
        ),
        (
            '{"group": "torus", "quadruplet": {"H": {"kind": "full"}, "a": 0.0, '
            '"eta": [{"point": 0.5, "mass": 1e999}]}}',
            "verify",
            "quadruplet.eta[0].mass",
        ),
    ],
    ids=[
        "H-not-object",
        "H-kind-unknown",
        "characters-not-list",
        "characters-empty",
        "quadruplet-not-object",
        "eta-not-list",
        "eta-atom-without-mass",
        "invalid-json",
        "sample-count-0",
        "padic-gauss",
        "eta-atom-at-identity",
        "eta-mass-zero",
        "eta-mass-negative",
        "eta-mass-infinite",
    ],
)
def test_each_config_error_exits_2_naming_its_field(text, command, field, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    extra = ["--count", "0"] if command == "sample" else ["--samples", "10"]
    assert main([command, "--config", str(cfg), *extra]) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{field}': " in err
    assert "Traceback" not in err


# A non-finite tolerance would pass (inf) or fail (nan) every row whatever
# the sampler does.  JSON reads 1e400 as inf.
@pytest.mark.parametrize(
    "flags,config_tol",
    [
        (["--tolerance-c", "inf"], "4.0"),
        (["--tolerance-c", "nan"], "4.0"),
        ([], "1e400"),
    ],
)
def test_verify_rejects_non_finite_tolerance(flags, config_tol, tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(
        '{"group": "torus", "quadruplet": {"H": {"kind": "full"}, "a": 0.0}, '
        f'"tolerance_c": {config_tol}}}'
    )
    assert main(["verify", "--config", str(cfg), "--samples", "100"] + flags) == 2
    assert "field 'tolerance_c'" in capsys.readouterr().err


@pytest.mark.parametrize("group,tol", [("padic", "inf"), ("solenoid", "nan"), ("padic", "1e400")])
def test_haar_demo_rejects_non_finite_tolerance(group, tol, capsys):
    argv = ["haar-demo", "--group", group, "--p", "3", "--samples", "100", "--tolerance-c", tol]
    assert main(argv) == 2
    assert "field 'tolerance_c'" in capsys.readouterr().err


def test_non_finite_tolerance_in_a_config_names_its_field():
    doc = {"group": "torus", "quadruplet": {"H": {"kind": "full"}, "a": 0.0}}
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(doc, tolerance_c=tol))
        assert err.value.field == "tolerance_c"


# The jump layer holds one value per Poisson jump; a config whose expected
# jump count (total eta mass times draws) passes widlaws.sampling.MAX_JUMPS
# is refused before anything is drawn.
def _jumpy(mass, samples, group="torus"):
    """One jump atom of the given mass on the circle or on Z_3 (depth 2)."""
    if group == "padic":
        quadruplet = {"H": {"kind": "lambda", "r": 3}, "a": [0], "eta": [{"point": [1], "mass": mass}]}
        return {"group": "padic", "p": 3, "depth": 2, "samples": samples, "quadruplet": quadruplet}
    quadruplet = {"H": {"kind": "trivial"}, "a": 0.0, "eta": [{"point": 1.0, "mass": mass}]}
    return {"group": "torus", "samples": samples, "quadruplet": quadruplet}


@pytest.mark.parametrize(
    "doc",
    [_jumpy(1e12, 10, group="padic"), _jumpy(1e308, 100000)],
    ids=["padic-1e12", "torus-1e308"],
)
def test_config_over_the_jump_cap_names_eta(doc, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "quadruplet.eta"
    cfg = tmp_path / "jumpy.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "field 'quadruplet.eta'" in capsys.readouterr().err


def test_sample_count_over_the_jump_cap_names_eta(tmp_path, capsys):
    cfg = tmp_path / "jumpy.json"
    cfg.write_text(json.dumps(_jumpy(1e5, 10)))
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", str(cfg), "--count", "10", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 10
    assert main(["sample", "--config", str(cfg), "--count", "1000"]) == 2
    assert "field 'quadruplet.eta'" in capsys.readouterr().err


# --count replaces the config's samples, so the digit and jump caps are
# checked once, against the draws actually made: both configs are over a
# cap at 100,000 draws and well under it at 5.
@pytest.mark.parametrize(
    "doc",
    [
        {"group": "padic", "p": 3, "depth": 120, "quadruplet": _PADIC_HAAR},
        _jumpy(500, 100000),
    ],
    ids=["padic-haar-depth-120", "torus-mass-500"],
)
def test_sample_count_replaces_config_samples_in_the_caps(doc, tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg)]) == 2
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", str(cfg), "--count", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


# exp(i * 1e20 * 0.5) is -0.9391 + 0.3435i, but the float product 1e20 * 0.5
# reduced by a float 2pi gives 0.5835 + 0.8121i on both sides of the gate.
_HUGE_ELL = 10**20


@pytest.mark.parametrize(
    "doc",
    [
        {
            "group": "torus",
            "quadruplet": {"H": {"kind": "trivial"}, "a": 0.5, "b": 0, "eta": []},
            "characters": [_HUGE_ELL, 3],
        },
        {
            "group": "solenoid",
            "p": 3,
            "depth": 2,
            "quadruplet": {"H": {"kind": "trivial"}, "a": 0.5, "b": 0, "eta": []},
            "characters": [[0, 3], [1, -_HUGE_ELL]],
        },
    ],
    ids=["torus", "solenoid"],
)
def test_character_frequency_beyond_2_to_31_is_refused(doc, tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "100"]) == 2
    bad = 0 if doc["group"] == "torus" else 1
    assert f"field 'characters[{bad}]'" in capsys.readouterr().err


def test_character_frequency_of_2_to_31_is_accepted():
    torus = {"group": "torus", "quadruplet": {"H": {"kind": "trivial"}, "a": 0.5}}
    chars = parse_config({**torus, "characters": [2**31, -(2**31)]})[2]
    assert [chi.ell for chi in chars] == [2**31, -(2**31)]
    with pytest.raises(ConfigError) as err:
        parse_config({**torus, "characters": [2**31 + 1]})
    assert err.value.field == "characters[0]"
    solenoid = {
        "group": "solenoid",
        "p": 2,
        "depth": 1,
        "quadruplet": {"H": {"kind": "trivial"}, "a": 0.5},
    }
    assert parse_config({**solenoid, "characters": [[1, -(2**31)]]})[2][0].ell == -(2**31)
    # p-adic frequencies are exact integers with their own envelope
    padic = {
        "group": "padic",
        "p": 3,
        "depth": 25,
        "quadruplet": {"H": {"kind": "lambda", "r": 0}, "a": [0]},
    }
    assert parse_config({**padic, "characters": [[25, 3**26 - 1]]})[2][0].ell == 3**26 - 1


_CONFIG_TORUS = str(pathlib.Path(__file__).parent / "data" / "golden" / "config-torus.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", _CONFIG_TORUS, "--samples", "10", "--seed", "-1"],
        ["sample", "--config", _CONFIG_TORUS, "--count", "3", "--seed", "-1"],
        ["haar-demo", "--group", "padic", "--p", "3", "--samples", "10", "--seed", "-1"],
        ["selftest", "--seed", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_names_its_field(argv, capsys):
    assert main(argv) == 2
    assert "field 'seed'" in capsys.readouterr().err


def test_negative_seed_in_a_config_names_its_field():
    doc = json.loads(pathlib.Path(_CONFIG_TORUS).read_text())
    with pytest.raises(ConfigError) as err:
        parse_config(dict(doc, seed=-1))
    assert err.value.field == "seed"


def _padic_haar(p, depth, **extra):
    haar = {"H": {"kind": "lambda", "r": 0}, "a": [0]}
    return {"group": "padic", "p": p, "depth": depth, "quadruplet": haar, **extra}


def test_prime_of_2_to_32_or_more_is_refused_before_the_primality_test(monkeypatch, tmp_path, capsys):
    # the refusal comes before any modular exponentiation of Miller-Rabin
    def boom(*args):
        raise AssertionError(f"pow ran on {args}")

    monkeypatch.setattr(widlaws.groups, "pow", boom, raising=False)
    doc = _padic_haar(2**61 - 1, 0, characters=[[0, 1]])
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "p"
    cfg = tmp_path / "huge-p.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert "field 'p'" in capsys.readouterr().err


def test_prime_just_below_the_character_envelope_still_verifies(tmp_path):
    # 3037000493**2 < 2**63: the largest prime with a depth-0 character
    doc = _padic_haar(3037000493, 0, characters=[[0, 0], [0, 1], [0, 3037000492]])
    cfg = tmp_path / "big-p.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--samples", "2000", "--out", str(out)]) == 0
    assert all(row["pass"] for row in json.loads(out.read_text())["rows"])


def test_default_padic_set_over_10_to_5_is_refused_before_it_is_built(monkeypatch, tmp_path, capsys):
    # at p = 101 the set would hold about 1.04e8 characters
    def build(d, ell):
        raise AssertionError("a default character was built")

    monkeypatch.setattr(widlaws.groups, "PadicCharacter", build)
    doc = _padic_haar(101, 3)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == "characters"
    cfg = tmp_path / "p101.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert "field 'characters'" in capsys.readouterr().err


def test_default_padic_set_at_p_17_still_parses():
    # 17 + 17**2 + 17**3 + 17**4 = 88,740 characters, under 10**5
    assert len(parse_config(_padic_haar(17, 3))[2]) == 88740


def test_sample_does_not_read_the_characters_field(tmp_path, capsys):
    # at p = 19 the default set holds 137,560 characters: verify refuses
    # it, while sample dumps draws and never reads the field
    cfg = tmp_path / "p19.json"
    cfg.write_text(json.dumps(_padic_haar(19, 3)))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    assert "field 'characters'" in capsys.readouterr().err
    for doc in (_padic_haar(19, 3), _padic_haar(19, 3, characters="bogus")):
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "draws.csv"
        assert main(["sample", "--config", str(cfg), "--count", "20", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 20


@pytest.mark.parametrize(
    "p,extra,field,hint",
    [
        (19, [], "depth", "the deepest depth that fits is 2"),
        (257, ["--depth", "2"], "depth", "the deepest depth that fits is 1"),
        (100003, ["--depth", "0"], "p", "no depth fits at p > 100000"),
    ],
)
def test_haar_demo_over_the_default_set_cap_names_depth_or_p(p, extra, field, hint, capsys):
    # haar-demo lists no characters, so naming them is no remedy: it names
    # the setting that shrinks the default set, with the deepest depth that
    # fits (19 + 19**2 + 19**3 = 7,239 characters; 257 + 257**2 = 66,306;
    # depth 0 alone holds p characters)
    argv = ["haar-demo", "--group", "padic", "--p", str(p), "--samples", "10", *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{field}': the default set at p={p} has " in err
    assert hint in err and "characters'" not in err


def test_sample_at_p_17_builds_no_character(monkeypatch, tmp_path):
    def build(d, ell):
        raise AssertionError("a default character was built")

    monkeypatch.setattr(widlaws.groups, "PadicCharacter", build)
    cfg = tmp_path / "p17.json"
    cfg.write_text(json.dumps(_padic_haar(17, 3)))
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", str(cfg), "--count", "20", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 20


# A float deep angle phi names the real p**depth * phi, which the sampler
# reads below the whole subgroup; phi is refused once ulp(p**depth * phi)
# exceeds 4pi * 1e-6.  At p = 2, depth 40 the bound falls at |phi| = 2**-4.
@pytest.mark.parametrize("field", ["quadruplet.a", "quadruplet.eta[0].point"])
def test_deep_angle_bound_is_closed_form(field):
    def doc(phi, kind="trivial"):
        a, eta = (phi, []) if field == "quadruplet.a" else (0.0, [{"point": phi, "mass": 0.5}])
        quadruplet = {"H": {"kind": kind}, "a": a, "eta": eta}
        return {"group": "solenoid", "p": 2, "depth": 40, "samples": 10, "quadruplet": quadruplet}

    below = math.nextafter(2**-4, 0.0)
    for phi in (below, -below):
        parse_config(doc(phi))
    for phi in (2**-4, -(2**-4)):
        with pytest.raises(ConfigError, match="4pi") as err:
            parse_config(doc(phi))
        assert err.value.field == field
        parse_config(doc(phi, "full"))


def _exact_solenoid(point, field):
    a, eta = {"base": 0.4, "digits": [1, 2, 0]}, [{"point": {"base": 1.0, "digits": [2]}, "mass": 0.3}]
    if field == "quadruplet.a":
        a = point
    else:
        eta.append({"point": point, "mass": 0.2})
    quadruplet = {"H": {"kind": "trivial"}, "a": a, "b": 0.1, "eta": eta}
    return {"group": "solenoid", "p": 3, "depth": 3, "quadruplet": quadruplet}


@pytest.mark.parametrize(
    "point,message",
    [
        ({"base": 0.4, "digits": [0, 1, 0, 1]}, "more than 3 digits"),
        ({"base": 0.4, "digits": [0, 3]}, "not all in 0..2"),
        ({"base": 0.4, "digits": [-1]}, "not all in 0..2"),
        ({"base": 0.4, "digits": 12}, "list of digits"),
        ({"base": float("inf"), "digits": []}, "non-finite"),
        ({"base": float("nan"), "digits": [1]}, "non-finite"),
        ({"base": True, "digits": []}, "expected a number"),
        ({"base": 0.4, "digits": [], "deep_angle": 0.1}, "'base' and 'digits' only"),
        ({"digits": [1]}, "'base' and 'digits' only"),
    ],
)
@pytest.mark.parametrize("field", ["quadruplet.a", "quadruplet.eta[1].point"])
def test_malformed_exact_solenoid_point_names_its_field(point, message, field, tmp_path, capsys):
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps(_exact_solenoid(point, field)))
    assert main(["verify", "--config", str(cfg), "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and message in err


def test_exact_solenoid_point_at_depth_0_verifies(tmp_path):
    doc = _exact_solenoid({"base": 0.4, "digits": []}, "quadruplet.a") | {"depth": 0}
    doc["quadruplet"]["eta"] = [{"point": {"base": 1.0, "digits": []}, "mass": 0.3}]
    cfg = tmp_path / "depth0.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--samples", "2000"]) == 0


_UNWRITABLE = {
    "verify-out": (["verify", "--config", "{config}", "--samples", "200"], "--out"),
    "verify-csv": (["verify", "--config", "{config}", "--samples", "200", "--out", "{ok}"], "--csv"),
    "sample-out": (["sample", "--config", "{config}", "--count", "10"], "--out"),
    "haar-demo-csv": (["haar-demo", "--group", "padic", "--p", "3", "--samples", "200"], "--csv"),
    "selftest-out": (["selftest", "--samples", "300"], "--out"),
}


def _refuse_to_run(monkeypatch):
    """Make every command fail if it reaches its draws or checks."""
    def reached(*args, **kwargs):
        raise AssertionError("the run started before the output paths were checked")

    for name in ("run_suite", "quadruplet_sampler", "_selftest_fixtures"):
        monkeypatch.setattr(widlaws.cli, name, reached)


@pytest.mark.parametrize("argv,option", _UNWRITABLE.values(), ids=_UNWRITABLE.keys())
def test_an_unwritable_output_path_is_a_config_error_naming_its_option(
    argv, option, tmp_path, monkeypatch, capsys
):
    # exit 1 means a verification failed; a path in a missing directory
    # is a usage error, named like an unreadable config file, and it is
    # refused before anything is drawn or written
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": "torus", "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0}}))
    fields = {"config": str(config), "ok": str(tmp_path / "ok.json")}
    argv = [arg.format(**fields) for arg in argv] + [option, str(tmp_path / "missing" / "x")]
    _refuse_to_run(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{option}'" in err and "Traceback" not in err
    assert "PASS" not in err and "FAIL" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("empty", [False, True], ids=["directory", "empty"])
@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_an_output_path_that_names_no_file_is_refused_before_the_run(option, empty, tmp_path, monkeypatch, capsys):
    _refuse_to_run(monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv = ["haar-demo", "--group", "padic", "--p", "3", "--samples", "200", option, "" if empty else "."]
    assert main(argv) == 2
    assert f"config error: field '{option}': " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
