"""CLI contract for rejected input: exit code 2 and the offending field
named, before any sampling starts."""

import json
import pathlib

import pytest

import widlaws.cli
import widlaws.groups
from widlaws.cli import ConfigError, main, parse_config


def test_haar_demo_names_depth_field(capsys):
    code = main(["haar-demo", "--group", "padic", "--p", "2", "--depth", "-1", "--samples", "100"])
    assert code == 2
    assert "field 'depth'" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["padic", "solenoid"])
def test_haar_demo_rejects_nonpositive_tolerance(group, capsys):
    argv = ["haar-demo", "--group", group, "--p", "3", "--samples", "100", "--tolerance-c", "-1"]
    assert main(argv) == 2
    assert "field 'tolerance_c'" in capsys.readouterr().err


def test_selftest_rejects_zero_samples_before_running(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before --samples was checked")

    monkeypatch.setattr(widlaws.cli, "oracle_padic_arithmetic", oracle)
    assert main(["selftest", "--samples", "0"]) == 2
    assert "field 'samples'" in capsys.readouterr().err


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


def test_prime_of_2_to_32_or_more_is_refused_before_trial_division(monkeypatch, tmp_path, capsys):
    # trial division of 2**61 - 1 would take about 7.6e8 steps
    def trial_division(p):
        raise AssertionError(f"trial division ran on p={p}")

    monkeypatch.setattr(widlaws.groups, "_is_prime_int", trial_division)
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
