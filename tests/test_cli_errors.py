"""CLI contract for rejected input: exit code 2 and the offending field
named, before any sampling starts."""

import json

import pytest

import widlaws.cli
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
