"""CLI contract: exit codes, formats, reproducibility."""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np

from widlaws.cli import main, parse_config
from widlaws.groups import canonical_angle
from widlaws.sampling import make_rng, quadruplet_sampler

TORUS_CFG = {
    "group": "torus",
    "quadruplet": {
        "H": {"kind": "cyclic", "r": 2},
        "a": 0.0,
        "b": 0.5,
        "eta": [{"point": 2.1, "mass": 1.1}],
    },
    "samples": 5000,
    "seed": 42,
}

PADIC_CFG = {
    "group": "padic",
    "p": 2,
    "depth": 3,
    "quadruplet": {
        "H": {"kind": "lambda", "r": 1},
        "a": [1, 1, 0, 0],
        "b": 0,
        "eta": [{"point": [1, 0, 1, 0], "mass": 0.8}],
    },
    "samples": 5000,
    "seed": 7,
}

SOLENOID_CFG = {
    "group": "solenoid",
    "p": 2,
    "depth": 3,
    "quadruplet": {
        "H": {"kind": "trivial"},
        "a": 0.5,
        "b": 0.3,
        "eta": [{"point": 0.9, "mass": 0.7}],
    },
    "samples": 5000,
    "seed": 9,
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_passes_and_writes_versioned_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TORUS_CFG)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    code = main(["verify", "--config", cfg, "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert doc["overall_pass"] is True
    assert len(doc["rows"]) == 17
    assert doc["config"]["samples"] == 5000
    # report document round-trips losslessly
    assert json.loads(json.dumps(doc)) == doc
    header = csv_path.read_text().splitlines()[0]
    assert header == "character,re_theory,im_theory,re_emp,im_emp,abs_err,tol,pass"


def test_verify_exit_1_on_verification_failure(tmp_path):
    doc = dict(TORUS_CFG)
    doc["tolerance_c"] = 0.0001
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["overall_pass"] is False


def test_verify_exit_2_on_malformed_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"group": "torus"})
    assert main(["verify", "--config", cfg]) == 2
    assert "quadruplet" in capsys.readouterr().err

    doc = {"group": "klein-bottle", "quadruplet": {}}
    assert main(["verify", "--config", write_cfg(tmp_path, doc, "k.json")]) == 2
    assert "group" in capsys.readouterr().err

    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_verify_rejects_identity_atom_with_levy_condition_message(tmp_path, capsys):
    doc = json.loads(json.dumps(PADIC_CFG))
    doc["quadruplet"]["eta"].append({"point": [0, 0, 0, 0], "mass": 1.0})
    cfg = write_cfg(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 2
    assert "η({e})=0" in capsys.readouterr().err


def test_cli_overrides_config_fields(tmp_path):
    cfg = write_cfg(tmp_path, TORUS_CFG)
    out = tmp_path / "r.json"
    code = main(["verify", "--config", cfg, "--samples", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["samples"] == 2000
    assert doc["config"]["seed"] == 1


def test_sample_torus_lines_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, TORUS_CFG)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["sample", "--config", cfg, "--count", "3", "--out", str(a)]) == 0
    assert main(["sample", "--config", cfg, "--count", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        angle = float(line)
        assert -math.pi <= angle < math.pi


def test_sample_padic_digit_lines(tmp_path):
    cfg = write_cfg(tmp_path, PADIC_CFG)
    out = tmp_path / "digits.csv"
    assert main(["sample", "--config", cfg, "--count", "50", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        digits = [int(v) for v in line.split(",")]
        assert len(digits) == 4
        assert all(0 <= d <= 1 for d in digits)
    # jsonl form carries the same digits
    out2 = tmp_path / "digits.jsonl"
    assert main(["sample", "--config", cfg, "--count", "5", "--format", "jsonl", "--out", str(out2)]) == 0
    rows = [json.loads(line) for line in out2.read_text().splitlines()]
    assert all(set(r) == {"digits"} for r in rows)


def test_sample_solenoid_coordinates_cohere(tmp_path):
    cfg = write_cfg(tmp_path, SOLENOID_CFG)
    out = tmp_path / "sol.csv"
    assert main(["sample", "--config", cfg, "--count", "40", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        vals = [float(v) for v in line.split(",")]
        deep, coords = vals[0], vals[1:]
        assert len(coords) == 4
        assert coords[-1] == deep
        for j in range(3):
            residual = (2 * coords[j + 1] - coords[j]) / (2 * math.pi)
            assert abs(residual - round(residual)) <= 1e-9


def test_haar_demo_padic(tmp_path):
    out = tmp_path / "haar.json"
    code = main(
        ["haar-demo", "--group", "padic", "--p", "2", "--depth", "3",
         "--samples", "20000", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is True
    assert len(doc["rows"]) == 2 + 4 + 8 + 16
    for row in doc["rows"]:
        theory = complex(row["re_theory"], row["im_theory"])
        assert theory in (0, 1)


def test_selftest_small_run(tmp_path):
    out = tmp_path / "self.json"
    code = main(["selftest", "--samples", "4000", "--seed", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert doc["overall_pass"] is True
    assert [c["name"] for c in doc["selftest"]] == [
        "padic-arithmetic-oracle",
        "centering-bound-grid",
        "depth-compatibility",
        "convolution-divisibility",
    ]


def test_verify_torus_haar_at_full_scale_is_fast(tmp_path):
    import time

    cfg = write_cfg(
        tmp_path,
        {
            "group": "torus",
            "quadruplet": {"H": {"kind": "full"}, "a": 0.0, "b": 0, "eta": []},
            "samples": 100_000,
            "seed": 8,
        },
    )
    out = tmp_path / "r.json"
    start = time.perf_counter()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0


def test_selftest_fails_with_injected_arithmetic_bug(tmp_path, monkeypatch):
    import widlaws.groups
    from widlaws import PadicInt

    real_add = widlaws.groups.padic_add

    def broken_add(x, y):
        out = real_add(x, y)
        digits = list(out.digits)
        digits[0] = (digits[0] + 1) % x.p
        return PadicInt(x.p, tuple(digits))

    monkeypatch.setattr(widlaws.groups, "padic_add", broken_add)
    out = tmp_path / "self.json"
    code = main(["selftest", "--samples", "500", "--seed", "1", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is False
    assert doc["selftest"][0] == {"name": "padic-arithmetic-oracle", "pass": False}


def test_config_rejects_character_deeper_than_depth(tmp_path, capsys):
    doc = json.loads(json.dumps(PADIC_CFG))
    doc["characters"] = [[5, 1]]
    assert main(["verify", "--config", write_cfg(tmp_path, doc)]) == 2
    assert "characters[0]" in capsys.readouterr().err


def test_the_cli_loads_no_scipy_module():
    # scipy is a test dependency only: a fresh interpreter that imports the
    # CLI, and with it every module of the library, must not load it
    code = "import sys, widlaws.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_machine_output_is_byte_identical_across_processes(tmp_path):
    cfg = write_cfg(tmp_path, SOLENOID_CFG)

    def run():
        return subprocess.run(
            [sys.executable, "-m", "widlaws", "verify", "--config", cfg],
            capture_output=True,
            check=False,
        )

    r1, r2 = run(), run()
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout) > 0


# A solenoid point in a config may be given exactly, as the batch row
# (base angle, digits) it is stored as.
def _exact_point_mass(p, depth, seed):
    digits = np.random.default_rng(seed).integers(0, p, size=depth).tolist()
    a = {"base": 2.5, "digits": digits}
    return {"group": "solenoid", "p": p, "depth": depth, "quadruplet": {"H": {"kind": "trivial"}, "a": a}}


def test_exact_point_mass_at_depth_45_is_drawn_and_read_bit_for_bit(tmp_path):
    doc = _exact_point_mass(3, 45, 45)
    doc["characters"] = [[0, 1], [1, -2], [20, 5], [44, -7], [45, 1], [45, 8]]
    quad, depth, _, _, seed, _ = parse_config(doc)
    assert list(quad.shift.digits) == doc["quadruplet"]["a"]["digits"]
    batch = quadruplet_sampler(quad, depth)(make_rng(seed), 1000)
    for j, column in enumerate(batch.columns(0, len(batch))[1:]):
        assert np.all(column == quad.shift.coordinate_angle(j)), j
    # every draw is the point, so a row's one-draw mean is chi(a) itself
    out = tmp_path / "report.json"
    assert main(["verify", "--config", write_cfg(tmp_path, doc), "--samples", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 6 and all(row["abs_err"] == 0.0 for row in rows)


def test_exact_point_carries_the_whole_turns_of_its_base():
    doc = _exact_point_mass(3, 1, 0)
    doc["quadruplet"]["a"] = {"base": 7.0, "digits": [2]}
    shift = parse_config(doc)[0].shift
    assert shift.base == canonical_angle(7.0) and shift.digits == (0,)
    doc = _exact_point_mass(5, 0, 0)
    doc["quadruplet"]["a"] = {"base": 7.0, "digits": []}
    shift = parse_config(doc)[0].shift
    assert shift.base == canonical_angle(7.0) and shift.digits == ()


def test_verify_echo_fed_back_as_a_config_reproduces_the_report(tmp_path):
    golden = pathlib.Path(__file__).parent / "data" / "golden" / "config-solenoid.json"
    deep = write_cfg(tmp_path, _exact_point_mass(3, 40, 40) | {"seed": 3}, "deep.json")
    for config in (str(golden), deep):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["verify", "--config", config, "--samples", "2000", "--out", str(first)]) == 0
        echo = json.loads(first.read_text())["config"]
        assert set(echo["quadruplet"]["a"]) == {"base", "digits"}
        quad = echo["quadruplet"]
        cfg = write_cfg(tmp_path, echo | {"group": quad["group"], "p": quad["p"]}, "echo.json")
        assert main(["verify", "--config", cfg, "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
