"""The process entry: `python -m widlaws` and the `widlaws` script run
cli.run(), which exits with main()'s code after freezing the collector,
so that the interpreter's shutdown skips its cyclic collections.  main()
called in a process of its own keeps normal collection."""

import gc
import importlib
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

import widlaws.cli
from widlaws.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"


def test_main_in_process_returns_its_code_and_freezes_nothing(tmp_path, capsys):
    before = gc.get_freeze_count()
    out = tmp_path / "report.json"
    argv = ["verify", "--config", str(GOLDEN / "config-torus.json"), "--samples", "1000", "--out", str(out)]
    assert main(argv) == 0 and out.stat().st_size > 0
    assert main(["selftest", "--samples", "0"]) == 2
    assert "field 'samples'" in capsys.readouterr().err
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_exits_with_mains_code_after_freezing_the_collector(code, monkeypatch):
    monkeypatch.setattr(widlaws.cli, "main", lambda: code)
    try:
        with pytest.raises(SystemExit) as exit_:
            widlaws.cli.run()
        assert exit_.value.code == code and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_python_m_widlaws_calls_the_scripts_target(monkeypatch):
    # read by regex: tomllib is newer than the 3.10 floor
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").partition("[project.scripts]")[2]
    module, name = re.search(r'^widlaws\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(name))
    runpy.run_module("widlaws", run_name="__main__")
    assert calls == [name]


def _outputs(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--config", str(GOLDEN / "config-padic.json"), "--out", "{d}/report.json", "--csv", "{d}/rows.csv"],
        ["sample", "--config", str(GOLDEN / "config-solenoid.json"), "--count", "5000", "--out", "{d}/draws.csv"],
        ["selftest", "--samples", "300", "--out", "{d}/selftest.json"],
    ],
    ids=["verify", "sample", "selftest"],
)
def test_no_output_waits_for_a_shutdown_finalizer(command, tmp_path):
    # -X dev reports a file left for the collector to close as a
    # ResourceWarning, and an error in a finalizer as "Exception ignored";
    # a file kept open to the end, which the frozen collector never
    # flushes, shows as an empty output
    runs = {}
    for mode, flags in (("plain", []), ("dev", ["-X", "dev"])):
        directory = tmp_path / mode
        directory.mkdir()
        argv = [sys.executable, *flags, "-m", "widlaws", *(arg.format(d=directory) for arg in command)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        runs[mode] = proc.returncode, proc.stdout, _outputs(directory)
        assert "ResourceWarning" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    assert runs["dev"] == runs["plain"]
    code, stdout, files = runs["plain"]
    assert code == 0 and stdout == "" and all(files.values())
