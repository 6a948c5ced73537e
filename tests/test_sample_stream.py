"""The sample dump is written in chunks of at most CHUNK draws.

Each case dumps 2 * CHUNK + 3 draws, so the output crosses two chunk
boundaries, and compares it with text built here one draw at a time from
the same batch (the goldens stop at 20 draws, inside the first chunk).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from widlaws import cli
from widlaws.cli import CHUNK, load_config, main, parse_config
from widlaws.groups import solenoid_coordinates
from widlaws.sampling import PadicSamples, SolenoidSamples, make_rng, quadruplet_sampler

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
COUNT = 2 * CHUNK + 3


def _batch(config, count):
    """The batch `sample --config config --count count` draws."""
    quad, depth, _, _, seed, _ = parse_config(load_config(config))
    return quadruplet_sampler(quad, depth=depth)(make_rng(seed, stream=0), count)


def _reference_records(batch):
    """(CSV values, JSON object) per draw, one draw at a time."""
    if isinstance(batch, PadicSamples):
        for row in batch.digits:
            yield row.tolist(), {"digits": row.tolist()}
    elif isinstance(batch, SolenoidSamples):
        deep = batch.deep_angles
        coords = [solenoid_coordinates(batch.p, batch.depth, deep, j) for j in range(batch.depth + 1)]
        for i in range(len(batch)):
            row = [float(deep[i])] + [float(col[i]) for col in coords]
            yield row, {"deep_angle": row[0], "coordinates": row[1:]}
    else:
        for a in batch.angles:
            yield [float(a)], {"angle": float(a)}


def _reference_text(batch, fmt):
    if fmt == "csv":
        lines = [",".join(map(repr, row)) for row, _ in _reference_records(batch)]
    else:
        lines = [json.dumps(record) for _, record in _reference_records(batch)]
    return "".join(line + "\n" for line in lines)


CASES = [(group, fmt) for group in ("torus", "padic", "solenoid") for fmt in ("csv", "jsonl")]


@pytest.mark.parametrize("group,fmt", CASES, ids=["-".join(c) for c in CASES])
def test_dump_across_chunks_matches_a_draw_by_draw_reference(group, fmt, tmp_path, capsys):
    config = str(GOLDEN / f"config-{group}.json")
    argv = ["sample", "--config", config, "--count", str(COUNT), "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == _reference_text(_batch(config, COUNT), fmt)
    out = tmp_path / f"dump.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("group,fmt", CASES, ids=["-".join(c) for c in CASES])
def test_sample_lines_yields_chunks_of_at_most_chunk_draws(group, fmt):
    batch = _batch(str(GOLDEN / f"config-{group}.json"), COUNT)
    chunks = list(cli._sample_lines(batch, fmt))
    assert len(chunks) >= 2
    assert all(chunk.endswith("\n") and chunk.count("\n") <= CHUNK for chunk in chunks)
    assert sum(chunk.count("\n") for chunk in chunks) == COUNT


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_reader_closing_stdout_early_ends_quietly(fmt):
    # a reader like `head -1`: the dump outgrows the pipe buffer, so the
    # sampler is still writing when the reader goes away
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "widlaws", "sample", "--format", fmt,
            "--config", str(GOLDEN / "config-solenoid.json"), "--count", str(3 * CHUNK)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().endswith(b"\n")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "wrote" not in err, err
