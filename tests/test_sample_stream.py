"""The sample dump is written in chunks of at most CHUNK draws.

Each case dumps 2 * CHUNK + 3 draws, so the output crosses two chunk
boundaries, and compares it with text built here one draw at a time from
the same batch (the goldens stop at 20 draws, inside the first chunk).
The last test draws, combines and dumps a solenoid batch at depth 45.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from widlaws import cli
from widlaws.cli import CHUNK, load_config, main, parse_config
from widlaws.groups import PadicIntegers, Solenoid, SolenoidCharacter, solenoid_tower
from widlaws.sampling import make_rng, quadruplet_sampler

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
COUNT = 2 * CHUNK + 3


def _batch(config, count):
    """The batch `sample --config config --count count` draws."""
    quad, depth, _, _, seed, _ = parse_config(load_config(config))
    return quadruplet_sampler(quad, depth=depth)(make_rng(seed, stream=0), count)


def _reference_records(batch):
    """(CSV values, JSON object) per draw, one draw at a time."""
    if isinstance(batch.group, PadicIntegers):
        for row in batch.digits:
            yield row.tolist(), {"digits": row.tolist()}
    elif isinstance(batch.group, Solenoid):
        # one sweep over the whole batch, not chunk by chunk
        p, depth = batch.group.p, batch.digits.shape[1]
        coords = list(solenoid_tower(p, batch.real, batch.digits))
        deep = batch.group.coordinate(batch.real, batch.digits, depth)
        for i in range(len(batch)):
            row = [float(deep[i])] + [float(col[i]) for col in coords]
            yield row, {"deep_angle": row[0], "coordinates": row[1:]}
    else:
        for a in batch.real:
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


def test_deep_solenoid_batch_samples_combines_and_dumps(tmp_path, capsys):
    # p**45 ~ 3e21: far past where one float deep angle kept coordinate 0
    p, depth = 3, 45
    doc = {
        "group": "solenoid",
        "p": p,
        "depth": depth,
        "samples": 4000,
        "seed": 7,
        "quadruplet": {"H": {"kind": "trivial"}, "a": 0.0, "b": 0.3},
    }
    quad = parse_config(doc)[0]
    sampler = quadruplet_sampler(quad, depth=depth)
    batch = sampler(make_rng(7, 0), 4000).combine(sampler(make_rng(7, 1), 4000))
    assert batch.digits.shape == (4000, depth)
    # the product of two Gauss(0.3) draws is Gauss(0.6): coordinate d has
    # variance 0.6 / p**(2d)
    for d, ell in ((0, 1), (1, 2), (depth, 1)):
        want = math.exp(-0.6 * ell**2 / p ** (2 * d) / 2)
        got = batch.char_mean(SolenoidCharacter(d, ell))
        assert abs(got - want) <= 4 / math.sqrt(4000), (d, ell)
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(doc))
    for fmt in ("csv", "jsonl"):
        assert main(["sample", "--config", str(config), "--count", "50", "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 50
        for line in lines:
            if fmt == "csv":
                deep, *coords = map(float, line.split(","))
            else:
                record = json.loads(line)
                deep, coords = record["deep_angle"], record["coordinates"]
            assert len(coords) == depth + 1 and coords[-1] == deep
            assert all(-math.pi <= c < math.pi for c in coords)
            for j in range(depth):
                turns = (p * coords[j + 1] - coords[j]) / (2 * math.pi)
                assert abs(turns - round(turns)) <= 1e-9
