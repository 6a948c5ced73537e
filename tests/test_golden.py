"""Byte identity of the machine output against checked-in golden files.

Each case runs one CLI command in-process and compares every file it
writes with tests/data/golden/ byte for byte: verify JSON and CSV, sample
csv and jsonl, and haar-demo JSON, over one config per group.  The
golden bytes depend on numpy's Generator streams (Philox, the ziggurat
normal, the Poisson routine), so a numpy release that changes a stream
changes them too.

Regenerate the files only when the output is meant to change:

    PYTHONPATH=src python3 tests/test_golden.py

The golden cases stop at 2,000 samples and 20 draws, inside the first
row block of a draw (sampling.BLOCK); the row-block case below dumps
16,387 draws of each config, across two block boundaries, and checks
fixed sha256 values.  At scale, CI hashes verify (JSON and CSV) on each
golden config at its default N, 100,000-draw csv and jsonl sample dumps
of it, the JSON of haar-demo at p = 3 on the p-adic integers and the
solenoid at their defaults, the verify JSON of config-jump-cap.json
(10**7 Poisson jumps on 100 draws, split into chunks of
sampling.JUMP_BLOCK jumps) and the verify JSON of config-deep-padic.json
(100,000 Haar draws on Delta_3 at depth 29, read at 11 character
depths), against sha256-default-n.txt, beside the golden files.
Regenerate that file, from the root of the checkout, with:

    d=$(mktemp -d) && for g in torus padic solenoid; do
      c=tests/data/golden/config-$g.json
      PYTHONPATH=src python3 -m widlaws verify --config $c --out $d/verify-$g.json --csv $d/verify-$g.csv
      for f in csv jsonl; do
        PYTHONPATH=src python3 -m widlaws sample --config $c --count 100000 --format $f --out $d/sample-$g.$f
      done
    done && for g in padic solenoid; do
      PYTHONPATH=src python3 -m widlaws haar-demo --group $g --p 3 --out $d/haar-demo-$g-p3.json
    done && for c in jump-cap deep-padic; do
      PYTHONPATH=src python3 -m widlaws verify --config tests/data/golden/config-$c.json --out $d/verify-$c.json
    done && (cd $d && sha256sum verify-* sample-* haar-demo-*) > tests/data/golden/sha256-default-n.txt
"""

import hashlib
import pathlib
import shutil
import sys

import pytest

from widlaws.cli import main
from widlaws.sampling import BLOCK

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
GROUPS = ("torus", "padic", "solenoid")


def _cases():
    """(name, argv, output files) per golden case; argv names its outputs
    by their golden file names, relative to the working directory."""
    cases = []
    for group in GROUPS:
        config = str(GOLDEN / f"config-{group}.json")
        out, table = f"verify-{group}.json", f"verify-{group}.csv"
        argv = ["verify", "--config", config, "--samples", "2000", "--out", out, "--csv", table]
        cases.append((f"verify-{group}", argv, (out, table)))
        for fmt in ("csv", "jsonl"):
            out = f"sample-{group}.{fmt}"
            argv = ["sample", "--config", config, "--count", "20", "--format", fmt, "--out", out]
            cases.append((f"sample-{group}-{fmt}", argv, (out,)))
    for group in ("padic", "solenoid"):
        out = f"haar-{group}-p3.json"
        argv = ["haar-demo", "--group", group, "--p", "3", "--depth", "2", "--samples", "2000",
                "--seed", "3", "--out", out]
        cases.append((f"haar-{group}", argv, (out,)))
    return cases


CASES = _cases()


@pytest.mark.parametrize("argv,outputs", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_machine_output_is_byte_identical(argv, outputs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# sha256 of `sample --format csv --count 16387` on each golden config, as
# written by the sampler that drew every batch whole, in int64 digits.
# 16387 = 2 * 8192 + 3 draws cross two row blocks of the draw.
BLOCK_DUMP_COUNT = 16387
BLOCK_DUMP_SHA256 = {
    "torus": "fbf393843378430b2b6f939caadb53dc2dad5b8024ab5ce235b609ad92bcd9d9",
    "padic": "02e5a8a080c93b4c25cb09253a711f9bb4c720fd67363a33fe69744b21a6c555",
    "solenoid": "fe83ec2605c4bbcf850728fb5aaa0583212f19a0d06bc1450554230eab603684",
}


@pytest.mark.parametrize("group", GROUPS)
def test_sample_dump_across_row_blocks_keeps_its_hash(group, tmp_path):
    assert BLOCK_DUMP_COUNT > 2 * BLOCK
    out = tmp_path / "dump.csv"
    argv = ["sample", "--config", str(GOLDEN / f"config-{group}.json"),
            "--count", str(BLOCK_DUMP_COUNT), "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOCK_DUMP_SHA256[group]


if __name__ == "__main__":
    work = GOLDEN / "_regen"
    work.mkdir(exist_ok=True)
    try:
        for _, argv, outputs in CASES:
            argv = [str(work / a) if a in outputs else a for a in argv]
            if main(argv) != 0:
                sys.exit(f"golden case failed: {argv}")
            for name in outputs:
                shutil.move(str(work / name), str(GOLDEN / name))
    finally:
        shutil.rmtree(work)
