"""make_rng imports numpy.random without loading OpenSSL.

numpy.random.bit_generator runs `from secrets import randbits` at import,
and secrets imports hmac, which loads _hashlib and OpenSSL's libcrypto.
A process's first make_rng, when neither numpy.random nor secrets is
loaded, imports numpy.random beside a stand-in secrets that holds only
randbits and removes it afterwards.  Each check runs in a fresh
interpreter, since this one has numpy.random loaded already.
"""

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"

_OPENSSL = ("_hashlib", "hmac", "secrets")


def _run(code: str):
    """The value that code, run in a fresh interpreter, prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_the_first_make_rng_loads_no_openssl():
    loaded = _run(
        "import sys\n"
        "from widlaws import make_rng\n"
        "assert 'numpy.random' not in sys.modules\n"
        "make_rng(0)\n"
        f"print([name for name in {_OPENSSL!r} if name in sys.modules])\n"
    )
    assert loaded == []


def test_unseeded_entropy_and_a_later_import_of_secrets_are_the_real_ones():
    entropy, real = _run(
        "import numpy as np\n"
        "from widlaws import make_rng\n"
        "make_rng(0)\n"
        "entropy = np.random.SeedSequence().entropy\n"
        "import secrets\n"
        "print((entropy, hasattr(secrets, 'compare_digest')))\n"
    )
    assert isinstance(entropy, int) and entropy > 0
    assert real


@pytest.mark.parametrize("seed, stream", [(0, 0), (0, 3), (7, 1), (2**63 + 5, 2)])
def test_draws_match_a_plain_philox_generator(seed, stream):
    # this process imported numpy.random with the real secrets
    plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))
    drawn = _run(
        "from widlaws import make_rng\n"
        f"rng = make_rng({seed}, {stream})\n"
        "print([rng.random().hex(), int(rng.integers(0, 2**62)), rng.normal().hex()])\n"
    )
    assert drawn == [plain.random().hex(), int(plain.integers(0, 2**62)), plain.normal().hex()]


@pytest.mark.parametrize("first", ["secrets", "numpy.random"])
def test_a_process_that_loaded_secrets_or_numpy_random_first_is_left_as_it_is(first):
    same, real = _run(
        "import sys\n"
        f"import {first}\n"
        "before = sys.modules.get('secrets')\n"
        "from widlaws import make_rng\n"
        "make_rng(0)\n"
        "print((sys.modules.get('secrets') is before, hasattr(sys.modules['secrets'], 'compare_digest')))\n"
    )
    assert same and real


def test_a_verify_run_imports_no_hashlib(tmp_path):
    argv = [sys.executable, "-X", "importtime", "-m", "widlaws", "verify",
            "--config", str(GOLDEN / "config-padic.json"), "--samples", "300", "--out", str(tmp_path / "r.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "numpy.random" in imported
    assert not set(_OPENSSL) & set(imported)
