"""Set-up probe: what a widlaws run pays before its first draw.

    python3 perfbench/setup_probe.py CONFIG.json [--manifest]

Imports the CLI, parses the config and builds the quadruplet's sampler
without drawing.  The benchmark times this whole interpreter, from spawn
to exit, as `setup_s`.  With --manifest it also prints one JSON line
describing the environment, for the untimed warm-up probe.
"""

import json
import sys

from widlaws.cli import parse_config
from widlaws.verification import quadruplet_sampler


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    quad, depth, *_ = parse_config(doc)
    quadruplet_sampler(quad, depth=depth)
    if "--manifest" in argv[1:]:
        import platform

        import numpy
        import widlaws
        from widlaws.sampling import make_rng

        print(
            json.dumps(
                {
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "bit_generator": type(make_rng(doc.get("seed", 0)).bit_generator).__name__,
                    "widlaws": widlaws.__version__,
                    "widlaws_file": widlaws.__file__,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
