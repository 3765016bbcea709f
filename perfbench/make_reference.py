"""Write reference/ from the README's canonical commands.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs become the
reference; the files in reference/ were written at the seed commit.
The benchmark compares its canonical runs with them (see checks.py).
"""

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REF = BENCH / "reference"

COMMANDS = [
    ("dispersion", ["dispersion", "--config", "configs/case2_symmetric.json",
                    "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7",
                    "--grid", "100"]),
    ("transmission", ["transmission", "--config", "configs/case2_symmetric.json",
                      "--kappa", "0.02", "--omega-range", "1.40:1.55",
                      "--grid", "400"]),
    ("find-mode", ["find-mode", "--config", "configs/case2_symmetric.json",
                   "--kappa-range=-0.25:0.25", "--omega-range", "1.3:1.7"]),
    ("tune", ["tune", "--config", "configs/case1_seed.json",
              "--kappa-range", "0.08:0.32", "--omega-range", "1.30:1.46",
              "--param-range", "0.05:0.8"]),
    ("analyze", ["analyze", "--config", "perfbench/reference/tune/tuned_config.json",
                 "--kappa-range", "0.09:0.30", "--omega-range", "1.30:1.46",
                 "--kappa-tilde", "0.01"]),
]


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from slabresonance import cli

    for name, argv in COMMANDS:
        out = REF / name
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(out.relative_to(BENCH.parent))])
        if rc != 0:
            print(f"{name}: exit {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
