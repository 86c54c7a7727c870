"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
[--seed N] [--seconds S] [--trace 0|1]``, from the repository root.

Prints a summary, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2 without
a result when the simulator's sources (``src/repro``) are not beside
this directory.
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = ROOT / ".perfbench" / "work"
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # Keep git's repository search (provenance) inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    from perfbench import harness

    os.environ.update(harness.pinned_env(work))
    tempfile.tempdir = os.environ["TMPDIR"]
    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
