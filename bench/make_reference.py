"""Regenerate the reference report CSVs at the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Writes ``bench/reference/<workload>/*.csv`` from one untraced call per
workload.  Do this only when a change is meant to alter a report; the
benchmark's correctness gate compares every default-seed call with these.
"""

from __future__ import annotations

import shutil
import sys

from run import REFERENCE, call_child
from workloads import DEFAULT_SEED, WORKLOADS


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        outdir = REFERENCE / name
        shutil.rmtree(outdir, ignore_errors=True)
        result = call_child(WORKLOADS[name].config(DEFAULT_SEED), outdir,
                            False, False, 600.0)
        if "error" in result or not result["passed"]:
            print(f"{name}: {result.get('error') or result['failed_checks']}",
                  file=sys.stderr)
            return 1
        for p in outdir.iterdir():
            if p.suffix != ".csv":
                p.unlink()
        print(f"{name}: wrote {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
