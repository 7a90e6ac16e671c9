"""Compare two run records written by run.py.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric of both runs and their ratio. Warns when the runs differ
in stencil backend (numba and numpy runs measure different programs), in
library versions or in machine, because their numbers are then not
comparable.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("workload", "size", "kernels_backend", "python", "numpy", "scipy", "click",
              "nproc", "machine", "blas_threads_env")


def compare(a: dict, b: dict) -> list[str]:
    lines = []
    for key in MUST_MATCH:
        if a.get(key) != b.get(key):
            lines.append(f"WARNING: {key} differs: {a.get(key)} vs {b.get(key)}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            lines.append(f"{name}: only in the first run")
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        lines.append(f"{name}: {ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']} (x{ratio:.3f})")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    print("\n".join(compare(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
