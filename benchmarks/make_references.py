"""Write benchmarks/references.npz, the outputs every benchmark run checks against.

Run from the root of a pdls checkout, on the commit whose outputs are the
reference:

    python3 benchmarks/make_references.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

from run import REFERENCES, WORK_DIR, reference_outputs
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / "references"
    arrays = {}
    try:
        for name in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                values = reference_outputs(name, seed, work)
                if any(v is None for v in values):
                    print(f"error: {name} seed {seed} has failed restores", file=sys.stderr)
                    return 1
                arrays[f"{name}/seed{seed}"] = np.stack(values)
                print(f"{name} seed {seed}: {len(values)} restores")
    finally:
        shutil.rmtree(root / WORK_DIR, ignore_errors=True)
    np.savez(REFERENCES, **arrays)
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
