"""Time ``import pdls`` in this fresh interpreter, as measured and at reference speed.

Run from the root of a pdls checkout (run.py does, for ``setup_s``):

    python3 benchmarks/import_probe.py

It prints two numbers: the measured seconds and the seconds at the
reference core speed of speed.py. NumPy is imported first, because the
speed sampler needs it, so the time covers SciPy and pdls.
"""

import sys
import time

sys.path.insert(0, "src")

from speed import SpeedSampler  # noqa: E402

with SpeedSampler() as sampler:
    start = time.perf_counter()
    import pdls  # noqa: E402,F401
    end = time.perf_counter()
print(end - start, (end - start) * sampler.factor(start, end))
