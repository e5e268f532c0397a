"""Write tests/data/manifest_oracle.npz, the direct-form reference of a whole manifest.

The inputs are those of tests/test_pipeline.py's manifest_batch(): every
shapes32 exemplar blurred by GaussianBlur(7, 1.5) with NoiseModel(0.01,
seed=i), restored with the noise draw of seed i under the default
PdlsConfig, once with label prompts and once with null prompts. Each
restore is composed from the public full-space invert_path and
steered_generate, with the direct (n, K, d) form of the field
(direct_field in tests/test_flowfield.py) in place of
pipeline.marginal_velocity. The file keeps each row's restored point and
its two latent norms. Run from the root of a pdls checkout; it
takes about 12 s on a 2-core machine:

    PYTHONPATH=src python3 tests/data/make_manifest_oracle.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

from test_flowfield import direct_field  # noqa: E402
from test_pipeline import draws, full_space_restore, manifest_batch  # noqa: E402

from pdls import pipeline  # noqa: E402
from pdls.flowfield import EPS_T, Condition  # noqa: E402
from pdls.pipeline import PdlsConfig  # noqa: E402

OUT = TESTS / "data" / "manifest_oracle.npz"
CHUNK = 30  # rows per direct evaluation: bounds its (rows, K, d) temporaries


def direct_velocity(x, t, mixture, cond):
    """pipeline.marginal_velocity (clamped t) through the direct form of the field.

    cond is one Condition or the (n, K) log-weight rows of one per row; rows
    are grouped by the components their condition keeps.
    """
    t = min(t, 1.0 - EPS_T)
    if isinstance(cond, Condition):
        keep = np.broadcast_to(np.isfinite(mixture.log_weights(cond)),
                               (len(x), mixture.n_components))
    else:
        keep = np.isfinite(cond)
    out = np.empty_like(x)
    for mask in np.unique(keep, axis=0):
        labels = {lb for lb, kept in zip(mixture.labels, mask) if kept}
        rows = np.flatnonzero(np.all(keep == mask, axis=1))
        for lo in range(0, len(rows), CHUNK):
            idx = rows[lo:lo + CHUNK]
            _, _, mean = direct_field(x[idx], t, mixture, Condition.of(*labels))
            out[idx] = (mean - x[idx]) / (1.0 - t)
    return out


def main() -> int:
    obs, mixture, labels, seeds = manifest_batch()
    pipeline.marginal_velocity = direct_velocity
    z0 = draws(seeds, obs.shape[1])
    arrays = {}
    for kind, prompts in (("label", [Condition.of(lb) for lb in labels]),
                          ("null", [Condition.null()] * len(labels))):
        paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(), z0)
        arrays[f"{kind}_restored"] = generated[-1]
        end = paths.inversion.terminal
        arrays[f"{kind}_norms"] = np.array([[np.linalg.norm(end[i]), np.linalg.norm(end[j])]
                                            for i, j in enumerate(paths.pair)])
        print(f"{kind} prompts: {len(paths.pair)} rows")
    np.savez(OUT, **arrays)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
