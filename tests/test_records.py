"""The records' contracts: which compare by value, what an ImageGrid checks at
construction and the operators and the noise model when applied. Identity records are held by
test_results_compare_and_hash_by_identity, and an import without the
dataclasses module by test_import_loads_no_dataclasses.
"""

import re

import numpy as np
import pytest

from pdls.degrade import (
    Downsample,
    FreeformMask,
    GaussianBlur,
    Identity,
    ImageGrid,
    MotionBlur,
    NoiseModel,
    apply,
)
from pdls.flowfield import Condition
from pdls.metrics import MetricsReport
from pdls.pipeline import PdlsConfig


def test_value_records_compare_and_hash_by_value():
    assert {Condition.of("disk"): 1}[Condition.of("disk", "disk")] == 1
    assert Condition.null() == Condition() != Condition.of("disk")
    assert PdlsConfig() == PdlsConfig()
    mask = ImageGrid(np.eye(4))
    for a, b in ((PdlsConfig(), PdlsConfig(0.5, 0.5, 28, "structural", "prompt", "cosine")),
                 (NoiseModel(0.1, 3), NoiseModel(sigma_y=0.1, seed=3)),
                 (Downsample(), Downsample(factor=8)),
                 (GaussianBlur(), GaussianBlur(7, 1.5)),
                 (MotionBlur(), MotionBlur(7, 0.5, 45.0)),
                 (Identity(), Identity()),
                 (MetricsReport(0.1, 10.0), MetricsReport(0.1, 10.0, None, None))):
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert FreeformMask(mask, (0.15, 2)) == FreeformMask(ImageGrid(np.eye(4)), (0.15, 2))
    with pytest.raises(TypeError, match="unhashable"):
        hash(mask)
    # Every value counts, and so does the class of a record that is no tuple.
    for changed in ({"gamma": 0.25}, {"eta_max": 0.25}, {"n_steps": 27}, {"init_mode": "mixed"},
                    {"base_condition": "null"}, {"schedule_kind": "constant"}):
        assert PdlsConfig(**changed) != PdlsConfig()
    assert NoiseModel(0.1, 3) != NoiseModel(0.1, 4) and Downsample(4) != Downsample(8)
    assert PdlsConfig() != (0.5, 0.5, 28, "structural", "prompt", "cosine")
    assert GaussianBlur(1, 1.0) != MotionBlur(1, 1.0)
    # The NamedTuples equal the plain tuple of their values.
    assert GaussianBlur() == (7, 1.5) and Downsample() == (8,) and Identity() == ()
    assert NoiseModel() == (0.0, 0) and hash(NoiseModel(0.1, 3)) == hash((0.1, 3))
    with pytest.raises(AttributeError):
        NoiseModel().sigma_y = 0.1
    assert MetricsReport(0.1, 10.0) == (0.1, 10.0, None, None)
    for record in (PdlsConfig(gamma=0.25), NoiseModel(0.1, 3), Downsample(4)):
        assert eval(repr(record), {type(record).__name__: type(record)}) == record


RAISES = [
    (PdlsConfig, {"gamma": 1.5}, "gamma must lie in [0, 1]"),
    (PdlsConfig, {"eta_max": -0.1}, "eta_max must lie in [0, 1]"),
    (PdlsConfig, {"n_steps": 0}, "n_steps must lie in [1, 1 / EPS_T = 1000]"),
    (PdlsConfig, {"n_steps": 1001}, "n_steps must lie in [1, 1 / EPS_T = 1000]"),
    (PdlsConfig, {"init_mode": "both"}, "init_mode must be one of ('structural', "),
    (PdlsConfig, {"base_condition": "label"}, "base_condition must be one of ('prompt', "),
    (PdlsConfig, {"schedule_kind": "step"}, "schedule_kind must be one of ('cosine', "),
    (ImageGrid, {"pixels": np.zeros(4)}, "image must be 2-D"),
    (ImageGrid, {"pixels": np.zeros((1, 2, 2))}, "image must be 2-D"),
]


@pytest.mark.parametrize("record, args, message", RAISES,
                         ids=[f"{record.__name__}-{'+'.join(args)}" for record, args, _ in RAISES])
def test_records_raise_at_construction(record, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record(**args)


APPLY_RAISES = [
    (Downsample(0), "factor must be >= 1"),
    (Downsample(-8), "factor must be >= 1"),
    (GaussianBlur(4), "kernel size must be odd and >= 1, not 4"),
    (GaussianBlur(7, 0.0), "sigma must be finite and positive, not 0.0"),
    (MotionBlur(7, 1.5), "intensity must lie in (0, 1]"),
    (MotionBlur(7, 0.5, np.nan), "angle must be finite, not nan"),
    (NoiseModel(np.nan), "sigma_y must be finite and non-negative"),
    (NoiseModel(-0.1, 2), "sigma_y must be finite and non-negative"),
]


@pytest.mark.parametrize("op, message", APPLY_RAISES, ids=[repr(op) for op, _ in APPLY_RAISES])
def test_operator_parameters_are_checked_when_applied(op, message):
    # A noise model is checked when it is applied after the identity operator.
    op, noise = (Identity(), op) if isinstance(op, NoiseModel) else (op, NoiseModel())
    with pytest.raises(ValueError, match=re.escape(message)):
        apply(op, ImageGrid(np.zeros((32, 32))), noise)
