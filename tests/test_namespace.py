"""The package namespace: the quick start's names and the workloads' Downsample.

Everything else is imported from its own module. Every name the README, the
tests or the benchmarks reach through ``pdls.`` must resolve, as an
attribute of the package or as one of its modules.
"""

import importlib.util
import re
from pathlib import Path

import pdls

ROOT = Path(__file__).resolve().parents[1]
QUICK_START = {"Condition", "GaussianBlur", "ImageGrid", "NoiseModel", "PdlsConfig",
               "apply", "exemplar_mixture", "psnr", "restore", "shapes32_dataset"}


def test_namespace_holds_the_quick_start_and_downsample():
    assert sorted(pdls.__all__) == sorted(QUICK_START | {"Downsample"})
    assert all(hasattr(pdls, name) for name in pdls.__all__)


def test_every_name_reached_through_pdls_resolves():
    names = set()
    for path in [ROOT / "README.md", *ROOT.glob("benchmarks/*.py"), *ROOT.glob("tests/*.py")]:
        text = path.read_text()
        names.update(re.findall(r"\bpdls\.(\w+)", text))
        for block in re.findall(r"from pdls import (\([^)]*\)|[\w, ]+)", text):
            names.update(re.findall(r"\w+", block))
    assert QUICK_START <= names
    missing = sorted(n for n in names
                     if not hasattr(pdls, n) and importlib.util.find_spec(f"pdls.{n}") is None)
    assert not missing, missing
