"""The package namespace: the quick start's names and the workloads' Downsample.

Everything else is imported from its own module. Every name the README, the
tests or the benchmarks reach through ``pdls.`` must resolve, as an
attribute of the package or as one of its modules, and every public
definition of the package must be named by its code or the benchmarks'.
"""

import ast
import importlib.util
import io
import re
import tokenize
from collections import Counter
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


# Definitions that code outside pdls calls by name: argparse calls error().
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _definitions(path):
    """(qualified name, name) of each public module-level function and class of
    the module at path, and of each public method of its classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _code_names(paths):
    """How often each NAME token occurs in the files: code only, not strings or comments."""
    counts = Counter()
    for path in paths:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def test_every_public_definition_is_named_by_the_code():
    # Nothing the tests alone call: each public function, class and method of
    # pdls is named in src/ or benchmarks/ besides its definitions.
    src = sorted((ROOT / "src" / "pdls").glob("**/*.py"))
    defs = [d for path in src for d in _definitions(path)]
    names = _code_names([*src, *sorted((ROOT / "benchmarks").glob("**/*.py"))])
    n_defs = Counter(name for _, name in defs)
    unused = sorted(q for q, name in defs
                    if names[name] <= n_defs[name] and q not in CALLED_FROM_OUTSIDE)
    assert not unused, unused
