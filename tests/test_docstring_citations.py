"""Every test that src/ or README.md names must exist.

The numeric core's docstrings and comments, and README's contracts, state
what they guarantee and name the test that asserts it. A test renamed or
deleted without its citation would leave a contract that nothing holds.
A name may also be a test module's, such as test_acceptance.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\b(?:test_\w+|Test[A-Z]\w*)")


def test_every_test_named_in_src_exists():
    sources = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md"]
    cited = {name for path in sources for name in CITED.findall(path.read_text())}
    tests = list(ROOT.glob("tests/*.py"))
    defined = {path.stem for path in tests} | {
        name for path in tests
        for name in re.findall(r"^\s*(?:def|class) (\w+)", path.read_text(), re.M)}
    assert cited
    missing = sorted(cited - defined)
    assert not missing, missing
