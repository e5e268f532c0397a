"""Every test that src/ names must exist.

The numeric core's docstrings and comments state what they guarantee and
name the test that asserts it. A test renamed or deleted without its
citation would leave a contract that nothing holds.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\b(?:test_\w+|Test[A-Z]\w*)")


def test_every_test_named_in_src_exists():
    cited = {name for path in (ROOT / "src").rglob("*.py")
             for name in CITED.findall(path.read_text())}
    defined = {name for path in ROOT.glob("tests/*.py")
               for name in re.findall(r"^\s*(?:def|class) (\w+)", path.read_text(), re.M)}
    assert cited
    missing = sorted(cited - defined)
    assert not missing, missing
