"""Every test that src/, README.md or ROADMAP.md names must exist.

The numeric core's docstrings and comments, README's contracts and
ROADMAP's plan state what they guarantee or where to look, and name the
test that asserts it. A test renamed or deleted without its citation would
leave a contract that nothing holds. A name may also be a test module's,
such as test_acceptance, and a test under benchmarks/, such as
test_selftest, counts as defined.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\b(?:test_\w+|Test[A-Z]\w*)")


def test_every_test_named_in_src_exists():
    sources = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md", ROOT / "ROADMAP.md"]
    cited = {name for path in sources for name in CITED.findall(path.read_text())}
    tests = [*ROOT.glob("tests/*.py"), *ROOT.glob("benchmarks/test_*.py")]
    defined = {path.stem for path in tests} | {
        name for path in tests
        for name in re.findall(r"^\s*(?:def|class) (\w+)", path.read_text(), re.M)}
    assert cited
    missing = sorted(cited - defined)
    assert not missing, missing
