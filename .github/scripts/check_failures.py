"""Exit 1 unless the failed and errored tests in a pytest JUnit report are
exactly the expected ones.

    python .github/scripts/check_failures.py REPORT.xml TEST_ID...

Test ids are given as pytest prints them (``tests/test_x.py::test_y``).
Run from the repository root, where the report's dotted class names are
mapped back to test files.  A new failure, and an expected failure that
now passes, both fail the check.
"""

import sys
import xml.etree.ElementTree as ET
from pathlib import Path


def test_id(case: ET.Element) -> str:
    """``path/to/test_file.py::Class::name`` of one <testcase>."""
    parts = case.get("classname", "").split(".")
    for i in range(len(parts), 0, -1):
        path = "/".join(parts[:i]) + ".py"
        if Path(path).is_file():
            return "::".join([path, *parts[i:], case.get("name", "")])
    return "::".join(p for p in (case.get("classname"), case.get("name")) if p)


def main(report: str, *expected: str) -> int:
    failed = {
        test_id(case)
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }
    for name in sorted(failed - set(expected)):
        print(f"unexpected failure: {name}")
    for name in sorted(set(expected) - failed):
        print(f"expected failure now passes: {name}")
    return 0 if failed == set(expected) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
