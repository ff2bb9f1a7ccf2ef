"""The README *Environment knobs* table matches the knobs the code reads.

A knob is "read" when its name appears as a whole string literal (an
``os.environ`` key or the constant one is looked up through) in a module
under ``src/repro`` or ``benchmarks/``.  Docstrings that merely mention a
knob do not count.  ``tests/`` and ``e2ebench/`` are out of scope: they
hold test-only switches and the benchmark harness.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _knobs_read():
    names = set()
    for base in ("src/repro", "benchmarks"):
        for path in sorted((ROOT / base).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and KNOB.fullmatch(node.value)
                ):
                    names.add(node.value)
    return names


def _knob_table():
    """Knob names of the README table's first column."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Environment knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `REPRO_"):
            continue
        names.update(KNOB.findall(line.split("|")[1]))
    return names


def test_every_knob_read_has_a_row():
    missing = _knobs_read() - _knob_table()
    assert not missing, f"knobs without a README row: {sorted(missing)}"


def test_every_row_names_a_knob_that_is_read():
    stale = _knob_table() - _knobs_read()
    assert not stale, f"README rows for unread knobs: {sorted(stale)}"


def test_table_parses():
    assert "REPRO_STORE_DIR" in _knob_table()
    assert "REPRO_STORE_DIR" in _knobs_read()
