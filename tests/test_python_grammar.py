"""The package declares ``requires-python = ">=3.10"``: every ``.py`` file
under ``src/``, ``tests/`` and ``bench/`` must parse with Python 3.10's
grammar, which refuses newer syntax such as ``except*`` (3.11) or a
``type`` statement (3.12).

This checks grammar only. It does not check stdlib APIs: a call to a
function that 3.10 lacks (``datetime.UTC``, say) passes here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_the_check_sees_the_sources():
    assert ROOT / "src" / "sw_sentinel" / "cli.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_source_parses_with_the_310_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_310_grammar_refuses_except_star():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
