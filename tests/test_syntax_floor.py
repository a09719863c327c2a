"""The oldest Python that ``pyproject.toml`` allows can parse every source file."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_at_the_oldest_allowed_python():
    """``ast.parse`` at the ``requires-python`` floor refuses syntax newer
    than it (``except*``, a ``type`` statement, ...) in ``src``, ``scripts``,
    ``tests`` and ``perfbench``.  The floor is read with a regex, since
    ``tomllib`` is itself newer than 3.10."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                                     pyproject).groups()))
    sources = sorted(path for top in ("src", "scripts", "tests", "perfbench")
                     for path in (ROOT / top).rglob("*.py"))
    assert len(sources) >= 30
    refused = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
