import io
import re
import tokenize
import types
from collections import Counter
from pathlib import Path

import qcopies

ROOT = Path(__file__).resolve().parent.parent


def _code_names(text: str) -> Counter:
    """How often each name appears in the code of a Python source: its NAME
    tokens, so comments and strings do not count, less those a definition
    binds (`def name`, `class name`, or `name = ...` / `name: ...` at the
    start of a line)."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type in (tokenize.NAME, tokenize.OP)]
    names = Counter()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type != tokenize.NAME or (prev is not None and prev.string in ("def", "class")):
            continue
        if tok.start[1] == 0 and nxt is not None and nxt.string in ("=", ":"):
            continue
        names[tok.string] += 1
    return names


def _uses() -> Counter:
    """Name uses in the package modules other than `__init__.py`, the demos,
    the benchmark scripts and the README: the code and commands that use
    the library, as opposed to its tests.  The Python files count code
    tokens only; the README counts every whole-word mention."""
    paths = [p for p in sorted((ROOT / "src" / "qcopies").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    uses = Counter()
    for p in paths:
        uses += _code_names(p.read_text(encoding="utf-8"))
    uses += Counter(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return uses


def test_every_public_name_has_a_user():
    """Each non-module public name of `qcopies` has a use in `_uses()`
    beyond its own definition, so no exported symbol is kept for the tests
    alone.  Methods and attributes of the exported classes are not
    covered."""
    uses = _uses()
    unused = [name for name in sorted(vars(qcopies))
              if not name.startswith("_")
              and not isinstance(getattr(qcopies, name), types.ModuleType)
              and uses[name] < 1]
    assert unused == []


def test_comments_and_strings_are_not_uses():
    text = '''
# helper is named here
def helper():
    """helper, again"""
    return "helper"

other = helper
value: int = 1
'''
    names = _code_names(text)
    assert names["helper"] == 1 and names["other"] == 0 and names["value"] == 0
