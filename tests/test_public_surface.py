import re
import types
from pathlib import Path

import qcopies

ROOT = Path(__file__).resolve().parent.parent


def _users() -> str:
    """The package modules other than `__init__.py`, the demos, the
    benchmark scripts and the README: the code and commands that use the
    library, as opposed to its tests."""
    paths = [p for p in sorted((ROOT / "src" / "qcopies").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    paths.append(ROOT / "README.md")
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_public_name_has_a_user():
    """Each non-module public name of `qcopies` appears in `_users()` at
    least once beyond its own definition (`def name`, `class name` or
    `name = ...` at the start of a line), so no exported symbol is kept
    for the tests alone.  Methods and attributes of the exported classes
    are not covered."""
    text = _users()
    unused = []
    for name in sorted(vars(qcopies)):
        if name.startswith("_") or isinstance(getattr(qcopies, name), types.ModuleType):
            continue
        uses = len(re.findall(rf"\b{name}\b", text))
        definitions = len(re.findall(rf"^(?:def |class )?{name}\b(?:\s*=|\(|:)", text, re.M))
        if uses - definitions < 1:
            unused.append(name)
    assert unused == []
