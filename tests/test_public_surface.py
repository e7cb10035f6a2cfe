import ast
import inspect
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


def _user_paths() -> list[Path]:
    """The package modules other than `__init__.py`, the demos and the
    benchmark scripts: the code that uses the library, as opposed to its
    tests."""
    paths = [p for p in sorted((ROOT / "src" / "qcopies").glob("*.py")) if p.name != "__init__.py"]
    return paths + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _uses() -> Counter:
    """Name uses in `_user_paths()` and the README.  The Python files count
    code tokens only; the README counts every whole-word mention."""
    uses = Counter()
    for p in _user_paths():
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


def _readme_code() -> list[str]:
    """The README's fenced blocks and inline code spans that parse as Python."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    spans += re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text,
                                                flags=re.DOTALL | re.MULTILINE))
    code = []
    for span in spans:
        try:
            ast.parse(span)
        except SyntaxError:
            continue
        code.append(span)
    return code


def _call_shapes(source: str, calls: dict) -> None:
    """Add every call in `source` to `calls`, by the called name (`f(...)`,
    `obj.f(...)`): its positional count, its keyword names, and whether it
    splats `*args` or `**kwargs`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        calls.setdefault(name, []).append((
            sum(not isinstance(a, ast.Starred) for a in node.args),
            {k.arg for k in node.keywords if k.arg is not None},
            any(isinstance(a, ast.Starred) for a in node.args),
            any(k.arg is None for k in node.keywords),
        ))


def _calls() -> dict[str, list[tuple[int, set, bool, bool]]]:
    """The call shapes of `_user_paths()` and `_readme_code()`."""
    calls: dict[str, list] = {}
    for source in [p.read_text(encoding="utf-8") for p in _user_paths()] + _readme_code():
        _call_shapes(source, calls)
    return calls


def _own(obj) -> bool:
    return getattr(obj, "__module__", "").startswith("qcopies")


def _signatures():
    """(label, called name, parameters) of every exported function, every
    exported class's constructor, and the public methods, classmethods and
    staticmethods those classes define; a bound method drops its first
    parameter.  Constructors and methods the classes inherit from builtins
    are skipped."""
    for name in sorted(vars(qcopies)):
        obj = getattr(qcopies, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if inspect.isfunction(obj) and _own(obj):
            yield name, name, list(inspect.signature(obj).parameters.values())
        if not (inspect.isclass(obj) and _own(obj)):
            continue
        owner = next(k for k in obj.__mro__ if "__init__" in vars(k))
        if _own(owner):
            yield name, name, list(inspect.signature(obj).parameters.values())
        for klass in obj.__mro__:
            if not _own(klass):
                continue
            for attr, member in vars(klass).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    params = list(inspect.signature(member.__func__).parameters.values())
                    params = params[isinstance(member, classmethod):]
                elif inspect.isfunction(member):
                    params = list(inspect.signature(member).parameters.values())[1:]
                else:
                    continue
                yield f"{name}.{attr}", attr, params


def _passed(param, index, named, call) -> bool:
    """Whether one call passes `param`, the parameter at positional `index`
    among `named`, the callee's named parameters."""
    positional, keywords, star, double_star = call
    if param.kind == param.VAR_POSITIONAL:
        return star or positional > index
    if param.kind == param.VAR_KEYWORD:
        return double_star or bool(keywords - named)
    if param.kind != param.KEYWORD_ONLY and (star or positional > index):
        return True
    return param.kind != param.POSITIONAL_ONLY and (double_star or param.name in keywords)


def test_every_option_has_a_caller():
    """Every defaulted parameter, `*args` and `**kwargs` of the public
    surface is passed, by position or by keyword, in some call in the
    package, the demos, the benchmark scripts or the README's Python, so no
    option is kept for the tests alone.  Calls match by the called name."""
    calls = _calls()
    unused = []
    for label, called, params in _signatures():
        named = {p.name for p in params if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}
        for index, param in enumerate(params):
            optional = param.default is not param.empty or param.kind in (
                param.VAR_POSITIONAL, param.VAR_KEYWORD)
            if optional and not any(_passed(param, index, named, call)
                                    for call in calls.get(called, [])):
                unused.append(f"{label}({param})")
    assert unused == []


def test_calls_count_positions_keywords_and_splats():
    calls = {}
    _call_shapes("f(1, 2, key=3)\nobj.g(*a, **k)\nh(other=1)", calls)
    assert calls == {"f": [(2, {"key"}, False, False)], "g": [(0, set(), True, True)],
                     "h": [(0, {"other"}, False, False)]}
    namespace = {}
    exec("def f(a, b=1, c=2, *rest, key=3, **extra): pass", namespace)
    params = list(inspect.signature(namespace["f"]).parameters.values())
    named = {"a", "b", "c", "key"}
    (f,), (g,), (h,) = calls["f"], calls["g"], calls["h"]
    passed = [[_passed(p, i, named, call) for i, p in enumerate(params)] for call in (f, g, h)]
    assert passed == [[True, True, False, False, True, False],
                      [True, True, True, True, True, True],
                      [False, False, False, False, False, True]]


def test_readme_code_keeps_only_python():
    code = _readme_code()
    assert "RngSeed(seed, stream)" in code
    assert not any(span.lstrip().startswith("qcopies allocate") for span in code)
