import ast
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
import types
from collections import Counter
from pathlib import Path

import qcopies

ROOT = Path(__file__).resolve().parent.parent

# The package's non-module public names.
PUBLIC_NAMES = set('''
AdaptiveConfig AdaptiveState AllocationInterval ComparisonReport ConfigError
CopyAllocation CoverageTable DegenerateProblemError DensityMatrix DimensionMismatchError
EIGHT_PHOTON_EXPERIMENT_COPIES EIGHT_PHOTON_MEASURED_P EIGHT_PHOTON_REPORTED_OPTIMUM
ProductSetting QcopiesError ReconstructOptions ReconstructionResult RngSeed
SettingProbabilities TenPhotonCost WitnessDecomposition XState allocate_sc
allocation_interval build_settings compare_distributions coverage_experiment delta_f
density_from_json depolarized_sc exact_frequencies explicit_allocation failure_probability
fidelity_from_probabilities frobenius_distance geometric_schedule hoeffding_radius
joint_success noisy_sc_state pauli_settings protocol_timeline psd_project rank_two_sc_state
reconstruct reconstruction_curve required_copies run_adaptive run_histogram_experiment
sample_counts sampled_frequencies sc_fidelity sc_variance_weights setting_probabilities
solve_budget sweep_epsilon_ratio ten_photon_cost tomography_projectors uniform_allocation
white_noise_weight_for_fidelity
'''.split())


def _exported() -> dict:
    """The non-module public names of `qcopies` and their objects, read
    through `dir` and `getattr`, so that names the package loads on first
    use are seen."""
    objs = {name: getattr(qcopies, name) for name in dir(qcopies) if not name.startswith("_")}
    exported = {name: obj for name, obj in objs.items() if not isinstance(obj, types.ModuleType)}
    assert set(exported) == PUBLIC_NAMES
    return exported


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
    unused = [name for name in sorted(_exported()) if uses[name] < 1]
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
    for name, obj in sorted(_exported().items()):
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


# Result types that only the library builds; their constructors take no
# value a user types in.
_LIBRARY_BUILT = {"AdaptiveState", "AllocationInterval", "ComparisonReport", "CoverageTable",
                  "ReconstructionResult", "TenPhotonCost"}


def _valid_calls() -> dict:
    """One valid call of each exported function, of each constructor of an
    exported class a user builds, and of `AdaptiveConfig.geometric`:
    label -> (callable, positional arguments)."""
    import numpy as np

    q = qcopies
    wd, rho = q.build_settings(2), q.depolarized_sc(2, 0.9)
    p = q.setting_probabilities(rho, wd)
    plan = q.allocate_sc(p, 0.05)
    cfg = q.AdaptiveConfig.geometric(0.01, 0.1, 1e-3)
    state = q.run_adaptive(rho, wd, cfg, np.random.default_rng(0))
    half = np.eye(2) / 2
    one_qubit, settings = q.DensityMatrix(half), q.pauli_settings(1)
    json_text = '{"n": 1, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'
    return {
        "AdaptiveConfig": (q.AdaptiveConfig, ((0.01, 0.001), [0.5, 0.5, 0.5], 5, 1)),
        "AdaptiveConfig.geometric": (q.AdaptiveConfig.geometric, (0.01, 0.1, 1e-3)),
        "CopyAllocation": (q.CopyAllocation, ([10, 20], 0.1, [9.5, 19.5])),
        "DensityMatrix": (q.DensityMatrix, (half,)),
        "ProductSetting": (q.ProductSetting, ("XZ",)),
        "ReconstructOptions": (q.ReconstructOptions, (100,)),
        "RngSeed": (q.RngSeed, (1, 0)),
        "SettingProbabilities": (q.SettingProbabilities, (2, [0.9, 0.5, 0.5])),
        "WitnessDecomposition": (q.WitnessDecomposition, (2,)),
        "XState": (q.XState, ([0.5, 0, 0, 0.5], [0.5, 0, 0, 0.5])),
        "allocate_sc": (q.allocate_sc, (p, 0.05, 1)),
        "allocation_interval": (q.allocation_interval, (p, 0.01, 0.05)),
        "build_settings": (q.build_settings, (2,)),
        "compare_distributions": (q.compare_distributions,
                                  (rho, wd, {"a": plan, "b": plan}, 5, q.RngSeed(1))),
        "coverage_experiment": (q.coverage_experiment,
                                (rho, wd, [50], 1e-3, 2, q.RngSeed(1))),
        "delta_f": (q.delta_f, (p, plan)),
        "density_from_json": (q.density_from_json, (json_text,)),
        "depolarized_sc": (q.depolarized_sc, (2, 0.9)),
        "exact_frequencies": (q.exact_frequencies, (one_qubit, settings)),
        "explicit_allocation": (q.explicit_allocation, ([10, 20, 30],)),
        "failure_probability": (q.failure_probability, (100, 0.1)),
        "fidelity_from_probabilities": (q.fidelity_from_probabilities, (p,)),
        "frobenius_distance": (q.frobenius_distance, (rho, rho)),
        "geometric_schedule": (q.geometric_schedule, (0.01, 0.1, 1e-3)),
        "hoeffding_radius": (q.hoeffding_radius, (100, 1e-3)),
        "joint_success": (q.joint_success, ([100, 100], [0.1, 0.1])),
        "noisy_sc_state": (q.noisy_sc_state, (3, 0.8, 0.9)),
        "pauli_settings": (q.pauli_settings, (1,)),
        "protocol_timeline": (q.protocol_timeline, (state, 0.1, 8.88)),
        "psd_project": (q.psd_project, (half,)),
        "rank_two_sc_state": (q.rank_two_sc_state, (2, 0.8)),
        "reconstruct": (q.reconstruct, (settings, [[0.5, 0.5]] * 3)),
        "reconstruction_curve": (q.reconstruction_curve,
                                 (q.depolarized_sc(1, 0.9), 50, [2], 1, q.RngSeed(1))),
        "required_copies": (q.required_copies, (0.1, 1e-3)),
        "run_adaptive": (q.run_adaptive, (rho, wd, cfg, np.random.default_rng(1))),
        "run_histogram_experiment": (q.run_histogram_experiment,
                                     (rho, wd, plan, 5, q.RngSeed(1))),
        "sample_counts": (q.sample_counts, ([0.5, 0.5], 10, np.random.default_rng(2), 3)),
        "sampled_frequencies": (q.sampled_frequencies,
                                (one_qubit, settings, 10, np.random.default_rng(3))),
        "sc_fidelity": (q.sc_fidelity, (rho,)),
        "sc_variance_weights": (q.sc_variance_weights, (p,)),
        "setting_probabilities": (q.setting_probabilities, (rho, wd)),
        "solve_budget": (q.solve_budget, ([0.1, 0.2], 1e-3, 1)),
        "sweep_epsilon_ratio": (q.sweep_epsilon_ratio, (rho, wd, [0.3], 1, q.RngSeed(1))),
        "ten_photon_cost": (q.ten_photon_cost, (2.8e-5, 110)),
        "tomography_projectors": (q.tomography_projectors, (1,)),
        "uniform_allocation": (q.uniform_allocation, (3, 10)),
        "white_noise_weight_for_fidelity": (q.white_noise_weight_for_fidelity, (2, 0.9)),
    }


def test_bad_arguments_raise_a_library_error():
    """Each positional argument of each valid call, replaced in turn by None
    and by "x", raises `QcopiesError`, never a bare TypeError, ValueError or
    AttributeError, and is never accepted.  A parameter whose default is
    None takes only "x".  The table covers every exported callable but the
    exception classes and the result types only the library builds."""
    calls = _valid_calls()
    exported = {name for name, obj in _exported().items()
                if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))}
    assert set(calls) == exported - _LIBRARY_BUILT | {"AdaptiveConfig.geometric"}
    faults = []
    for label, (func, args) in calls.items():
        func(*args)
        params = list(inspect.signature(func).parameters.values())
        for i, param in enumerate(params[:len(args)]):
            for bad in (None, "x"):
                if bad is None and param.default is None:
                    continue
                try:
                    func(*args[:i], bad, *args[i + 1:])
                except qcopies.QcopiesError:
                    continue
                except Exception as exc:
                    faults.append(f"{label}({param.name}={bad!r}): {type(exc).__name__}")
                else:
                    faults.append(f"{label}({param.name}={bad!r}): accepted")
    assert faults == []


def _fresh(*args: str) -> str:
    """Stdout and stderr of a fresh interpreter, run with `args`, that
    imports the package from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout + proc.stderr


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('qcopies.')))"


def test_import_loads_no_module():
    assert _fresh("-c", f"import qcopies; {LOADED}").strip() == "[]"


def test_a_name_loads_only_its_home_module_and_what_it_imports():
    out = _fresh("-c", f"import qcopies; qcopies.rank_two_sc_state; {LOADED}")
    assert out.strip() == "['qcopies.core', 'qcopies.errors']"


def test_allocate_command_loads_only_what_it_uses():
    out = _fresh("-X", "importtime", "-m", "qcopies", "allocate", "--k", "0.01,0.01",
                 "--epsilon", "0.001")
    assert "total=40" in out
    loaded = {line.rsplit("|", 1)[1].strip() for line in out.splitlines()
              if line.startswith("import time:")}
    assert {"qcopies.cli", "qcopies.allocator"} <= loaded
    assert loaded.isdisjoint({"qcopies.phaselift", "qcopies.adaptive", "qcopies.hoeffding",
                              "qcopies.simulator"})


def test_each_name_is_its_home_module_object():
    out = _fresh("-c", "import importlib, qcopies\n"
                 "for name, home in qcopies._HOME.items():\n"
                 "    module = importlib.import_module(f'qcopies.{home}')\n"
                 "    assert getattr(qcopies, name) is getattr(module, name), name\n"
                 "print(len(qcopies._HOME))")
    assert out.strip() == str(len(PUBLIC_NAMES))


def test_star_import_binds_the_public_names():
    out = _fresh("-c", "ns = {}; exec('from qcopies import *', ns); "
                 "print(' '.join(sorted(set(ns) - {'__builtins__'})))")
    assert set(out.split()) == PUBLIC_NAMES


def test_a_rebound_name_is_seen_and_restored():
    """The benchmark tracer swaps a function in its module and restores it;
    the package must hand out whichever is bound there now, first access
    included."""
    out = _fresh("-c", "import qcopies\n"
                 "from qcopies import witness\n"
                 "original = witness.setting_probabilities\n"
                 "def w(*args): pass\n"
                 "setattr(witness, 'setting_probabilities', w)\n"
                 "swapped = qcopies.setting_probabilities is w\n"
                 "setattr(witness, 'setting_probabilities', original)\n"
                 "print(swapped, qcopies.setting_probabilities is original)")
    assert out.split() == ["True", "True"]
