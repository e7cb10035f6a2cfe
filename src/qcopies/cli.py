"""Command-line front end.

Subcommands: allocate, simulate, adaptive, hoeffding, tomography,
tenphoton-cost.  Flag values override --config file entries, which override
defaults.  Every experiment is deterministic under --seed (environment
variable QCOPIES_SEED is the fallback).  Exit codes: 0 success, 2 bad
configuration or usage, 3 numerical/domain error.

Each command returns its stdout and its report files; `main` alone writes
them, the files into --out first, so a run that fails prints nothing.  `main`
builds the parser of the invoked command only; help and usage errors get all six.
Each command imports the library modules it uses when it runs, so a command
never loads another's modules (`allocate` loads no simulator, adaptive,
hoeffding or phaselift).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import check_qubit_count, density_from_json, noisy_sc_state, rank_two_sc_state
from .errors import MAX_COPIES, ConfigError, QcopiesError, _check_count
from .reports import csv_text, write_text


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if not all(v.is_integer() for v in vals):  # inf and nan are not integers
        raise ConfigError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def _rng(args):
    from .simulator import RngSeed

    seed = args.seed
    if seed is None:
        env = os.environ.get("QCOPIES_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise ConfigError(f"QCOPIES_SEED is not an integer: {env!r}") from exc
    return RngSeed(seed)


def _parse_schedule(text: str) -> tuple[float, ...]:
    from .adaptive import geometric_schedule

    parts = str(text).split(":")
    if len(parts) == 3:
        try:
            start, ratio, final = (float(x) for x in parts)
        except ValueError as exc:
            raise ConfigError(f"schedule start:ratio:final needs three numbers, "
                              f"got {text!r}") from exc
        return geometric_schedule(start, ratio, final)
    return tuple(_floats(text))


def _parse_compare(specs, n_settings: int) -> dict:
    from .allocator import explicit_allocation, uniform_allocation

    out = {}
    for spec in specs or []:
        if ":" not in spec:
            raise ConfigError(f"comparisons look like name:copies, got {spec!r}")
        name, payload = spec.split(":", 1)
        if not name:
            raise ConfigError(f"comparison {spec!r} has no name")
        if name == "optimized":
            raise ConfigError("the comparison name 'optimized' is reserved for the "
                              "optimized allocation")
        if name in out:
            raise ConfigError(f"comparison name {name!r} is given twice")
        try:
            if "/" in payload:
                counts = [int(x) for x in payload.split("/")]
                if len(counts) != n_settings:
                    raise ConfigError(
                        f"{name!r} lists {len(counts)} settings, expected {n_settings}")
                out[name] = explicit_allocation(counts)
            else:
                out[name] = uniform_allocation(n_settings, int(payload))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad copy counts in {spec!r}: {exc}") from exc
    return out


def _build_state(args, model=noisy_sc_state):
    """The state of a state command: the --state file, or `model` at --n,
    --fidelity and --corner-mass."""
    if args.n is None:
        raise ConfigError("--n is required")
    check_qubit_count(args.n)  # a bad --n is reported before the state's faults
    if args.state is not None:
        try:
            rho = density_from_json(Path(args.state).read_text())
        except (OSError, UnicodeDecodeError, ConfigError) as exc:
            raise ConfigError(f"cannot read state file {args.state!r}: {exc}") from exc
        if rho.n_qubits != args.n:
            raise ConfigError(f"state file holds {rho.n_qubits} qubits, --n says {args.n}")
        return rho
    if args.fidelity is None:
        raise ConfigError("--fidelity is required to build a synthetic state")
    return model(args.n, args.fidelity, args.corner_mass)


# --- subcommand implementations -------------------------------------------
# Each returns its stdout and its report files (name -> text); main writes both.

def cmd_allocate(args) -> tuple[str, dict[str, str]]:
    from .allocator import (EIGHT_PHOTON_EXPERIMENT_COPIES, EIGHT_PHOTON_REPORTED_OPTIMUM,
                            allocate_sc, solve_budget)
    from .witness import SettingProbabilities

    if args.k is not None:
        if args.epsilon is None:
            raise ConfigError("--k needs --epsilon (the squared budget)")
        k = np.asarray(_floats(args.k))
        alloc = solve_budget(k, float(args.epsilon), t_min=args.t_min)
        label = "budget"
    elif args.p is not None:
        p_list = _floats(args.p)
        n = args.n if args.n is not None else len(p_list) - 1
        if len(p_list) != n + 1:
            raise ConfigError(f"--p must list n+1={n + 1} probabilities, got {len(p_list)}")
        if any(not 0 <= x <= 1 for x in p_list):
            raise ConfigError("--p entries must lie in [0, 1]")
        if args.epsilon0 is None:
            raise ConfigError("--p needs --epsilon0")
        probs = SettingProbabilities(n=n, P=np.asarray(p_list))
        alloc = allocate_sc(probs, epsilon0=float(args.epsilon0), t_min=args.t_min)
        label = "sc-witness"
    else:
        raise ConfigError("provide either --p (with --epsilon0) or --k (with --epsilon)")

    rows = [(j + 1, int(alloc.t[j]), alloc.real_t[j]) for j in range(alloc.t.size)]
    csv = csv_text(["setting", "copies", "real_copies"], rows)
    report = {
        "kind": label,
        "epsilon0": alloc.epsilon0,
        "t": alloc.t.tolist(),
        "real_t": alloc.real_t.tolist(),
        "total": alloc.total,
    }
    if alloc.t.size == len(EIGHT_PHOTON_EXPERIMENT_COPIES):
        exp_total = sum(EIGHT_PHOTON_EXPERIMENT_COPIES)
        opt_total = sum(EIGHT_PHOTON_REPORTED_OPTIMUM)
        report["eight_photon_reference"] = {
            "experiment_total": exp_total,
            "reported_optimum_total": opt_total,
            "this_total": alloc.total,
        }
        csv += f"# reference: eight-photon experiment {exp_total}, reported optimum {opt_total}\n"
    return (csv + f"total={alloc.total}\n",
            {"allocation.csv": csv, "allocation.json": json.dumps(report)})


def cmd_simulate(args) -> tuple[str, dict[str, str]]:
    from .allocator import allocate_sc, uniform_allocation
    from .simulator import compare_distributions
    from .witness import build_settings, delta_f, setting_probabilities

    if args.histogram:
        _check_count(args.bins, "bins", most=MAX_COPIES)  # a bad --bins exits 3, as it always has
        if not args.out:
            raise ConfigError("--histogram writes report files; it needs --out")
    rho = _build_state(args)
    wd = build_settings(args.n)
    p_true = setting_probabilities(rho, wd)
    comparisons = _parse_compare(args.compare, args.n + 1)
    if args.epsilon0 is not None:
        eps0 = float(args.epsilon0)
    elif comparisons:
        first = next(iter(comparisons.values()))
        eps0 = delta_f(p_true, first)
    else:
        raise ConfigError("need --epsilon0 or at least one --compare to set the budget")
    optimized = allocate_sc(p_true, epsilon0=eps0, t_min=args.t_min)
    allocations = dict(comparisons)
    allocations["optimized"] = optimized
    if len(allocations) < 2:
        allocations = {"uniform-match": uniform_allocation(
            args.n + 1, int(np.ceil(optimized.total / (args.n + 1)))), **allocations}
    report = compare_distributions(rho, wd, allocations, trials=args.trials, rng=_rng(args))
    files = {"comparison.csv": report.to_csv(), "comparison.json": report.to_json()}
    if args.histogram:
        for row, res in zip(report.rows, report.results):
            files[f"histogram_{row.name}.csv"] = res.to_csv(args.bins)
            files[f"histogram_{row.name}.json"] = res.summary_json(args.bins)
    opt_row = report.row("optimized")
    return (files["comparison.csv"] + f"optimized_total={opt_row.total} "
            f"savings_pct={opt_row.savings_pct:.6g}\n", files)


def cmd_adaptive(args) -> tuple[str, dict[str, str]]:
    from .adaptive import AdaptiveConfig, run_adaptive
    from .witness import build_settings, setting_probabilities

    rho = _build_state(args)
    wd = build_settings(args.n)
    schedule = _parse_schedule(args.schedule)
    if args.initial_p == "target":
        initial = setting_probabilities(noisy_sc_state(args.n, 1.0), wd).P
    elif args.initial_p is not None:
        initial = np.asarray(_floats(args.initial_p))
    else:
        initial = None
    cfg = AdaptiveConfig(
        epsilon_schedule=schedule, initial_P=initial,
        t_initial=args.t_initial, t_min=args.t_min,
    )
    state = run_adaptive(rho, wd, cfg, _rng(args).generator())
    files = {"rounds.csv": state.history_csv(), "final.json": state.final_report_json()}
    return (files["rounds.csv"] + f"total={state.total_copies} fidelity={state.fidelity:.6g} "
            f"fidelity_std={state.fidelity_std:.6g}\n", files)


def cmd_hoeffding(args) -> tuple[str, dict[str, str]]:
    from .hoeffding import coverage_experiment, joint_success, required_copies
    from .witness import build_settings

    if args.coverage:
        rho = _build_state(args)
        wd = build_settings(args.n)
        copies = _ints(args.copies)
        table = coverage_experiment(
            rho, wd, copies, delta=args.delta, repeats=args.repeats, rng=_rng(args))
        csv = table.to_csv()
        return (csv + f"true_value={table.true_value:.6g} "
                f"all_inside={int(table.all_inside)}\n", {"coverage.csv": csv})
    if args.required:
        if args.h is None:
            raise ConfigError("--required needs --h and --delta")
        t = required_copies(float(args.h), float(args.delta))
        return json.dumps({"h": float(args.h), "delta": args.delta,
                           "required_copies": t}) + "\n", {}
    if args.t is None or args.h is None:
        raise ConfigError("joint mode needs --t and --h (or use --coverage/--required)")
    t_list = _ints(args.t)
    h_list = _floats(args.h)
    if args.settings is not None:
        _check_count(args.settings, "--settings", ConfigError)
    m = args.settings if args.settings is not None else max(len(t_list), len(h_list))
    if len(t_list) == 1:
        t_list = t_list * m
    if len(h_list) == 1:
        h_list = h_list * m
    prob = joint_success(t_list, h_list)
    return json.dumps({"t": t_list, "h": h_list, "joint_success": prob}) + "\n", {}


def cmd_tomography(args) -> tuple[str, dict[str, str]]:
    from .phaselift import ReconstructOptions, reconstruction_curve

    if args.rank2 and (args.state is not None or args.corner_mass is not None):
        raise ConfigError("--rank2 builds its own state; it takes no --state or --corner-mass")
    rho = _build_state(args, (lambda n, f, _: rank_two_sc_state(n, f)) if args.rank2
                       else noisy_sc_state)
    size = (4 if args.family == "projectors" else 3) ** args.n  # settings in the family
    counts = (_ints(args.settings) if args.settings is not None
              else sorted({min(m, size) for m in (8, 16, 30, 45, 56, 64)}))
    curve = reconstruction_curve(
        rho, counts_per_setting=args.counts, setting_counts=counts,
        repeats=args.repeats, rng=_rng(args), family=args.family,
        opts=ReconstructOptions(max_iter=args.max_iter))
    csv = curve.to_csv()
    return csv, {"curve.csv": csv}


def cmd_tenphoton_cost(args) -> tuple[str, dict[str, str]]:
    from .adaptive import ten_photon_cost

    if args.rate8 is None or args.copies is None:
        raise ConfigError("tenphoton-cost needs --rate8 and --copies")
    text = ten_photon_cost(args.rate8, args.copies).to_json()
    return text + "\n", {"cost.json": text}


# --- parser / config plumbing ----------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that indexes its options by destination, so that
    --config keys are checked and converted like the flags they stand for."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, tuple[argparse.Action, str | None]] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = (action, kwargs.get("action"))
        return action


def _state_options(p):
    p.add_argument("--state", help="JSON density-matrix file to use instead of --fidelity")
    p.add_argument("--n", type=int)
    p.add_argument("--fidelity", type=float)
    p.add_argument("--corner-mass", type=float, default=None)


def _allocate_options(p):
    p.add_argument("--n", type=int)
    p.add_argument("--p", help="comma list of n+1 setting probabilities")
    p.add_argument("--epsilon0", type=float, help="bound on the fidelity deviation")
    p.add_argument("--k", help="comma list of variance weights")
    p.add_argument("--epsilon", type=float, help="squared budget for --k mode")
    p.add_argument("--t-min", type=int, default=1)


def _simulate_options(p):
    _state_options(p)
    p.add_argument("--epsilon0", type=float, default=None)
    p.add_argument("--compare", action="append",
                   help="name:copies-per-setting or name:c1/c2/...; repeatable")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--t-min", type=int, default=1)


def _adaptive_options(p):
    _state_options(p)
    p.add_argument("--schedule", default="0.01:0.1:0.00001",
                   help="start:ratio:final or explicit comma list of squared budgets")
    p.add_argument("--t-initial", type=int, default=5)
    p.add_argument("--initial-p", default=None,
                   help="comma list, or 'target' for pure-state priors")
    p.add_argument("--t-min", type=int, default=1)


def _hoeffding_options(p):
    _state_options(p)
    p.add_argument("--coverage", action="store_true")
    p.add_argument("--required", action="store_true")
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--copies", default="50,100,200,400,800,1600,3200")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--t", help="copies per setting (scalar or comma list)")
    p.add_argument("--h", help="deviation bound (scalar or comma list)")
    p.add_argument("--settings", type=int, default=None)


def _tomography_options(p):
    _state_options(p)
    p.add_argument("--counts", type=int, default=10000, help="copies per setting")
    p.add_argument("--settings", help="comma list of setting counts for the curve "
                   "(default 8,16,30,45,56,64, each capped at the family's size)")
    p.add_argument("--family", default="projectors", choices=["projectors", "pauli"])
    p.add_argument("--rank2", action="store_true",
                   help="use the rank-two noise model instead of white noise")
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--max-iter", type=int, default=5000,
                   help="Newton iterations per reconstruction solve")


def _cost_options(p):
    p.add_argument("--rate8", type=float, help="eight-photon coincidence rate in Hz")
    p.add_argument("--copies", type=int)


# name, help, handler and the options after --config --seed --out, in --help order
_COMMANDS = (
    ("allocate", "closed-form minimum-copies allocation", cmd_allocate, _allocate_options),
    ("simulate", "compare copy distributions by Monte Carlo", cmd_simulate, _simulate_options),
    ("adaptive", "multi-round feedback protocol", cmd_adaptive, _adaptive_options),
    ("hoeffding", "concentration bounds and coverage", cmd_hoeffding, _hoeffding_options),
    ("tomography", "phaselift reconstruction curve", cmd_tomography, _tomography_options),
    ("tenphoton-cost", "copy-rate arithmetic for ten photons", cmd_tenphoton_cost, _cost_options),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with `command`'s subparser alone, or with all six when it names none.
    Only the lean one sets metavar, so usage lines and error messages keep their bytes."""
    names = [name for name, *_ in _COMMANDS]
    chosen = [row for row in _COMMANDS if row[0] == command]
    parser = _Parser(prog="qcopies",
                     description="Copy budgeting and simulation for SC-state certification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(names) + "}" if chosen else None)
    for name, help_text, func, options in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="directory for report files")
        options(p)
        p.set_defaults(func=func, config_options=p.options)
    return parser


def _config_value(key: str, action: argparse.Action, kind: str | None, value):
    """Convert one config-file value the way argparse converts its flag."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} takes true or false, got {value!r}")
    items = value if kind == "append" and isinstance(value, list) else [value]
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ConfigError(f"config key {key!r} takes a string or number, got {item!r}")
        try:
            item = action.type(str(item)) if action.type else str(item)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
        if action.choices is not None and item not in action.choices:
            raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}")
        out.append(item)
    return out if kind == "append" else out[0]


def _apply_config(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Overlay config-file values under explicitly passed flags."""
    if not args.config:
        return args
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    # argparse takes an exact option string or a unique prefix of one.
    tokens = {a.split("=", 1)[0] for a in argv if a.startswith("--") and a != "--"}
    spellings = {s for action, _ in args.config_options.values() for s in action.option_strings}
    prefixes = tokens - spellings
    passed = (tokens & spellings) | {s for s in spellings
                                     if any(s.startswith(t) for t in prefixes)}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in args.config_options or dest in ("help", "config"):
            raise ConfigError(f"unknown config key {key!r} for command {args.command!r}")
        action, kind = args.config_options[dest]
        if passed.intersection(action.option_strings):
            continue  # explicit flag wins
        setattr(args, dest, _config_value(key, action, kind, value))
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        stdout, files = args.func(_apply_config(args, argv))
        try:
            for name, text in files.items() if args.out else ():
                write_text(Path(args.out) / name, text)
        except OSError as exc:
            raise ConfigError(f"cannot write report files to --out {args.out!r}: {exc}") from exc
        sys.stdout.write(stdout)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QcopiesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy could not allocate what a valid request needs
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
