"""Monte Carlo simulation of the measurement process: seeded multinomial
sampling, fidelity estimates from one hit count per setting, histogram
experiments and copy-distribution comparisons.

An experiment (a histogram experiment, or one allocation of a comparison)
reads one random stream.  Setting by setting, in setting order, it draws
the hit counts of all its trials in one call: the setting's one row of
outcome probabilities, validated once and drawn `size=trials` times; a
trial is one row of those draws.  It yields one frozen `HistogramResult`; a
comparison keeps one per allocation next to its row, and only the result's
writers take a bin count.  `sample_counts` draws one row of outcome
probabilities, `size` times if asked, in one validated multinomial call;
the adaptive protocol draws the same bytes with `_hit_counts`, one copy
count and one scalar binomial per setting.  `run_histogram_experiment` and
`compare_distributions` take an `RngSeed` and `CopyAllocation`s, and
reject anything else with a `QcopiesError`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .allocator import CopyAllocation
from .core import DensityMatrix, XState
from .errors import (MAX_COPIES, ConfigError, DimensionMismatchError, QcopiesError, _as_array,
                     _check_count, _check_type)
from .reports import csv_text
from .witness import (
    SettingProbabilities,
    WitnessDecomposition,
    _fidelities,
    delta_f,
    setting_probabilities,
)


@dataclass(frozen=True)
class RngSeed:
    """Deterministic random stream: same (seed, stream) replays identically."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        _check_count(self.seed, "seed", ConfigError, least=0)
        _check_count(self.stream, "stream", ConfigError, least=0)

    def generator(self, *path: int) -> np.random.Generator:
        """Generator for this stream, optionally forked by an index path."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *path))
        return np.random.default_rng(ss)


def sample_counts(probs, copies, gen: np.random.Generator, size=None) -> np.ndarray:
    """Draw multinomial counts of `copies` copies over one row of outcome
    probabilities.

    The weights need not be normalized, but must be finite, nonnegative and
    not all zero.  One draw costs O(outcomes), independent of `copies`, a
    nonnegative integer count.  With `size`, an integer >= 1, the row is
    validated once and drawn `size` times on a new leading axis: exactly
    `gen.multinomial(copies, p / p.sum(), size=size)`.
    """
    p = _as_array(probs, "probabilities")
    if p.ndim != 1:
        raise DimensionMismatchError("probabilities must be one row of outcomes")
    _check_count(copies, "copies", least=0, most=MAX_COPIES)
    _check_type(gen, np.random.Generator)
    if size is not None:
        _check_count(size, "size", most=MAX_COPIES)
    total = p.sum()
    if not (p.min(initial=0.0) >= 0 and 0 < total < np.inf):
        raise QcopiesError("probabilities must be finite, nonnegative and not all zero")
    return gen.multinomial(copies, p / total, size=size).astype(np.int64)


def _hit_counts(p_hit: np.ndarray, copies: np.ndarray, gens) -> np.ndarray:
    """Hits of `copies[r, j]` copies at probability `p_hit[j]`, unchecked, row r drawn
    from `gens[r]` setting by setting.  numpy's multinomial draws the first of two
    outcomes with this binomial, and zero copies with no draw, so row r gets the bytes
    and next state of `gens[r].multinomial(copies[r], pvals)[:, 0]` if p_hit is pvals[:, 0]."""
    p = p_hit.tolist()
    return np.array([[gen.binomial(c, p_j) if c else 0 for c, p_j in zip(row, p)]
                     for row, gen in zip(copies.tolist(), gens)], dtype=np.int64)


@dataclass(frozen=True)
class HistogramResult:
    """One experiment's estimated fidelities, one per trial, with their
    summary statistics; `to_csv` and `summary_json` bin them over [0, 1]."""

    fidelities: np.ndarray = field(repr=False)
    mean: float
    std: float
    predicted_delta_f: float

    def events(self, bins: int = 50) -> np.ndarray:
        """Trials per bin, `bins` equal bins over [0, 1]."""
        _check_count(bins, "bins", most=MAX_COPIES)
        return np.histogram(self.fidelities, bins=bins, range=(0.0, 1.0))[0]

    def to_csv(self, bins: int = 50) -> str:
        events = self.events(bins)
        edges = np.linspace(0.0, 1.0, bins + 1)
        return csv_text(["bin_low", "bin_high", "events"], zip(edges, edges[1:], events))

    def summary_json(self, bins: int = 50) -> str:
        _check_count(bins, "bins", most=MAX_COPIES)
        return json.dumps({
            "trials": int(self.fidelities.size),
            "mean": self.mean,
            "std": self.std,
            "predicted_delta_f": self.predicted_delta_f,
            "bins": bins,
            "range": [0.0, 1.0],
        })


def _experiment(p_true: SettingProbabilities, allocation, trials, rng,
                base_path) -> HistogramResult:
    """The trials of one experiment, drawn from the stream at `base_path`,
    with their mean, spread and predicted spread.

    The estimator reads one aggregate per setting, so each setting draws
    only its hit counts: t_j copies split between P_j and 1 - P_j, one row
    per trial, in one call.
    """
    _check_count(trials, "trials", most=MAX_COPIES)
    _check_type(allocation, CopyAllocation)
    t = allocation.t
    if t.shape != p_true.P.shape:
        raise DimensionMismatchError(f"allocation has {t.size} settings, expected {p_true.P.size}")
    gen = rng.generator(*base_path)
    hits = np.column_stack([sample_counts([p, 1.0 - p], int(t_j), gen, size=trials)[:, 0]
                            for p, t_j in zip(p_true.P, t)])
    fids = _fidelities(p_true.n, hits / t)
    return HistogramResult(
        fidelities=fids,
        mean=float(fids.mean()),
        std=float(fids.std(ddof=1)) if trials > 1 else 0.0,
        predicted_delta_f=delta_f(p_true, allocation),
    )


def run_histogram_experiment(rho: DensityMatrix | XState, wd: WitnessDecomposition,
                             allocation: CopyAllocation, trials: int,
                             rng: RngSeed) -> HistogramResult:
    """Repeat the full measurement `trials` times.

    The trials draw from the stream `rng.generator()`.  The result carries
    both the empirical spread of the estimates and the binomial-formula
    prediction evaluated at the true probabilities, so the two can be
    compared.
    """
    _check_type(rng, RngSeed)
    return _experiment(setting_probabilities(rho, wd), allocation, trials, rng, ())


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    total: int
    mean_fidelity: float
    std_fidelity: float
    predicted_delta_f: float
    savings_pct: float


@dataclass(frozen=True)
class ComparisonReport:
    """Copy totals and fidelity spreads of several distributions."""

    baseline: str
    trials: int
    rows: tuple[ComparisonRow, ...]
    results: tuple[HistogramResult, ...] = field(repr=False)

    def row(self, name: str) -> ComparisonRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_csv(self) -> str:
        return csv_text(
            ["name", "total", "mean_fidelity", "std_fidelity", "predicted_delta_f",
             "savings_pct"],
            [(r.name, r.total, r.mean_fidelity, r.std_fidelity, r.predicted_delta_f,
              r.savings_pct) for r in self.rows],
        )

    def to_json(self) -> str:
        return json.dumps({
            "baseline": self.baseline,
            "trials": self.trials,
            "rows": [r.__dict__ for r in self.rows],
        })


def compare_distributions(rho: DensityMatrix | XState, wd: WitnessDecomposition,
                          allocations: dict[str, CopyAllocation], trials: int,
                          rng: RngSeed) -> ComparisonReport:
    """Simulate several copy distributions on the same state side by side.

    Savings are total-copy percentages relative to the first entry, the
    baseline.  Allocation i draws its trials from the stream
    `rng.generator(i)`; its row summarizes `results[i]`.
    """
    _check_type(rng, RngSeed)
    _check_type(allocations, dict)
    if len(allocations) < 2:
        raise QcopiesError("need at least two allocations to compare")
    names = list(allocations)
    baseline = names[0]
    p_true = setting_probabilities(rho, wd)
    results = tuple(_experiment(p_true, allocations[name], trials, rng, (i,))
                    for i, name in enumerate(names))
    base_total = allocations[baseline].total
    rows = tuple(ComparisonRow(
        name=name,
        total=allocations[name].total,
        mean_fidelity=res.mean,
        std_fidelity=res.std,
        predicted_delta_f=res.predicted_delta_f,
        savings_pct=100.0 * (base_total - allocations[name].total) / base_total,
    ) for name, res in zip(names, results))
    return ComparisonReport(baseline=baseline, trials=trials, rows=rows, results=results)
