"""Multi-round feedback protocol: shrink the error budget each round,
re-estimate the setting probabilities from all counts accumulated so far,
and prepare only the incremental copies the new allocation asks for.

Budgets in the schedule are squared bounds (eps = eps0**2), matching the
allocation solver; a run ending at eps therefore targets a fidelity
standard deviation of sqrt(eps).

One lockstep core runs the protocol: it advances R runs of one schedule
together on (R, n+1) arrays of hits, cumulative copies and estimates, each
run with its own random stream, and every run gets the bytes it would get
alone.  `run_adaptive` is the core with one run; `sweep_epsilon_ratio`
passes all the repeats of a ratio at once.  Allocation, the spread check and
the draws use the allocator's closed form, `delta_f`'s formula and the
simulator's `_hit_counts` row-wise, one binomial per setting drawn.
`run_adaptive` draws from the numpy Generator it is given and returns one
frozen `AdaptiveState`, built once from the finished run.

Copies also become laboratory hours here: `protocol_timeline` for a feedback
run and `ten_photon_cost` for the ten-photon coincidence rate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .allocator import _round_up, _sc_weights
from .core import DensityMatrix, XState
from .errors import (MAX_COPIES, ConfigError, QcopiesError, _as_array, _as_list, _check_count,
                     _check_real, _check_type)
from .reports import csv_text
from .simulator import RngSeed, _hit_counts
from .witness import (
    SettingProbabilities,
    WitnessDecomposition,
    _spreads,
    delta_f,
    fidelity_from_probabilities,
    setting_probabilities,
)

MAX_SCHEDULE_LENGTH = 10_000


def geometric_schedule(start: float, ratio: float, final: float) -> tuple[float, ...]:
    """Budgets start, start*ratio, ... down past `final` (last entry <= final),
    at most MAX_SCHEDULE_LENGTH of them."""
    if not 0 < _check_real(ratio, "ratio", ConfigError) < 1:
        raise ConfigError(f"ratio must be in (0, 1), got {ratio}")
    low = _check_real(final, "final", ConfigError)
    if not 0 < low < _check_real(start, "start", ConfigError) < np.inf:
        raise ConfigError(f"need 0 < final < start < inf, got start={start}, final={final}")
    values = [start]
    while values[-1] > final:
        if len(values) == MAX_SCHEDULE_LENGTH:
            raise ConfigError(f"schedule {start}:{ratio}:{final} has over "
                              f"{MAX_SCHEDULE_LENGTH} budgets")
        values.append(values[-1] * ratio)
    return tuple(values)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Schedule of squared budgets plus the starting priors.

    initial_P seeds the first allocation (values in [0, 1]; defaults to 1/2
    everywhere, or the target's own probabilities if you know the state is
    close to pure); t_initial, one count >= 0, is the copies of every
    setting measured up front so the pooled estimates never start from
    nothing; every allocation gives each setting at least t_min >= 1 copies.
    """

    epsilon_schedule: tuple[float, ...]
    initial_P: np.ndarray | None = None
    t_initial: int = 5
    t_min: int = 1

    def __post_init__(self):
        sched = tuple(_check_real(e, "budget", ConfigError)
                      for e in _as_list(self.epsilon_schedule, "schedule", ConfigError))
        if not all(0 < e < np.inf for e in sched):
            raise ConfigError("budgets must be positive and finite")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("schedule must be strictly decreasing")
        _check_count(self.t_initial, "t_initial", ConfigError, least=0, most=MAX_COPIES)
        _check_count(self.t_min, "t_min", ConfigError, most=MAX_COPIES)
        if self.initial_P is not None:
            P = _as_array(self.initial_P, "initial_P", error=ConfigError)
            if not np.all((P >= 0) & (P <= 1)):
                raise ConfigError("initial_P must be finite and lie in [0, 1]")
        object.__setattr__(self, "epsilon_schedule", sched)

    @classmethod
    def geometric(cls, start: float, ratio: float, final: float) -> "AdaptiveConfig":
        return cls(epsilon_schedule=geometric_schedule(start, ratio, final))


@dataclass(frozen=True)
class RoundRecord:
    """What one allocate-measure-update cycle did.

    budget_met is False when the round ran out of top-up passes before its
    cumulative counts met the budget at the refreshed estimates.
    """

    index: int
    epsilon: float
    P_used: np.ndarray
    target_t: np.ndarray
    increments: np.ndarray
    cumulative_t: np.ndarray
    P_hat: np.ndarray
    budget_met: bool = True


@dataclass(frozen=True)
class AdaptiveState:
    """Trajectory of the feedback protocol: its rounds, the final cumulative
    copies and estimates, and the fidelity with its spread at them."""

    n: int
    rounds: tuple[RoundRecord, ...]
    cumulative_t: np.ndarray
    current_P: np.ndarray
    fidelity: float
    fidelity_std: float

    @property
    def round(self) -> int:
        return len(self.rounds)

    @property
    def total_copies(self) -> int:
        return sum(self.cumulative_t.tolist())  # exact: an int64 sum wraps past 2**63 - 1

    def history_csv(self) -> str:
        rows = []
        for rec in self.rounds:
            for j in range(self.n + 1):
                rows.append((rec.index, rec.epsilon, j + 1, int(rec.increments[j]),
                             int(rec.cumulative_t[j]), rec.P_hat[j]))
        return csv_text(["round", "epsilon", "setting", "increment", "cumulative", "P_hat"],
                        rows)

    def final_report_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "rounds": self.round,
            "epsilon_final": self.rounds[-1].epsilon if self.rounds else None,
            "cumulative_t": self.cumulative_t.tolist(),
            "total_copies": self.total_copies,
            "P_hat": self.current_P.tolist(),
            "fidelity": self.fidelity,
            "fidelity_std": self.fidelity_std,
        })


def _clamped(P: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """Clip estimates to [1/t, 1-1/t] where t >= 2, so one lucky streak
    cannot freeze a setting at zero variance forever."""
    lo = 1.0 / np.maximum(cumulative, 1)
    return np.where(cumulative >= 2, np.minimum(np.maximum(P, lo), 1.0 - lo), P)


# Top-up passes a round may take before it ends short of its budget.
_TOP_UP_PASSES = 64


@dataclass(frozen=True)
class _Round:
    """One round of every run, as (R, n+1) arrays."""

    entry_P: np.ndarray
    target_t: np.ndarray
    increments: np.ndarray
    cumulative_t: np.ndarray
    P_hat: np.ndarray
    budget_met: np.ndarray


def _run_lockstep(P_true: np.ndarray, n: int, schedule, initial_P: np.ndarray,
                  t_initial: np.ndarray, t_min: int, gens):
    """Advance R feedback runs through one schedule together, on (R, n+1)
    arrays.

    Run r starts from prior `initial_P[r]` and pilot `t_initial[r]` and
    draws from `gens[r]` in the order it would alone: its pilot, then in
    each top-up pass its settings in order, through `_hit_counts`.  The
    allocation, the budget check and the sampler act row-wise, so every
    run gets the bytes it would get alone.  Returns the final cumulative
    copies and estimates, and one `_Round` per budget of the schedule.
    """
    # [P, 1 - P] normalized as `sample_counts` normalizes it, so the draws match its own
    p_hit = P_true / (P_true + (1.0 - P_true))
    hits = _hit_counts(p_hit, t_initial, gens)
    cumulative = t_initial.astype(np.int64)
    P = initial_P.astype(float)
    target = np.zeros_like(cumulative)
    rounds = []
    for eps in schedule:
        eps0 = float(np.sqrt(eps))
        entry_P = P.copy()
        round_increments = np.zeros_like(cumulative)
        met = np.zeros(len(gens), dtype=bool)
        live = np.arange(len(gens))
        # Top up until each run's counts meet the budget at its refreshed estimates;
        # a pass with nothing to draw (a covering pilot) still pools the counts.
        for _ in range(_TOP_UP_PASSES):
            k = _sc_weights(n, _clamped(P[live], cumulative[live]))
            target[live] = _round_up(k, eps0**2, t_min)[1]
            increments = np.maximum(target[live] - cumulative[live], 0)
            hits[live] += _hit_counts(p_hit, increments, [gens[r] for r in live])
            cumulative[live] += increments
            round_increments[live] += increments
            P[live] = hits[live] / cumulative[live]
            spread = _spreads(n, _clamped(P[live], cumulative[live]),
                              cumulative[live].astype(float))
            done = spread <= eps0 * (1 + 1e-9)
            met[live[done]] = True
            live = live[~done]
            if live.size == 0:
                break
        rounds.append(_Round(entry_P, target.copy(), round_increments, cumulative.copy(),
                             P.copy(), met))
    return cumulative, P, rounds


def run_adaptive(rho: DensityMatrix | XState, wd: WitnessDecomposition, cfg: AdaptiveConfig,
                 gen: np.random.Generator) -> AdaptiveState:
    """Run the feedback protocol against a simulated state, drawing from
    `gen`.

    Each round allocates with the current estimates and the round's budget,
    measures only the missing copies (settings whose targets are already
    covered are skipped), pools all counts, and refines the estimates.
    Only each setting's hit count (corner or even-parity outcomes) is drawn
    and pooled, since the estimates read nothing else.  This is the
    lockstep core of `sweep_epsilon_ratio` run with a single row.
    """
    P_true = setting_probabilities(rho, wd).P
    _check_type(cfg, AdaptiveConfig)
    _check_type(gen, np.random.Generator)
    n, m = wd.n, wd.n + 1
    if cfg.initial_P is None:
        P0 = np.full(m, 0.5)
    else:
        P0 = np.asarray(cfg.initial_P, dtype=float)
        if P0.shape != (m,):
            raise ConfigError(f"initial_P must have length {m}")
    cumulative, P, rounds = _run_lockstep(P_true, n, cfg.epsilon_schedule, P0[None],
                                          np.full((1, m), cfg.t_initial, dtype=np.int64),
                                          cfg.t_min, [gen])
    p_final = SettingProbabilities(n=n, P=P[0])
    return AdaptiveState(
        n=n,
        rounds=tuple(RoundRecord(
            index=idx, epsilon=float(eps), P_used=rnd.entry_P[0], target_t=rnd.target_t[0],
            increments=rnd.increments[0], cumulative_t=rnd.cumulative_t[0],
            P_hat=rnd.P_hat[0], budget_met=bool(rnd.budget_met[0]),
        ) for idx, (eps, rnd) in enumerate(zip(cfg.epsilon_schedule, rounds), start=1)),
        cumulative_t=cumulative[0],
        current_P=P[0],
        fidelity=fidelity_from_probabilities(p_final),
        fidelity_std=delta_f(p_final, cumulative[0].astype(float)),
    )


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    mean_total: float
    std_total: float
    mean_rounds: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    @property
    def best(self) -> SweepRow:
        return min(self.rows, key=lambda r: r.mean_total)

    def to_csv(self) -> str:
        return csv_text(["ratio", "mean_total", "std_total", "mean_rounds"],
                        [(r.ratio, r.mean_total, r.std_total, r.mean_rounds)
                         for r in self.rows])


def sweep_epsilon_ratio(rho: DensityMatrix | XState, wd: WitnessDecomposition, ratios,
                        repeats: int, rng: RngSeed) -> SweepResult:
    """Total copies consumed per schedule-shrink ratio.

    Each repeat starts from a random prior in [0.25, 0.75] and a random
    pilot of 4 to 7 copies per setting, runs the protocol from budget 0.01
    until it drops past 0.0003, and reports the cumulative copies.  Repeat
    `rep` of ratio i draws its prior and pilot from `rng.generator(i, rep, 0)`
    and its measurements from `rng.generator(i, rep, 1)`.  A ratio's
    repeats advance together in one lockstep core.
    """
    _check_type(rng, RngSeed)
    _check_count(repeats, "repeats")
    ratios = [_check_real(ratio, "ratio") for ratio in _as_list(ratios, "ratios")]
    P_true = setting_probabilities(rho, wd).P
    m = wd.n + 1
    rows = []
    for i, ratio in enumerate(ratios):
        schedule = geometric_schedule(0.01, ratio, 0.0003)
        priors, pilots = [], []
        for rep in range(repeats):
            setup = rng.generator(i, rep, 0)
            priors.append(setup.uniform(0.25, 0.75, size=m))
            pilots.append(setup.integers(4, 8, size=m))
        cumulative, _, _ = _run_lockstep(P_true, wd.n, schedule, np.array(priors),
                                         np.array(pilots), 1,
                                         [rng.generator(i, rep, 1) for rep in range(repeats)])
        totals = cumulative.sum(axis=1).astype(float)
        rows.append(SweepRow(
            ratio=ratio,
            mean_total=float(totals.mean()),
            std_total=float(totals.std(ddof=1)) if repeats > 1 else 0.0,
            mean_rounds=float(len(schedule)),
        ))
    return SweepResult(rows=tuple(rows))


@dataclass(frozen=True)
class TimelineRow:
    label: str
    copies: int
    prep_hours: float
    switches: int


@dataclass(frozen=True)
class TimelineReport:
    """Wall-clock account of the feedback run versus a single-pass run."""

    rows: tuple[TimelineRow, ...]
    adaptive_prep_hours: float
    adaptive_switches: int
    adaptive_switch_hours: float
    single_pass_switches: int
    single_pass_switch_hours: float


def protocol_timeline(state: AdaptiveState, switch_cost_hours: float,
                      copy_rate_per_hour: float) -> TimelineReport:
    """Estimate measurement wall-clock time for an adaptive trajectory.

    Preparation time is copies/rate; each setting visited in the pilot or in
    a round costs one switch.  The single-pass reference measures the
    same cumulative distribution with one visit per setting.
    """
    _check_type(state, AdaptiveState)
    if not 0 < _check_real(copy_rate_per_hour, "copy rate") < np.inf:
        raise QcopiesError(f"copy rate must be positive and finite, got {copy_rate_per_hour}")
    if not 0 <= _check_real(switch_cost_hours, "switch cost") < np.inf:
        raise QcopiesError(f"switch cost must be finite and >= 0, got {switch_cost_hours}")
    m = state.n + 1
    rows = []
    pilot = state.cumulative_t - sum(rec.increments for rec in state.rounds)
    stages = [("pilot", pilot)] if pilot.any() else []
    for label, counts in stages + [(f"round {rec.index}", rec.increments) for rec in state.rounds]:
        copies = sum(counts.tolist())  # exact: an int64 sum wraps past 2**63 - 1
        rows.append(TimelineRow(label, copies, float(copies / copy_rate_per_hour),
                                int(np.count_nonzero(counts))))
    switches = sum(r.switches for r in rows)
    return TimelineReport(
        rows=tuple(rows),
        adaptive_prep_hours=float(state.total_copies / copy_rate_per_hour),
        adaptive_switches=switches,
        adaptive_switch_hours=switches * switch_cost_hours,
        single_pass_switches=m,
        single_pass_switch_hours=m * switch_cost_hours,
    )


@dataclass(frozen=True)
class TenPhotonCost:
    """Copy-rate arithmetic for a ten-photon coincidence experiment."""

    rate8_hz: float
    two_photon_per_hour: float
    ten_photon_per_hour: float
    copies: int
    hours: float
    days: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def ten_photon_cost(rate8_hz: float, copies: int) -> TenPhotonCost:
    """Hours needed to collect ten-photon copies, scaled from the
    eight-photon coincidence rate.

    Eight-photon events need four photon pairs, so the per-hour pair rate is
    the fourth root of the hourly eight-photon rate; ten-photon events need
    five simultaneous pairs, hence the fifth power.
    """
    rate = _check_real(rate8_hz, "rate")
    if not 0 < rate < np.inf:
        raise QcopiesError(f"rate must be positive and finite, got {rate8_hz}")
    _check_count(copies, "copies", least=0, most=MAX_COPIES)
    two = (rate * 3600.0) ** 0.25
    try:
        ten = two ** 5
    except OverflowError:
        ten = np.inf
    if not 0 < ten < np.inf:
        raise QcopiesError(f"rate {rate8_hz} puts the ten-photon rate outside float range")
    hours = 0.0 if copies == 0 else copies / ten
    return TenPhotonCost(
        rate8_hz=rate8_hz,
        two_photon_per_hour=two,
        ten_photon_per_hour=ten,
        copies=int(copies),
        hours=hours,
        days=hours / 24.0,
    )
