"""Span tracing for the traced benchmark run, done entirely from outside
the library.

`Tracer.installed()` replaces every binding of a traced qcopies function
(in the package namespace and in each module that imported it) with a
wrapper, and restores the originals on exit.  That reaches calls made
from one qcopies module into another, such as `simulator` calling
`setting_probabilities`, without changing anything under `src/`.

Each wrapper records a span (id, name, start, end, parent span, job id)
in memory and adds to named counters.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("core", "witness", "allocator", "simulator", "adaptive", "hoeffding",
           "phaselift", "cli")

COMPLEX_BYTES = 16
FLOPS_PER_COMPLEX_MADD = 8


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def born_work(setting):
    """(bytes, flops) *computed* for one `born_probabilities` call.

    A model of the dense contraction, not a measurement: a rotated
    setting contracts the 4**n-entry complex density tensor with one 2x2
    matrix per qubit on the ket side and one on the bra side (2n passes);
    each pass reads and writes the whole tensor and spends two complex
    multiply-adds per output entry.  The computational setting reads only
    the 2**n diagonal.
    """
    n = setting.n
    if setting.kind == "computational":
        return COMPLEX_BYTES * 2**n, 0
    passes = 2 * n
    return (passes * 2 * COMPLEX_BYTES * 4**n,
            passes * 2 * FLOPS_PER_COMPLEX_MADD * 4**n)


def clamped(P, cumulative):
    """Estimates clipped to [1/t, 1-1/t] where t >= 2, the rule the adaptive
    protocol applies before allocating and before its budget check."""
    t = np.asarray(cumulative, dtype=float)
    lo = np.where(t >= 2, 1.0 / np.maximum(t, 1.0), 0.0)
    return np.where(t >= 2, np.clip(P, lo, 1.0 - lo), P)


def capped_rounds(q, state) -> int:
    """Rounds whose cumulative counts miss the round's budget.

    Re-evaluates delta_f at the clamped pooled estimates, which is the
    check that ends the protocol's bounded top-up loop; a round that fails
    it left that loop by exhausting its passes.
    """
    misses = 0
    for rec in state.rounds:
        p = q.SettingProbabilities(n=state.n, P=clamped(rec.P_hat, rec.cumulative_t))
        if q.delta_f(p, rec.cumulative_t.astype(float)) > np.sqrt(rec.epsilon) * (1 + 1e-9):
            misses += 1
    return misses


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, job)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._deferred = []    # (counter fn, result), evaluated outside spans

    def _wrap(self, fn, name, count=None, count_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.job)
            if count is not None:
                count(self.counts, args, kwargs)
            if count_result is not None:
                self._deferred.append((count_result, result))
            return result

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run one call inside a span of its own."""
        return self._wrap(fn, name)(*args, **kwargs)

    def flush_counts(self) -> Counter:
        """Evaluate deferred result counters and hand back all counts so far,
        starting a fresh set."""
        for fn, result in self._deferred:
            fn(self.counts, result)
        self._deferred.clear()
        out, self.counts = self.counts, Counter()
        return out

    def _targets(self, q):
        """(owner, attribute, span name, arg counter, result counter) of every
        function traced; owners are the modules that define them."""
        m = {name: importlib.import_module(f"qcopies.{name}") for name in MODULES}

        def born(c, args, kwargs):
            b, f = born_work(args[0])
            c["witness.bytes_computed"] += b
            c["witness.flops_computed"] += f

        def copies(c, args, kwargs):
            c["simulator.copies_sampled"] += int(_arg(args, kwargs, 1, "copies"))

        def histogram_trials(c, args, kwargs):
            c["simulator.trials"] += int(_arg(args, kwargs, 3, "trials"))

        def compare_trials(c, args, kwargs):
            c["simulator.trials"] += (int(_arg(args, kwargs, 3, "trials"))
                                      * len(_arg(args, kwargs, 2, "allocations")))

        def adaptive_result(c, state):
            c["adaptive.rounds"] += state.round
            c["adaptive.capped_rounds"] += capped_rounds(q, state)

        def coverage_result(c, table):
            c["hoeffding.estimates"] += sum(len(r.estimates) for r in table.rows)

        def reconstruct_result(c, res):
            c["phaselift.iterations"] += res.iterations
            c["phaselift.converged"] += int(res.converged)

        return [
            (m["cli"], "main", "cli.main", None, None),
            (m["witness"], "setting_probabilities", "witness.setting_probabilities",
             None, None),
            (m["witness"].MeasurementSetting, "born_probabilities",
             "witness.born_probabilities", born, None),
            (m["core"], "noisy_sc_state", "core.state_build", None, None),
            (m["core"], "depolarized_sc", "core.state_build", None, None),
            (m["core"], "rank_two_sc_state", "core.state_build", None, None),
            (m["core"], "psd_project", "core.psd_project", None, None),
            (m["allocator"], "allocate_sc", "allocator.allocate_sc", None, None),
            (m["simulator"], "sample_counts", "simulator.sample_counts", copies, None),
            (m["simulator"], "run_histogram_experiment", "simulator.estimator",
             histogram_trials, None),
            (m["simulator"], "compare_distributions", "simulator.estimator",
             compare_trials, None),
            (m["adaptive"], "run_adaptive", "adaptive.run_adaptive", None,
             adaptive_result),
            (m["adaptive"], "sweep_epsilon_ratio", "adaptive.sweep_epsilon_ratio",
             None, None),
            (m["hoeffding"], "coverage_experiment", "hoeffding.coverage_experiment",
             None, coverage_result),
            (m["phaselift"], "reconstruct", "phaselift.reconstruct", None,
             reconstruct_result),
            (m["phaselift"], "sampled_frequencies", "phaselift.sampled_frequencies",
             None, None),
            (m["phaselift"], "reconstruction_curve", "phaselift.reconstruction_curve",
             None, None),
        ]

    @contextmanager
    def installed(self, q):
        """Wrap every binding of each traced function while the block runs."""
        namespaces = [q] + [importlib.import_module(f"qcopies.{n}") for n in MODULES]
        saved = []
        try:
            for owner, attr, name, count, count_result in self._targets(q):
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, count, count_result)
                holders = [owner] if isinstance(owner, type) else namespaces
                for ns in holders:
                    if vars(ns).get(attr) is original:
                        saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    dur = {s[0]: s[3] - s[2] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    out = defaultdict(float)
    for s in spans:
        out[s[1]] += dur[s[0]] - child[s[0]]
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(s[1] for s in spans)
