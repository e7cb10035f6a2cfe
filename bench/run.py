"""qcopies benchmark: end-to-end metrics of each workload with tracing off,
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload certify-n10 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload verify-mc --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --seed 1    # every workload, one process each
    python3 bench/run.py --smoke     # every workload at tiny sizes, both modes

Run from the repository root; the library is imported from `src/`.  For
one workload, the last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full record (environment, every
sample, checks and, for traced runs, the spans) goes to `bench/out/`.
See bench/README.md for the metrics and why each workload was chosen.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads, children inherit it

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 15
MIN_REPS = 2
MIN_TRACED_PAIRS = 2
JOB_SEEDS = 16

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "witness.setting_probabilities.calls": "count",
    "witness.setting_probabilities.self_s": "s",
    "witness.born_probabilities.calls": "count",
    "witness.born_probabilities.self_s": "s",
    "witness.bytes_computed": "B",
    "witness.flops_computed": "flop",
    "core.state_build.self_s": "s",
    "core.state_build.setup_self_s": "s",
    "core.psd_project.calls": "count",
    "core.psd_project.self_s": "s",
    "allocator.allocate_sc.calls": "count",
    "allocator.allocate_sc.self_s": "s",
    "simulator.sample_counts.calls": "count",
    "simulator.sample_counts.self_s": "s",
    "simulator.copies_sampled": "count",
    "simulator.trials": "count",
    "simulator.self_s": "s",
    "adaptive.run_adaptive.calls": "count",
    "adaptive.self_s": "s",
    "adaptive.rounds": "count",
    "adaptive.capped_rounds": "count",
    "hoeffding.coverage_experiment.self_s": "s",
    "hoeffding.estimates": "count",
    "phaselift.reconstruct.calls": "count",
    "phaselift.reconstruct.self_s": "s",
    "phaselift.iterations": "count",
    "phaselift.converged_ratio": "ratio",
    "phaselift.sampled_frequencies.self_s": "s",
    "phaselift.reconstruction_curve.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
# Counters that must repeat exactly at a fixed seed.
EXACT_COUNTERS = ("witness.bytes_computed", "witness.flops_computed",
                  "simulator.copies_sampled", "core.psd_project.calls",
                  "phaselift.iterations", "adaptive.capped_rounds")
# Self time summed per layer for the design checks.
LAYERS = {
    "witness": ("witness.setting_probabilities", "witness.born_probabilities"),
    "core.state_build": ("core.state_build",),
    "core.psd_project": ("core.psd_project",),
    "allocator": ("allocator.allocate_sc",),
    "simulator.sample_counts": ("simulator.sample_counts",),
    "simulator": ("simulator.estimator",),
    "adaptive": ("adaptive.run_adaptive", "adaptive.sweep_epsilon_ratio"),
    "hoeffding": ("hoeffding.coverage_experiment",),
    "phaselift": ("phaselift.reconstruct", "phaselift.sampled_frequencies",
                  "phaselift.reconstruction_curve"),
    "cli": ("cli.main",),
    "bench": ("bench.job",),
}


class SetupError(Exception):
    """The benchmark cannot run here (no library, or set-up failed)."""


def import_qcopies():
    try:
        import qcopies
    except ImportError as exc:
        raise SetupError(f"cannot import qcopies from {SRC}: {exc}") from exc
    if Path(qcopies.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"qcopies resolved to {qcopies.__file__}, not under {SRC}")
    return qcopies


def job_seeds(seed: int) -> list[int]:
    import numpy as np

    return np.random.SeedSequence(seed).generate_state(JOB_SEEDS).tolist()


def build_jobs(workload: str, seed: int, smoke: bool):
    from workloads import WORKLOADS

    q = import_qcopies()
    return q, WORKLOADS[workload](q, job_seeds(seed), smoke)


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter until its jobs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Rep:
    """Runs the job list once and keeps what the checks need.  `between`,
    if given, runs after each job, outside the timed intervals."""

    def __init__(self, jobs, tracer=None, index=0, between=None):
        self.outcomes = {}
        self.errors = {}
        self.wall = self.cpu = 0.0
        self.job_wall, self.job_cpu = {}, {}
        for job in jobs:
            wall0, cpu0 = time.perf_counter(), cpu_seconds()
            try:
                if tracer is None:
                    self.outcomes[job.name] = job.run()
                else:
                    tracer.job = f"rep{index}/{job.name}"
                    self.outcomes[job.name] = tracer.call("bench.job", job.run)
            except Exception as exc:  # a raising job is a failed job, not a crash
                self.errors[job.name] = f"{type(exc).__name__}: {exc}"
            self.job_wall[job.name] = time.perf_counter() - wall0
            self.job_cpu[job.name] = cpu_seconds() - cpu0
            self.wall += self.job_wall[job.name]
            self.cpu += self.job_cpu[job.name]
            if between is not None:
                between()


class Checks:
    """Band checks of every job of every rep, plus replay identity: reps of
    one run use the same seeds, so their outcomes must be identical."""

    def __init__(self, jobs, smoke):
        self.jobs = jobs
        self.smoke = smoke
        self.attempted = 0
        self.failures = []
        self.first = {}     # job name -> its first outcome, which reps must repeat

    def add(self, rep: Rep, label: str):
        for job in self.jobs:
            self.attempted += 1
            problems = []
            if job.name in rep.errors:
                problems.append(f"raised {rep.errors[job.name]}")
            else:
                outcome = rep.outcomes[job.name]
                if not self.smoke:
                    problems += job.check(outcome)
                if self.first.setdefault(job.name, outcome) != outcome:
                    problems.append("outcome differs from the first rep at the same seed")
            if problems:
                self.failures.append({"rep": label, "job": job.name, "problems": problems})

    @property
    def failed(self) -> int:
        return len(self.failures)


def layer_values(spans, counts) -> dict:
    from spans import call_counts, self_times

    selfs = self_times(spans)
    calls = call_counts(spans)
    v = {}
    for name in ("witness.setting_probabilities", "witness.born_probabilities",
                 "core.psd_project", "allocator.allocate_sc", "simulator.sample_counts",
                 "adaptive.run_adaptive", "phaselift.reconstruct"):
        v[f"{name}.calls"] = calls[name]
    for name in ("witness.setting_probabilities", "witness.born_probabilities",
                 "core.state_build", "core.psd_project", "allocator.allocate_sc",
                 "simulator.sample_counts", "hoeffding.coverage_experiment",
                 "phaselift.reconstruct", "phaselift.sampled_frequencies",
                 "phaselift.reconstruction_curve"):
        v[f"{name}.self_s"] = selfs.get(name, 0.0)
    v["simulator.self_s"] = selfs.get("simulator.estimator", 0.0)
    v["adaptive.self_s"] = (selfs.get("adaptive.run_adaptive", 0.0)
                            + selfs.get("adaptive.sweep_epsilon_ratio", 0.0))
    v["cli.self_s"] = selfs.get("cli.main", 0.0)
    for name in ("witness.bytes_computed", "witness.flops_computed",
                 "simulator.copies_sampled", "simulator.trials", "adaptive.rounds",
                 "adaptive.capped_rounds", "hoeffding.estimates", "phaselift.iterations"):
        v[name] = counts[name]
    solves = calls["phaselift.reconstruct"]
    v["phaselift.converged_ratio"] = counts["phaselift.converged"] / solves if solves else 0.0
    v["_layers"] = {layer: sum(selfs.get(s, 0.0) for s in names)
                    for layer, names in LAYERS.items()}
    return v


def design_checks(workload, layers, calls, wall) -> list[str]:
    """The traced shares each workload was chosen for (informational)."""
    lines = []
    if workload == "certify-n10":
        share = layers["witness"] / wall
        lines.append(f"witness self time {share:.1%} of traced wall_s (want >= 80%)")
    elif workload == "tomography-n3":
        share = (layers["phaselift"] + layers["core.psd_project"]) / wall
        lines.append(f"phaselift + core.psd_project {share:.1%} of traced wall_s "
                     f"(want >= 80%); witness calls "
                     f"{calls['witness.born_probabilities.calls']} (want 0)")
    elif workload == "verify-mc":
        top = max(layers, key=layers.get)
        lines.append(f"largest layer self time: {top} (want simulator.sample_counts)")
    elif workload == "feedback":
        present = [k for k in ("witness", "simulator.sample_counts", "allocator", "adaptive")
                   if layers[k] > 0]
        lines.append(f"layers with spans: {', '.join(present)} "
                     f"(want witness, simulator.sample_counts, allocator, adaptive)")
    shares = ", ".join(f"{k} {v / wall:.1%}" for k, v in
                       sorted(layers.items(), key=lambda kv: -kv[1]) if v > 0)
    lines.append(f"self-time shares: {shares}")
    return lines


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def git_commit() -> str:
    """HEAD, with "+dirty" when tracked files differ from it."""
    if not (ROOT / ".git").exists():  # don't report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return head + ("+dirty" if dirty else "")


def run_untraced(workload, seed, jobs, checks, seconds, probes):
    """Reps of the job list for `seconds`.  Set-up probes run between jobs,
    spread evenly over the run: the machine's speed shifts every few
    seconds, so probes run back to back would all sample one speed."""
    reps, setup = [], []
    start = time.perf_counter()

    def probe_if_due():
        due = min(probes, int(probes * (time.perf_counter() - start) / max(seconds, 1e-9)))
        while len(setup) < due:
            setup.append(probe_setup(workload, seed, checks.smoke))

    while len(reps) < MIN_REPS or time.perf_counter() - start + reps[-1].wall <= seconds:
        rep = Rep(jobs, between=probe_if_due)
        checks.add(rep, f"rep{len(reps)}")
        reps.append(rep)
    setup += [probe_setup(workload, seed, checks.smoke) for _ in range(probes - len(setup))]
    return reps, setup


def run_traced(q, jobs, checks, seconds, tracer):
    """Alternate untraced and traced reps; per-rep layer values."""
    untraced, traced, values = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or time.perf_counter() - start + untraced[-1].wall + traced[-1].wall <= seconds):
        i = len(traced)
        rep = Rep(jobs)
        checks.add(rep, f"untraced{i}")
        untraced.append(rep)
        first_span = len(tracer.spans)
        with tracer.installed(q):
            rep = Rep(jobs, tracer, index=i)
        checks.add(rep, f"traced{i}")
        traced.append(rep)
        values.append(layer_values(tracer.spans[first_span:], tracer.flush_counts()))
    return untraced, traced, values


def per_layer_metrics(untraced, traced, values, setup_value):
    metrics = {}
    counts_identical = True
    for name, unit in PER_LAYER.items():
        if name.startswith(("trace.", "core.state_build.setup")):
            continue
        samples = [v[name] for v in values]
        if unit == "s":
            metrics[name] = statistics.median(samples)
        else:  # counts repeat exactly at a fixed seed
            metrics[name] = samples[0]
            counts_identical &= all(s == samples[0] for s in samples)
    metrics["core.state_build.setup_self_s"] = setup_value
    metrics["trace.wall_s"] = statistics.median(r.wall for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(r.wall for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {k: metrics[k] for k in PER_LAYER}, counts_identical


def measure(args) -> tuple[dict, dict]:
    """Run one workload; returns (printed result, full record)."""
    record = {"environment": environment(args)}
    if args.trace:
        from spans import Tracer, self_times

        tracer = Tracer()
        q = import_qcopies()
        tracer.job = "setup"
        with tracer.installed(q):
            q, jobs = tracer.call("bench.setup", build_jobs, args.workload, args.seed,
                                  args.smoke)
        setup_state = self_times(tracer.spans).get("core.state_build", 0.0)
        tracer.flush_counts()
        checks = Checks(jobs, args.smoke)
        untraced, traced, values = run_traced(q, jobs, checks, args.seconds, tracer)
        metrics, identical = per_layer_metrics(untraced, traced, values, setup_state)
        units = PER_LAYER
        wall = metrics["trace.wall_s"]
        layers = {k: statistics.median(v["_layers"][k] for v in values) for k in LAYERS}
        record["design"] = design_checks(args.workload, layers, metrics, wall)
        record["exact_repeat"] = {
            "identical": identical,
            "counters": {k: [v[k] for v in values] for k in EXACT_COUNTERS},
        }
        record["layer_self_s"] = [v["_layers"] for v in values]
        spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        OUT.mkdir(exist_ok=True)
        with spans_file.open("w") as fh:
            for sid, name, t0, t1, parent, job in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        q, jobs = build_jobs(args.workload, args.seed, args.smoke)
        checks = Checks(jobs, args.smoke)
        reps, setup = run_untraced(args.workload, args.seed, jobs, checks, args.seconds,
                                   1 if args.smoke else SETUP_PROBES)
        identical = True
        # Means, not medians: the host's speed shifts between levels every few
        # seconds and consecutive reps share a level, so the median of a run's
        # reps jumps between levels while the mean moves smoothly.
        metrics = {
            "wall_s": statistics.fmean(r.wall for r in reps),
            "cpu_s": statistics.fmean(r.cpu for r in reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["samples"] = {"wall_s": [r.wall for r in reps], "cpu_s": [r.cpu for r in reps],
                             "setup_s": setup,
                             "job_wall_s": [r.job_wall for r in reps],
                             "job_cpu_s": [r.job_cpu for r in reps]}
    record["failures"] = checks.failures
    record["outcomes"] = checks.first
    result = {
        "correct": checks.failed == 0 and identical,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    return result, record


def report(result, record):
    env = record["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':40s} {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    for f in record["failures"]:
        print(f"FAILED {f['rep']}/{f['job']}: {'; '.join(f['problems'])}")
    if "exact_repeat" in record:
        state = "identical" if record["exact_repeat"]["identical"] else "DIFFER"
        print(f"exact-repeat counters across {len(record['layer_self_s'])} traced reps: {state}")
        for line in record["design"]:
            print(f"design: {line}")


def run_one(args) -> int:
    result, record = measure(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    report(result, record)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own so that peak RSS and
    set-up stay per workload.  Smoke mode runs each traced and untraced."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.smoke else (args.trace,):
            print(f"== {workload} --trace {trace}", flush=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode:
                return proc.returncode
            ok &= json.loads(proc.stdout.splitlines()[-1])["correct"]
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: 30, or 0 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload runs every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else 30
    try:
        if args.setup_probe:
            build_jobs(args.workload, args.seed, args.smoke)
            print("ready", flush=True)
            return 0
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
