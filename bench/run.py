"""Seeded closed-loop benchmark for shiftlab.

    python3 bench/run.py --workload language --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client sends one job at a time (closed loop, no threads) for
`--seconds`, then prints a summary and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run first repeats
the workload untraced for half the time, then replays the same jobs on
a fresh session with every layer wrapped, and reports the per-layer
breakdown plus the tracing overhead.  Run it from the repository root;
it imports shiftlab from src/ and the oracles from tests/.
"""

import argparse
import bisect
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("words", "subshifts", "complexity", "chains", "autos", "spacetime",
          "systems", "suites", "cli", "errors")
MIN_SETUPS = 21
SETUPS_PER_CHUNK = 3
CALIBRATE_EVERY_S = 0.1
# Times are reported for a reference host on which calibration_slice()
# takes this long (about the fast state of the 2-core VM the bounds in
# BENCHMARK.json were measured on).
REFERENCE_SLICE_S = 0.0002

CALLS_AND_SELF = (
    "subshifts.words", "words.sort_words", "subshifts.count_words", "subshifts.contains",
    "subshifts.contains_config", "subshifts.parse_spec", "complexity.complexity_table",
    "complexity.extension_radius", "complexity.min_nonextendable_radius",
    "complexity.find_extension_window", "chains.forbid", "chains.cylinder_has_aperiodic",
    "chains.verify_removal_bound", "chains.unique_extension", "chains.build_chain",
    "chains.shadowing_distance", "chains.syndetic_gap", "autos.block_code",
    "autos.apply_to_word", "autos.compose", "autos.pad", "autos.equal_on_shift",
    "autos.find_inverse", "autos.parse_code", "autos.certify_automorphism",
    "autos.apply_to_config", "systems.make_example", "cli.main",
)
SELF_ONLY = (
    "autos.enumerate_automorphisms", "autos.certify_free_semigroup",
    "autos.subgroup_closure", "spacetime.spacetime_window", "spacetime.rect_complexity",
    "spacetime.detect_period_vectors", "spacetime.power_is_shift", "suites.run_suite",
)
COUNTERS = (
    ("subshifts.words.returned", "count"),
    ("words.sort_words.items", "count"),
    ("chains.build_chain.errors", "count"),
    ("autos.enumerate_automorphisms.tables_tried", "count"),
)


def percentile(samples, q):
    """Nearest-rank q-quantile, defined only with >= 10 samples beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < 10:
        raise ValueError(f"p{q * 100:g} needs 10 samples beyond it; have {n} samples")
    return sorted(samples)[rank - 1]


def import_shiftlab():
    """A fresh import of every shiftlab module (earlier imports are dropped)."""
    for name in list(sys.modules):
        if name == "shiftlab" or name.startswith("shiftlab."):
            del sys.modules[name]
    importlib.import_module("shiftlab")
    return {m: importlib.import_module(f"shiftlab.{m}") for m in LAYERS}


def time_setup(workload, inputs):
    """One set-up: a cold import of shiftlab plus the session's builds."""
    start = time.perf_counter()
    modules = import_shiftlab()
    session = workload.setup(modules, inputs)
    return time.perf_counter() - start, modules, session


def sample_setup(workload, inputs, samples, count=1):
    """Time `count` more set-ups at the host's current speed, scaled as the
    jobs are.

    The session's modules are put back in place afterwards.
    """
    kept = {k: v for k, v in sys.modules.items()
            if k == "shiftlab" or k.startswith("shiftlab.")}
    for _ in range(count):
        now = calibration_slice()
        samples.append(time_setup(workload, inputs)[0] * REFERENCE_SLICE_S / now)
    for name in [k for k in sys.modules if k == "shiftlab" or k.startswith("shiftlab.")]:
        del sys.modules[name]
    sys.modules.update(kept)


def calibration_slice():
    """Time a fixed slice of tuple, dict and sort work (the fastest of three).

    The host's speed drifts by tens of percent within seconds; these
    samples, taken every CALIBRATE_EVERY_S between jobs, track it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        words = [tuple((i * 7919 + k) % 13 for k in range(6)) for i in range(200)]
        index = {w: i for i, w in enumerate(words)}
        sorted(words, key=index.get)
        best = min(best, time.perf_counter() - start)
    return best


def host_speed_factors(tally):
    """Per job: REFERENCE_SLICE_S / the calibration slice taken just before it."""
    times = [t for t, _ in tally.calibration]
    return [REFERENCE_SLICE_S / tally.calibration[bisect.bisect_right(times, s) - 1][1]
            for s in tally.starts]


class Tally:
    """Latencies (in job order), failures and job mix of one phase.

    A periodic workload repeats its jobs; `attempted` and `failed` count
    distinct jobs (a job failed if any run of it failed), so they are the
    same in every run that covers a whole period.
    """

    def __init__(self):
        self.latencies = []
        self.attempted = set()   # distinct job slots
        self.failures = {}       # job slot -> (job name, reason, defect or None)
        self.kinds = Counter()
        self.backends = Counter()
        self.cli = 0
        self.starts = []       # perf_counter at each job's start
        self.calibration = []  # (perf_counter, seconds of one calibration slice)


def run_jobs(workload, session, tally, seconds=None, count=None, wrap=None,
             after_chunk=None):
    """Closed loop: whole chunks of jobs (whole periods of a periodic
    workload, so every job runs equally often) until `seconds` pass, or
    `count` jobs."""
    from workloads import Mismatch

    deadline = time.perf_counter() + (seconds or 0)
    last_calibration = -math.inf
    stride = workload.period or workload.chunk

    def more(i):
        if count is not None:
            return i < count
        return i % stride or i == 0 or time.perf_counter() < deadline

    i = 0
    while more(i):
        slot = i % workload.period if workload.period else i
        job = workload.job(session, slot)
        run = wrap(f"job.{job.kind}", job.run) if wrap else job.run
        if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
            last_calibration = time.perf_counter()
            tally.calibration.append((last_calibration, calibration_slice()))
        start = time.perf_counter()
        tally.starts.append(start)
        try:
            outcome = ("ok", run())
        except Exception as exc:  # the check decides whether it was expected
            outcome = ("raised", exc)
        tally.latencies.append(time.perf_counter() - start)
        tally.attempted.add(slot)
        try:
            job.check(outcome)
        except Mismatch as exc:
            tally.failures.setdefault(slot, (job.name, str(exc), exc.defect))
        except Exception as exc:
            traceback.print_exc()
            tally.failures.setdefault(slot, (job.name, f"check crashed: {exc!r}", None))
        tally.kinds[job.kind] += 1
        tally.backends[job.backend] += 1
        tally.cli += job.cli
        i += 1
        if after_chunk is not None and i % workload.chunk == 0:
            after_chunk()
    return i


def end_to_end(tally, setup_samples):
    """The run's figures, scaled to the reference host.

    Each job's latency is multiplied by its host speed factor (see
    host_speed_factors), so the figures do not move with the host's speed
    drift; the second result gives the same figures unscaled.  The run
    stops only at a chunk or period boundary, so its job mix is whole cycles.
    """
    raw = tally.latencies
    scaled = [t * f for t, f in zip(raw, host_speed_factors(tally))]

    def figures(lat):
        return {"jobs_per_s": (len(lat) / sum(lat), "1/s"),
                "job_p50_ms": (percentile(lat, 0.5) * 1000, "ms"),
                "job_p90_ms": (percentile(lat, 0.9) * 1000, "ms")}

    metrics = {"setup_s": (statistics.median(setup_samples), "s"), **figures(scaled),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    return metrics, figures(raw)


def per_layer(tracer, overhead):
    tracer.finish()
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name, unit in COUNTERS:
        out[name] = (tracer.extra.get(name, 0), unit)
    words_calls = tracer.calls.get("subshifts.words", 0)
    out["subshifts.words.repeat_ratio"] = (
        tracer.extra.get("subshifts.words.repeats", 0) / max(words_calls, 1), "ratio")
    certify_calls = tracer.calls.get("autos.certify_automorphism", 0)
    out["autos.certify_automorphism.certified_ratio"] = (
        tracer.extra.get("autos.certify_automorphism.certified", 0) / max(certify_calls, 1),
        "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def summarize(workload, tally, metrics, extra_lines=()):
    n = len(tally.latencies)
    lines = [f"workload {workload.name}: {workload.why}",
             f"  jobs {n}, cli share {tally.cli / n:.3f}, word budget "
             f"{getattr(workload, 'budget', 'n/a')}",
             "  job kinds " + ", ".join(f"{k}:{v / n:.3f}" for k, v in sorted(tally.kinds.items())),
             "  backends " + ", ".join(f"{k}:{v / n:.3f}"
                                       for k, v in sorted(tally.backends.items()))]
    lines.extend(extra_lines)
    attempted, failed = len(tally.attempted), len(tally.failures)
    lines.append(f"  failed_ratio {failed / attempted:.6f} ratio "
                 f"({failed} of {attempted} distinct jobs)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} {value:.6g} {unit}")
    for job, reason, defect in tally.failures.values():
        tag = f"known defect {defect}" if defect else "UNEXPLAINED"
        lines.append(f"  FAILED {job}: {reason} [{tag}]")
    return lines


def main(argv=None):
    from workloads import KNOWN_DEFECTS, WORKLOADS, check_session

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                        help="one workload, or all of them, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    for needed in (ROOT / "src" / "shiftlab" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a shiftlab checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import oracles

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    # Every set-up imports shiftlab cold, compiling from source: no bytecode
    # is read from or written to the checkout.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(Path(workdir) / "pycache")
    try:
        inputs = workload.generate(args.seed, workdir, oracles, import_shiftlab())
        _, modules, session = time_setup(workload, inputs)
        check_session(session)
        if hasattr(workload, "references"):
            workload.references(session)
        tally = Tally()
        extra = []
        if not args.trace:
            setup_samples = []
            run_jobs(workload, session, tally, seconds=args.seconds,
                     after_chunk=lambda: sample_setup(workload, inputs, setup_samples,
                                                      SETUPS_PER_CHUNK))
            while len(setup_samples) < MIN_SETUPS:
                sample_setup(workload, inputs, setup_samples)
            metrics, raw = end_to_end(tally, setup_samples)
            speeds = sorted(d for _, d in tally.calibration)
            extra.append(f"  {len(tally.latencies) // workload.chunk} chunks of "
                         f"{workload.chunk} jobs, {len(setup_samples)} set-ups, "
                         f"{len(speeds)} calibration slices "
                         f"(fastest {speeds[0] * 1e3:.3f} ms, slowest {speeds[-1] * 1e3:.3f} ms)")
            extra.append("  unscaled: " + ", ".join(f"{k} {v:.6g} {u}"
                                                    for k, (v, u) in raw.items()))
        else:
            from tracing import Tracer

            untraced = Tally()
            count = run_jobs(workload, session, untraced, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                session = workload.setup(modules, inputs)
                run_jobs(workload, session, tally, count=count, wrap=tracer.wrap)
            finally:
                tracer.uninstall()
            overhead = (sum(t * f for t, f in zip(tally.latencies, host_speed_factors(tally)))
                        / sum(t * f for t, f in zip(untraced.latencies,
                                                    host_speed_factors(untraced))))
            metrics = per_layer(tracer, overhead)
            spans = work_root / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.dump(spans)
            extra.append(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in summarize(workload, tally, metrics, extra):
        print(line)
    for key, text in KNOWN_DEFECTS.items():
        if any(defect == key for _, _, defect in tally.failures.values()):
            print(f"  known defect {key}: {text}")
    unexplained = [f for f in tally.failures.values() if f[2] is None]
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(tally.attempted),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
