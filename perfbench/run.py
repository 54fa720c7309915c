"""NetScatter benchmark: closed-loop serial workloads, one command.

Run from the repository root:

    python3 perfbench/run.py --workload population_hybrid --seed 1 \\
        --seconds 35 --trace 0

One process runs one workload. It sets up several times and reports
the median: the import, timed in a fresh child interpreter, then planner
calibration and any store pre-population. It runs one untimed warm-up
op, then ops back to back for ``--seconds``, checks every op's output,
and prints each metric with its unit. Times are reported at a nominal
host speed: between ops and around each set-up the run times a fixed
reference kernel that never calls the program, and divides each time
by the kernel's measured over its nominal time (see ``HostSpeed``). The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every op runs
twice, untraced and traced in alternating order, and the metrics are
the per-layer ones from the traced spans plus the tracing overhead.

Each run also appends a record (host block, metrics, backend mix) to
``.perfbench_out/results.ndjson`` and, when traced, writes its spans
to ``.perfbench_out/trace-<workload>.ndjson`` (the latest traced run
of each workload); compare runs with ``perfbench/compare.py``. Scratch files live under
``.perfbench_tmp/`` and are removed at exit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: BLAS threads per process. The workloads are serial; one thread keeps
#: the timing independent of other load on the host's cores.
BLAS_THREADS = 1
#: Input index of the untimed warm-up op (outside the timed range).
WARMUP_INDEX = 2**31 - 1
#: op_s_tail is the highest percentile, at most TAIL_MAX_PCT, with at
#: least TAIL_SAMPLES samples beyond it. The cap keeps a run of
#: thousands of short ops off its few slowest, which host hiccups set.
TAIL_SAMPLES = 10
TAIL_MAX_PCT = 95
#: Median seconds of the reference kernel on the nominal host; time
#: metrics are reported as seconds on a host where it takes this long.
REFERENCE_NOMINAL_S = 0.010
#: Op seconds between two samples of the reference kernel.
REFERENCE_EVERY_S = 0.25
#: Run in a fresh interpreter: the import a user pays before the first
#: op, timed in a child so that set-up can be repeated within a run.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {
    "device_rounds_per_s": "device-rounds/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _sum(*names):
    return lambda t: sum(t.get(name, 0.0) for name in names)


def _ratio(numerator, denominator):
    def value(t):
        base = denominator(t)
        return numerator(t) / base if base else 0.0

    return value


_STORAGE_PUT = ("storage.put_atomic", "storage.put_exclusive", "storage.replace")

#: Per-layer metric -> (unit, value from the traced ops' summed timings
#: and counters, per op unless the unit is a ratio). README.md maps
#: each to the end-to-end metric and workload it should move.
PER_LAYER = {
    "capacity.closed_form_s": ("s", _sum("outer:capacity")),
    "capacity.chi2_calls_per_cf_group": (
        "ratio",
        _ratio(
            _sum("calls:capacity.noncentral_chi2_cdf"),
            _sum("population.cf_groups", "population.audit_groups"),
        ),
    ),
    "population.deploy_s": ("s", _sum("population.office_population")),
    "population.assign_cluster_s": ("s", _sum("population.assign_cluster")),
    "population.split_fidelity_s": ("s", _sum("population.split_fidelity")),
    "population.mc_groups": ("count", _sum("population.mc_groups")),
    "population.mc_devices": ("count", _sum("population.mc_devices")),
    "population.reason.validity_floor": (
        "count",
        _sum("population.reason.validity_floor"),
    ),
    "population.reason.contended": (
        "count",
        _sum("population.reason.contended"),
    ),
    "population.reason.audit": ("count", _sum("population.reason.audit")),
    "network.sim_init_s": ("s", _sum("network.sim_init")),
    "network.run_rounds_s": ("s", _sum("network.run_rounds")),
    "receiver.decode_readout_self_s": (
        "s",
        _sum("self:receiver.decode_readout"),
    ),
    "receiver.backend.analytic": ("count", _sum("receiver.backend.analytic")),
    "receiver.backend.sparse": ("count", _sum("receiver.backend.sparse")),
    "receiver.backend.fft": ("count", _sum("receiver.backend.fft")),
    "dcss.compose_readout_self_s": ("s", _sum("self:dcss.compose_readout")),
    "dcss.compose_rounds_s": ("s", _sum("dcss.compose_rounds")),
    "sparse_readout.tone_ratio_s": ("s", _sum("sparse_readout.tone_ratio")),
    "noise.standard_complex_s": ("s", _sum("noise.standard_complex")),
    "noise.draws": ("count", _sum("noise.draws")),
    "backend_plan.select_calls": (
        "count",
        _sum("calls:backend_plan.select"),
    ),
    "runner.execute_point_s": ("s", _sum("runner.execute_point")),
    "runner.points_computed": ("count", _sum("runner.points_computed")),
    "runner.points_cached": ("count", _sum("runner.points_cached")),
    "spec.content_hash_s": ("s", _sum("spec.content_hash")),
    "spec.hashes_per_point": (
        "ratio",
        _ratio(_sum("calls:spec.content_hash"), _sum("runner.points")),
    ),
    "store.has_s": ("s", _sum("store.has")),
    "store.load_s": ("s", _sum("store.load")),
    "store.save_s": ("s", _sum("store.save")),
    "storage.get_s": ("s", _sum("storage.get")),
    "storage.put_s": ("s", _sum(*_STORAGE_PUT)),
    "storage.calls": (
        "count",
        lambda t: sum(
            n for key, n in t.items() if key.startswith("calls:storage.")
        ),
    ),
    "leases.acquire_s": ("s", _sum("leases.acquire")),
    "leases.release_s": ("s", _sum("leases.release")),
}
#: Measured per run rather than per op (see ``trace_metrics``).
RUN_LAYER_UNITS = {
    "backend_plan.calibrate_s": "s",
    "trace.top_level_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------------- #
# environment and host
# ---------------------------------------------------------------------- #


def prepare_environment(run_dir: Path) -> None:
    """Pin everything the program reads from the environment.

    Must run before numpy is imported (BLAS reads its thread cap once).
    The planner calibration file is the run's own, so every run
    calibrates once per set-up instead of inheriting another process's
    choices; ``REPRO_*`` fault-injection settings are cleared.
    """
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["REPRO_BACKEND_CALIBRATION"] = str(
        run_dir / "backend-calibration.json"
    )
    os.environ["TMPDIR"] = str(run_dir)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_block() -> Dict[str, object]:
    """What must match before two results may be compared."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(child.stdout.split()[-1])


def tail(values: List[float]) -> Tuple[float, int, int]:
    """``(value, percentile, samples beyond)``: the highest integer
    nearest-rank percentile, at most ``TAIL_MAX_PCT``, with at least
    ``TAIL_SAMPLES`` samples beyond it (the maximum when there are too
    few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100, 0
    pct = min(TAIL_MAX_PCT, math.floor(100 * (n - TAIL_SAMPLES) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    The shared host's speed drifts independently of the program: the
    same op can take 1.7 times as long a minute later, with CPU time
    equal to wall time and no steal time reported. The kernel never
    calls the program. Its mix resembles the program's own: an
    interpreter loop, a loop of small numpy element-wise ops like the
    closed form's, and canonical-JSON SHA-256 hashing like the
    campaign layer's, so a slow host slows it about as much as an op.
    It is sampled between timed ops. Each op's factor is the mean of
    the samples just before and just after it over
    ``REFERENCE_NOMINAL_S``, above 1 on a slow host; each set-up's, the
    mean of ``now()`` before and after it.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        # Series terms stay normal floats: no subnormal slow path.
        self._x = numpy.linspace(1.0, 4.0, 2048)
        self._doc = {
            "name": "reference",
            "grid": {"devices": list(range(0, 256, 8)), "rounds": [1, 2, 3]},
            "params": {"sf": 9, "bandwidth_hz": 500e3, "seed": 0},
        }
        self.samples: List[float] = []
        self._time_kernel()  # first call pays one-off allocation costs

    def _kernel(self) -> float:
        counts: Dict[int, int] = {}
        for i in range(15_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        x = self._x
        term = self._np.exp(-x)
        tail = term.copy()
        total = self._np.zeros_like(x)
        for k in range(150):
            total += term * (1.0 - tail)
            term = term * x / (k + 1)
            tail = tail + term
        for i in range(150):
            self._doc["params"]["seed"] = i
            text = json.dumps(self._doc, sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
            json.loads(text)
        return float(total[0]) + counts[0]

    def _time_kernel(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self._time_kernel())

    def now(self) -> float:
        """Factor from three samples taken now, kept out of ``samples``."""
        times = [self._time_kernel() for _ in range(3)]
        return statistics.median(times) / REFERENCE_NOMINAL_S

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S

    def around(self, before: int) -> float:
        """Factor for an op run between samples ``before`` and the next."""
        pair = self.samples[before : before + 2]
        return sum(pair) / len(pair) / REFERENCE_NOMINAL_S


class Run:
    """One benchmark process: set-up, warm-up, timed ops, checks."""

    def __init__(self, workload, seconds: float, tracer=None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setup_times: List[float] = []
        #: Host speed factor around each set-up.
        self.setup_speeds: List[float] = []
        #: Untraced op seconds; traced runs also keep (untraced, traced)
        #: pairs of the same input.
        self.times: List[float] = []
        #: Index of the host-speed sample taken just before each op.
        self.op_samples: List[int] = []
        self.op_rounds: List[int] = []
        self.paired: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.mixes: List[str] = []
        self.host = HostSpeed()

    def setup(self) -> None:
        """Repeat the whole set-up; each repeat is a fresh import plus
        the workload's own set-up, with the host's speed taken around
        each."""
        speed = self.host.now()
        for _ in range(self.workload.scale.setup_repeats):
            import_s = time_import()
            start = time.perf_counter()
            if self.tracer is None:
                self.workload.setup()
            else:
                self.tracer.op = "setup"
                with self.tracer.attached():
                    self.workload.setup()
            self.setup_times.append(import_s + time.perf_counter() - start)
            after = self.host.now()
            self.setup_speeds.append((speed + after) / 2)
            speed = after

    def _op(self, index: int, traced: bool) -> float:
        """Run, time and check one op; returns its seconds (NaN on error)."""
        self.attempted += 1
        elapsed = math.nan
        try:
            if traced:
                self.tracer.op = index
                with self.tracer.attached():
                    start = time.perf_counter()
                    with self.tracer.span("op"):
                        result = self.workload.op(index)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = self.workload.op(index)
                elapsed = time.perf_counter() - start
            problems = self.workload.check(index, result)
        except Exception:
            problems = [traceback.format_exc()]
        finally:
            self.workload.cleanup_op(index)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)
            return math.nan
        if not traced:
            self.times.append(elapsed)
            self.op_samples.append(len(self.host.samples) - 1)
            self.op_rounds.append(result.device_rounds)
        if result.backend_mix is not None:
            self.mixes.append(result.backend_mix)
        return elapsed

    def measure(self) -> None:
        self.workload.op(WARMUP_INDEX)
        self.workload.cleanup_op(WARMUP_INDEX)
        since_sample = REFERENCE_EVERY_S
        deadline = time.perf_counter() + self.seconds
        for index in itertools.count():
            if index and time.perf_counter() >= deadline:
                break
            if since_sample >= REFERENCE_EVERY_S:
                self.host.sample()
                since_sample = 0.0
            start = time.perf_counter()
            if self.tracer is None:
                self._op(index, traced=False)
            else:
                order = (False, True) if index % 2 == 0 else (True, False)
                pair = {traced: self._op(index, traced) for traced in order}
                if not any(math.isnan(t) for t in pair.values()):
                    self.paired.append((pair[False], pair[True]))
            since_sample += time.perf_counter() - start
        self.host.sample()
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        final = self.workload.finish()
        self.failed += len(final)
        self.problems.extend(final)

    # -------------------------------------------------------------- #

    def end_to_end(self, nominal: bool = True) -> Dict[str, float]:
        """The end-to-end metrics, at nominal host speed unless
        ``nominal`` is false (then as timed on this host)."""
        times = self.times
        if not times:
            return {}
        setup = self.setup_times
        if nominal:
            times = [
                t / self.host.around(before)
                for t, before in zip(times, self.op_samples)
            ]
            setup = [t / f for t, f in zip(setup, self.setup_speeds)]
        tail_value, self.tail_pct, self.tail_beyond = tail(times)
        return {
            "device_rounds_per_s": statistics.median(
                rounds / t for rounds, t in zip(self.op_rounds, times)
            ),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def trace_metrics(self) -> Dict[str, float]:
        from tracing import op_timings

        if not self.paired:
            return {}
        per_op = op_timings(self.tracer.spans)
        ops = [op for op in per_op if op != "setup"]
        totals: Dict[str, float] = {}
        for op in ops:
            merged = dict(per_op[op])
            merged.update(self.tracer.counts.get(op, {}))
            for key, value in merged.items():
                totals[key] = totals.get(key, 0.0) + value
        n_ops = len(ops)
        speed = self.host.factor()
        metrics = {}
        for name, (unit, value) in PER_LAYER.items():
            scale = {"ratio": 1, "s": n_ops * speed}.get(unit, n_ops)
            metrics[name] = value(totals) / scale
        setup = per_op.get("setup", {})
        metrics["backend_plan.calibrate_s"] = setup.get(
            "backend_plan.calibrate", 0.0
        ) / (len(self.setup_times) * statistics.median(self.setup_speeds))
        metrics["trace.top_level_share"] = statistics.median(
            per_op[op]["top_level"] / per_op[op]["op"] for op in ops
        )
        plain = [p for p, _ in self.paired]
        overhead = statistics.median(traced - p for p, traced in self.paired)
        metrics["trace.overhead_s"] = overhead / speed
        metrics["trace.overhead_share"] = overhead / statistics.median(plain)
        return metrics


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return RUN_LAYER_UNITS[name]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' only smoke-tests the harness",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} is missing; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    run_dir = TMP_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return benchmark(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still owns a directory in it


def benchmark(args, run_dir: Path) -> int:
    prepare_environment(run_dir)
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports numpy and repro)

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.wrap_layers(tracer)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SCALES[args.scale], run_dir
    )
    run = Run(workload, args.seconds, tracer)
    run.setup()
    run.measure()

    metrics = run.trace_metrics() if tracer else run.end_to_end()
    as_timed = {} if tracer else run.end_to_end(nominal=False)
    speed = run.host.factor()
    mixes = sorted(
        set(run.mixes) | set(getattr(workload, "populate_mixes", ()))
    )
    if len(mixes) > 1:
        run.problems.append(f"backend mix changed within the run: {mixes}")
    correct = run.failed == 0 and bool(metrics) and len(mixes) <= 1
    host = host_block()

    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}"
    )
    print("host " + json.dumps(host, sort_keys=True))
    print(
        "setup repeats (import + set-up) "
        + ", ".join(f"{t:.4f}" for t in run.setup_times)
        + " s"
    )
    if mixes:
        print(f"backend mix per sweep: {' | '.join(mixes)}")
    print(
        f"host speed factor {speed:.4f} (reference kernel median over "
        f"{REFERENCE_NOMINAL_S} s, {len(run.host.samples)} samples); "
        "around set-ups "
        + ", ".join(f"{f:.4f}" for f in run.setup_speeds)
    )
    for name, value in as_timed.items():
        print(f"as timed: {name} {value:.6g} {_unit(name)}")
    print(
        f"ops attempted {run.attempted}, failed {run.failed}, "
        f"error_rate {run.failed / max(run.attempted, 1):g}"
    )
    for name, value in metrics.items():
        line = f"{name} {value:.6g} {_unit(name)}"
        if name == "op_s_tail":
            line += (
                f" (p{run.tail_pct}: {run.tail_beyond} of "
                f"{len(run.times)} ops beyond)"
            )
        print(line)
    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host,
        "backend_mix": mixes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "metrics_as_timed": as_timed,
        "host_speed": speed,
        "setup_speeds": run.setup_speeds,
        "op_s": run.times,
    }
    with open(OUT_DIR / "results.ndjson", "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_ndjson(
            OUT_DIR / f"trace-{args.workload}.ndjson",
            {"workload": args.workload, "seed": args.seed},
        )

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
