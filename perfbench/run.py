"""Benchmark of the spinchain command line, run from the root of a checkout.

    python3 perfbench/run.py --workload levels --seed 1 --seconds 10 --trace 0

One closed-loop caller drives `spinchain.cli.main(argv)` in process, one op
at a time, each op writing its table to a file through `--out`. After each
op, outside the timed interval, the output is checked against references
that do not use the solver under test (see checks.py). The op list is
repeated in whole passes until `--seconds` of op time has been measured.
Times are reported at nominal machine speed: op times are scaled by a
reference kernel timed before every op (see speed.py), and cold starts by a
reference cold start next to each (see setup_s); the raw times are in the
details.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs every op twice, untraced then traced, and reports the per-layer
metrics from the traced spans, per pass of the op list. The last line of
stdout is the result object; the line before it, and a file under
`.perfbench_out/`, hold the details: environment, failure reasons, the
negative controls of the checker and the tail percentile used.
"""

from __future__ import annotations

import os
import sys

# one closed-loop caller on a single BLAS thread; fixed before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

WORKLOADS = ("levels", "mathieu-chart", "trajectories")
SETUP_PAIRS = 6
TAIL_BEYOND = 10
# after the passes, the ops this many ranks either side of the median and
# the tail op run this many more times each
REPEAT_RANKS = 2
REPEAT_RUNS = 2
COLD_TIMEOUT_S = 60

# what `spinchain` does when installed: import the CLI and run one command
COLD_CODE = "import sys; from spinchain.cli import main; sys.exit(main(sys.argv[1:]))"
# a cold start of the same kind without spinchain: it loads the libraries
# the solvers use, so no change to spinchain can move it
REFERENCE_CODE = "import numpy, scipy.linalg"
REFERENCE_NOMINAL_S = 0.6


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        # a checkout that is not a repository must not report an enclosing one
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running ops


def cold_start_s(code: str, args: list[str], what: str) -> float:
    """Wall time of a fresh interpreter that runs `code` with `args`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=COLD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cold start of {what} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-500:]}")
    return elapsed


def setup_times(op, out_path: str) -> tuple[list[float], list[float]]:
    """Cold starts of `op` and of the reference, in turn, SETUP_PAIRS of each.

    A pair before them only fills the bytecode and page caches.
    """
    op_s, ref_s = [], []
    for _ in range(SETUP_PAIRS + 1):
        ref_s.append(cold_start_s(REFERENCE_CODE, [], "the reference"))
        op_s.append(cold_start_s(COLD_CODE, [*op.argv, "--out", out_path], repr(op.key)))
    return op_s[1:], ref_s[1:]


def setup_s(op_s: list[float], ref_s: list[float]) -> float:
    """Cold start of the first op on a machine where the reference takes
    REFERENCE_NOMINAL_S: the median over pairs of op over reference time.

    Cold starts change speed from run to run by up to 1.7x, together with
    the reference next to them but not with the kernel of speed.py.
    """
    return statistics.median(o / r for o, r in zip(op_s, ref_s)) * REFERENCE_NOMINAL_S


def run_op(cli, op, out_path: str) -> tuple[float, str | None]:
    """(latency in s, failure reason from the exit or an exception, or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    argv = op.argv + ["--out", out_path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught exception is a failed op
            elapsed = time.perf_counter() - t0
            return elapsed, f"exception: {type(exc).__name__}"
        elapsed = time.perf_counter() - t0
    if code != 0:
        msg = err.getvalue().strip().splitlines()
        return elapsed, f"exit: {code}" + (f" ({msg[-1][:160]})" if msg else "")
    return elapsed, None


class Ledger:
    """Attempts, failures with their reasons, and per-op latencies."""

    def __init__(self, ops, known_failure):
        self.ops = ops
        self.known_failure = known_failure
        self.latency: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.failed_ops: dict[str, str] = {}
        self.unexpected: dict[str, str] = {}
        self.rows_out = 0

    def record(self, i: int, elapsed: float, reason: str | None, rows: int,
               counted: bool = True) -> None:
        """Add one run of op `i`. A run that is not `counted` adds its latency
        and is checked for regressions, but leaves the counts to the passes."""
        self.latency[i].append(elapsed)
        op = self.ops[i]
        if reason is not None and not self.known_failure(op.key, reason):
            self.unexpected[op.key] = reason
        if not counted:
            return
        self.attempted += 1
        self.rows_out += rows
        if reason is None:
            return
        self.failed += 1
        self.reasons[reason.split(":", 1)[0]] += 1
        self.failed_ops[op.key] = reason

    def op_latencies(self, scale: float = 1.0) -> list[float]:
        """Median latency of each op of the list over its attempts, times `scale`."""
        return [statistics.median(v) * scale for v in self.latency]


def tail_rank(count: int) -> int:
    """Rank of the highest percentile with TAIL_BEYOND ops of the list beyond it."""
    return max(count - TAIL_BEYOND - 1, 0)


def order_statistic_ops(latencies: list[float]) -> list[int]:
    """Ops within REPEAT_RANKS ranks of the median and of the tail rank."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    count = len(order)
    centres = ((count - 1) // 2, count // 2, tail_rank(count))
    return sorted({order[r] for c in centres
                   for r in range(max(c - REPEAT_RANKS, 0), min(c + REPEAT_RANKS + 1, count))})


def end_to_end(ledger: Ledger, scale: float, setup: float) -> tuple[dict, dict]:
    lat = sorted(ledger.op_latencies(scale))
    count = len(lat)
    rank = tail_rank(count)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[rank] * 1e3, "ms"),
        "ok_frac": (1.0 - ledger.failed / ledger.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail = {"percentile": 100.0 * (rank + 1) / count, "ops_beyond": count - rank - 1,
            "op_count": count}
    return metrics, tail


def per_layer(summary: dict, passes: int, ledger: Ledger, overhead: float, scale: float) -> dict:
    """Per-pass layer metrics; times are scaled to nominal speed by `scale`."""

    def per_pass(name):
        value = summary.get(name, 0.0) / passes
        return value * scale if _unit(name) == "ms" else value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("bethe.solve_level.calls", "bethe.solve_level.ms", "bethe.bethe_roots.self_ms",
                 "bethe.coefficient_recurrence_solutions.ms", "bethe.bethe_residual.calls",
                 "bethe.branches_returned",
                 "mathieu.solve.calls", "mathieu.solve.ms", "mathieu.truncation_sum",
                 "mathieu.offplane_spectrum.ms", "mathieu.inplane_spectrum.ms",
                 "classical.integrate_static.calls", "classical.integrate_static.ms",
                 "classical.rk4_steps", "stereo.calls", "stereo.ms",
                 "verify.run_suite.ms", "verify.nlsm_equivalence.ms",
                 "cli.main.calls", "cli.main.ms", "cli.self_ms"):
        m[name] = per_pass(name)
    m["mathieu.solve.max_ms"] = summary.get("mathieu.solve.max_ms", 0.0) * scale
    m["bethe.branch_yield"] = ratio(m["bethe.branches_returned"], per_pass("bethe.branches_expected"))
    m["classical.us_per_step"] = ratio(m["classical.integrate_static.ms"] * 1e3, m["classical.rk4_steps"])
    m["stereo.us_per_point"] = ratio(m["stereo.ms"] * 1e3, m["stereo.calls"])
    m["cli.rows_out"] = ledger.rows_out / passes
    m["cli.us_per_row"] = ratio(m["cli.self_ms"] * 1e3, m["cli.rows_out"])
    m["trace.overhead_frac"] = overhead
    return m


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("ms", "self_ms", "max_ms"):
        return "ms"
    if last.startswith("us_per_"):
        return "us"
    if last in ("branch_yield", "overhead_frac"):
        return "frac"
    return "count"


def declared_metrics(trace: int) -> dict[str, str]:
    """Names and units BENCHMARK.json declares for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path.name} to check the emitted metrics against")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def bench(args, workdir: Path) -> tuple[dict, dict]:
    import checks
    import workloads
    from speed import NOMINAL_S, SpeedLog
    from tracing import Tracer

    declared = declared_metrics(args.trace)
    ops = workloads.BUILDERS[args.workload](args.seed, str(workdir))
    out_paths = {fmt: str(workdir / f"out.{fmt}") for fmt in ("csv", "json")}

    # cold starts first, before this process imports the package
    cold = setup_times(ops[0], out_paths[ops[0].fmt]) if not args.trace else ([], [])

    from spinchain import cli

    # warm-up: one op of each kind, so lazy set-up is done before timing
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(cli, op, out_paths[op.fmt])

    ledger = Ledger(ops, workloads.known_failure)
    traced = Ledger(ops, workloads.known_failure)
    tracer = Tracer() if args.trace else None
    speed = SpeedLog()
    controls: dict[str, dict] = {}
    control_kinds = {op.kind for op in ops if op.kind in checks.CONTROLS}
    measured = 0.0
    passes = 0
    while passes == 0 or measured < args.seconds:
        for i, op in enumerate(ops):
            path = out_paths[op.fmt]
            speed.sample()
            elapsed, reason = run_op(cli, op, path)
            measured += elapsed
            rows = 0
            if reason is None:
                reason, rows = checks.check(op, path)
            ledger.record(i, elapsed, reason, rows)
            if reason is None and op.kind not in controls and checks.control_candidate(op):
                controls[op.kind] = checks.negative_controls(op, path)
            if tracer is not None:
                tracer.install()
                try:
                    elapsed, reason = run_op(cli, op, path)
                finally:
                    tracer.uninstall()
                measured += elapsed
                rows = 0
                if reason is None:
                    reason, rows = checks.check(op, path)
                traced.record(i, elapsed, reason, rows)
        passes += 1
    repeated = []
    if tracer is None:
        # the median and the tail are each one op's latency, a single run in
        # one pass: run the ops at and next to those ranks again, so that a
        # median of runs sets them
        repeated = order_statistic_ops(ledger.op_latencies())
        for i in repeated:
            op, path = ops[i], out_paths[ops[i].fmt]
            for _ in range(REPEAT_RUNS):
                speed.sample()
                elapsed, reason = run_op(cli, op, path)
                if reason is None:
                    reason, _ = checks.check(op, path)
                ledger.record(i, elapsed, reason, 0, counted=False)
    scale = speed.scale(workloads.SPEED_EXPONENT[args.workload])

    layer_totals = None
    problems = []
    if ledger.unexpected or traced.unexpected:
        problems.append("failures outside the known defects")
    missed = [f"{kind}: {name}" for kind, res in controls.items() for name, r in res.items() if r is None]
    if missed or set(controls) != control_kinds:
        problems.append("negative controls not all caught")

    if args.trace:
        overhead = sum(traced.op_latencies()) / sum(ledger.op_latencies()) - 1.0
        layer_totals = tracer.summary()
        values = per_layer(layer_totals, passes, traced, overhead, scale)
        metrics = {name: (value, _unit(name)) for name, value in values.items()}
        tail = None
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics, tail = end_to_end(ledger, scale, setup_s(*cold))

    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        problems.append("emitted metric names or units differ from BENCHMARK.json")

    result = {
        "correct": not problems,
        "attempted": ledger.attempted + traced.attempted,
        "failed": ledger.failed + traced.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = {
        "environment": environment(args.workload, args.seed, args.seconds, args.trace),
        "passes": passes,
        "repeated_ops": [ops[i].key for i in repeated],
        "op_count": len(ops),
        "problems": problems,
        "failure_reasons": dict(ledger.reasons),
        "failed_ops": ledger.failed_ops,
        "unexpected_failures": {**ledger.unexpected, **traced.unexpected},
        "failed_frac": ledger.failed / ledger.attempted,
        "negative_controls": controls,
        "tail": tail,
        "layer_totals_raw": layer_totals,
        "speed": {
            "nominal_kernel_s": NOMINAL_S,
            "exponent": workloads.SPEED_EXPONENT[args.workload],
            "mean_kernel_s": statistics.mean(speed.samples),
            "wall_raw_s": sum(ledger.op_latencies()),
            "setup_raw_s": cold[0],
            "setup_reference_s": cold[1],
            "setup_reference_nominal_s": REFERENCE_NOMINAL_S,
            "kernel_samples_s": speed.samples,
        },
        "op_latency_raw_s": {f"{i}: {op.key}": v for i, (op, v) in enumerate(zip(ops, ledger.latency))},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinchain" / "cli.py").is_file():
        print(f"perfbench: no spinchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = bench(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"result": result, **detail}, indent=1) + "\n")
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "op_latency_raw_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
