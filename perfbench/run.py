"""Benchmark of the slabresonance README pipeline, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,roots,analyze} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from ``src/``.
The workload's operations (see ``workloads.py``) repeat in passes until
``--seconds`` have gone by; then the canonical README commands run once and
are compared with ``reference/``.  Every output is checked (``checks.py``);
a check that fails because of a known program defect is printed and saved
under ``known_defects`` on every run, and does not count as a failed
operation.  Any other failed check does, and makes the run incorrect.

``--trace 0`` reports the end-to-end metrics and prints the per-command
timings, as a median and the highest percentile with at least ten samples
beyond it.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics from the spans of ``tracing.py``; the spans of the first
traced pass go to ``.perfbench/<workload>-<seed>/spans.jsonl.gz`` beside
``layers.json``.  The last line of standard output is one JSON object.

Runs are single-process with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
PROBE_TIMEOUT = 60

@dataclass
class Result:
    rc: int | None
    error: str | None
    seconds: float
    stdout: str
    stderr: str
    value: object = None


@dataclass
class Tally:
    """Everything measured and checked over a run."""

    times: dict = field(default_factory=dict)
    op_times: dict = field(default_factory=dict)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    defect_ops: int = 0
    defects: dict = field(default_factory=dict)
    rows: int = 0
    row_seconds: float = 0.0
    rows_written: int = 0
    rows_skipped: int = 0
    curves: int = 0
    energy_residual: float = 0.0
    ref_diff: float = 0.0

    def add(self, op, res: Result, outcome, timed: bool):
        self.attempted += 1
        if timed:
            self.times.setdefault(op.kind, []).append(res.seconds / op.curves)
            self.op_times.setdefault(op.label, []).append(res.seconds)
        if outcome.clean and op.kind in ("transmission", "validate"):
            self.rows += outcome.rows_written + outcome.rows_resolved
            self.row_seconds += res.seconds
        if not outcome.ok:
            self.failed += 1
            for reason in outcome.problems:
                key = (op.label, reason)
                self.failures[key] = self.failures.get(key, 0) + 1
        if outcome.defects:
            self.defect_ops += 1
            for reason, tag in outcome.defects:
                key = (op.label, reason, tag)
                self.defects[key] = self.defects.get(key, 0) + 1
        self.rows_written += outcome.rows_written
        self.rows_skipped += outcome.rows_skipped
        if op.kind == "analyze":
            self.curves += op.curves
        self.energy_residual = max(self.energy_residual, outcome.energy_residual)
        if outcome.ref_diff is not None:
            self.ref_diff = max(self.ref_diff, outcome.ref_diff)


def run_op(op) -> Result:
    # look the entry points up on each call, so installed wrappers are used
    from slabresonance import anomaly, cli

    out, err = io.StringIO(), io.StringIO()
    rc = value = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                rc = cli.main(op.argv)
            else:
                value = anomaly.enhancement_scaling(*op.enhancement)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # reported as this operation's failure
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Result(rc, error, seconds, out.getvalue(), err.getvalue(), value)


def fresh(path: Path):
    """Remove a directory so that the next writes create new files.

    Rewriting an existing file truncates it, and ext4 then flushes the file to
    disk on close (auto_da_alloc).  On a 2-core AMD EPYC virtual machine with
    an ext4 virtual disk that cost about 45 ms per file, which would swamp the
    program's own time.  Renaming the directory away first keeps the unlinks
    cheap too.
    """
    if path.exists():
        gone = path.with_name(path.name + ".old")
        path.rename(gone)
        shutil.rmtree(gone)


def execute(ops, out: Path | None = None) -> list[tuple]:
    if out is not None:
        fresh(out)
    return [(op, run_op(op)) for op in ops]


def record(results, tally: Tally, timed=True) -> float:
    """Check each result into the tally; returns the summed operation time."""
    from checks import check

    for op, res in results:
        tally.add(op, res, check(op, res), timed)
    return sum(res.seconds for _, res in results)


def summary(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n > 10:
        q = 100 * (n - 10) // n
        out[f"p{q}"] = s[math.ceil(q * n / 100) - 1]
    return out


def blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def host_info() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def probe(workload: str, seed: int, out: Path) -> float:
    """Set up once in this fresh process; returns the seconds it took.

    The clock starts after the interpreter and numpy have started, which the
    program cannot change: it covers importing the package, loading configs,
    making the seeded inputs and the first-call warm-up.
    """
    import numpy  # noqa: F401

    start = time.perf_counter()
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    workloads.build(workload, seed, Path(tempfile.mkdtemp(prefix="probe-", dir=out)))
    return time.perf_counter() - start


def time_setup(workload: str, seed: int, out: Path) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    for path in out.glob("probe-*"):
        shutil.rmtree(path)
    return times


def layer_metrics(first_spans, pass_stats, per_pass: dict, overhead: float) -> dict:
    """The per_layer metrics of BENCHMARK.json, by name.

    Counts and ratios come from the first traced pass (every pass does the
    same work); self times are medians over the traced passes.
    """
    import tracing

    stats = tracing.function_stats(first_spans)
    values = {**tracing.derived_counts(first_spans, per_pass["curves"]),
              "cli.rows_written": per_pass["rows_written"],
              "cli.rows_skipped": per_pass["rows_skipped"],
              "trace_overhead_frac": overhead}
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        key = spec["name"]
        fn, _, what = key.rpartition(".")
        if key in values:
            value = values[key]
        elif what == "self_s":
            value = statistics.median(p.get(fn, {}).get("self_s", 0.0)
                                      for p in pass_stats)
        else:
            value = stats.get(fn, {}).get(what, 0)
        metrics[key] = {"value": value, "unit": spec["unit"]}
    return metrics


def measure(wl, tally: Tally, seconds: float, out: Path):
    """Untraced passes until ``seconds`` have gone by."""
    import workloads

    deadline = time.perf_counter() + seconds
    while True:
        record(execute(wl.ops, out / workloads.PASS), tally)
        tally.passes += 1
        if time.perf_counter() >= deadline:
            return


def measure_traced(wl, tally: Tally, seconds: float, out: Path) -> dict:
    """Alternate untraced and traced passes; returns the per-layer metrics."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    first_spans, pass_stats, traced_s, plain_s = None, [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain_s.append(record(execute(wl.ops, out / workloads.PASS), tally, timed=False))
        tracer.install()
        try:
            results = execute(wl.ops, out / workloads.PASS)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        pass_stats.append(tracing.function_stats(spans))
        traced_s.append(record(results, tally, timed=False))
        first_spans = first_spans or spans
        if time.perf_counter() >= deadline:
            break
    passes = 2 * len(plain_s)
    per_pass = {"rows_written": tally.rows_written // passes,
                "rows_skipped": tally.rows_skipped // passes,
                "curves": tally.curves // passes}
    tracing.write_spans(out / "spans.jsonl.gz", first_spans)
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return layer_metrics(first_spans, pass_stats, per_pass, overhead)


def end_to_end(tally: Tally, setup_times) -> tuple[dict, dict]:
    """(the end_to_end metrics of BENCHMARK.json, the full printed set)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each operation's median over the passes, summed over one pass
    pass_s = sum(statistics.median(t) for t in tally.op_times.values())
    metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
               "pass_s": {"value": pass_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    # per-command timings, named after the operation kinds: transmission_s
    # (per kappa curve), validate_s, dispersion_s, find_mode_s, tune_s, ...
    detail = {f"{kind}_s": {**summary(times), "unit": "s"}
              for kind, times in tally.times.items()}
    if tally.row_seconds:
        detail["points_per_s"] = {"value": tally.rows / tally.row_seconds,
                                  "unit": "rows/s"}
    detail["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    detail["known_defect_frac"] = {"value": tally.defect_ops / tally.attempted,
                                   "unit": "ratio"}
    detail["ref_max_abs_diff"] = {"value": tally.ref_diff, "unit": "abs"}
    if "transmission" in tally.times:
        detail["energy_residual_max"] = {"value": tally.energy_residual, "unit": "abs"}
    detail["pass_s"] = {**metrics["pass_s"], "passes": tally.passes}
    detail["setup_s"] = {**summary(setup_times), "unit": "s"}
    detail["peak_rss_mb"] = metrics["peak_rss_mb"]
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, for timing set-up in a fresh process")
    args = parser.parse_args(argv)

    if not (SRC / "slabresonance" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = OUT / f"{args.workload}-{args.seed}"
    if args.setup_probe:
        print(probe(args.workload, args.seed, out))
        return 0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    shutil.rmtree(out, ignore_errors=True)
    setup_times = [] if args.trace else time_setup(args.workload, args.seed, out)
    wl = workloads.build(args.workload, args.seed, out)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(wl, tally, args.seconds, out)
    else:
        measure(wl, tally, args.seconds, out)
    record(execute(wl.canonical), tally, timed=False)

    leftover = tracing.wrapped_bindings()
    if leftover:
        tally.attempted += 1
        tally.failed += 1
        tally.failures[("tracer", f"left wrapped: {', '.join(leftover)}")] = 1

    report = {"workload": args.workload, "seed": args.seed, "host": host_info(),
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": [{"op": op, "reason": reason, "count": n}
                           for (op, reason), n in sorted(tally.failures.items())],
              "known_defects": [{"op": op, "reason": reason, "defect": tag, "count": n}
                                for (op, reason, tag), n in sorted(tally.defects.items())]}
    for (op, reason), n in sorted(tally.failures.items()):
        print(f"failure: {op}: {reason} x{n}")
    for (op, reason, tag), n in sorted(tally.defects.items()):
        print(f"known defect [{tag}]: {op}: {reason} x{n}")
    if args.trace:
        report["layers"] = metrics
        (out / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
    else:
        metrics, detail = end_to_end(tally, setup_times)
        report["metrics"] = detail
        report["op_seconds"] = tally.op_times
        (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
        for name, m in detail.items():
            print(f"{name}: " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                          else f"{k}={v}" for k, v in m.items()))
    print(f"host: {json.dumps(report['host'])}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
