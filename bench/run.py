"""Benchmark of the concentratable CLI, end to end and layer by layer.

One workload per process (so set-up time and peak memory belong to it):

    python3 bench/run.py --workload ce-large --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, each in a fresh process, with a summary
table and an optional result file; then compare two result files:

    python3 bench/run.py --seed 1 --seconds 30 --out results.json
    python3 bench/run.py --diff bench/baseline.json results.json

Each workload is a single-client closed loop: the next op starts when the
previous one returns. An op is one ``concentratable.cli.main(argv)`` call,
in-process with stdout captured, so argument parsing, printing and file
writing are part of every time. The loop repeats whole cycles of the
workload's ops until ``--seconds`` have passed (and at least the workload's
minimum number of cycles). Every op's output is checked.

End-to-end metrics (``--trace 0``). Times are host-normalized: each wall
time is scaled by a calibration sample taken around it (see ``hostclock.py``), to
seconds on a host of fixed speed, because this host's own speed drifts by up
to 2x. The raw wall times are printed next to them.

* ``latency_p50_s`` and ``latency_tail_s``: nearest-rank percentiles of op
  time, where failed or refused ops rank above every successful op.
  The tail percentile is fixed per workload (see ``workloads.py``) so runs
  of different length compare the same rank; each run asserts that at least
  ten samples lie beyond it.
* ``success_rate``: answered ops / attempted ops (1 - error rate). The only
  refusals allowed are the documented BudgetError exits of ``ce-large``'s
  n=12 full-set ``auto`` ops; any other non-answer fails the output check.
* ``setup_s``: median over fresh processes of the time from process start
  to the first op (interpreter start, imports, input generation from the
  seed and the checker's reference values), timed from outside and scaled
  by a fresh process that only imports numpy (see ``time_fresh_setups``).
* ``peak_rss_mb``: peak resident memory of this workload's own process.

Per-layer metrics (``--trace 1``) come from a separate traced run that wraps
the package's public functions (see ``layers.py``). It alternates untraced
and traced cycles, so the tracing overhead is measured on the same ops, and
ends with one ``tracemalloc`` cycle for peak allocation per layer. Times are
seconds per cycle (median over traced cycles); counts are per cycle.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts ops whose output broke the
workload's checker; the process exits 1 when there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_CALIBRATION_NOMINAL_S = 0.25
TAIL_MIN_BEYOND = 10
# A host-speed calibration sample (see hostclock.py) after any op that ends at
# least this long after the last sample.
CAL_EVERY_S = 0.15

UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics on the result line: every argument-derived count, and the
# self times of the layers that run in every workload. The full per-layer
# table is printed above it and written by --report.
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "states.calls": "count",
    "states.self_s": "s",
    "swaptest.projection.calls": "count",
    "swaptest.projection.self_s": "s",
    "swaptest.projection.peak_alloc_bytes": "B",
    "swaptest.projection.outcomes": "count",
    "swaptest.projection.joint_bytes_max": "B",
    "measures.calls": "count",
    "measures.route.purity_sum": "count",
    "measures.route.distribution_zero_set": "count",
    "measures.route.even_weight_sum": "count",
    "reductions.calls": "count",
    "reductions.purity_calls": "count",
    "reductions.purity_distinct_ratio": "ratio",
    "reductions.peak_alloc_bytes": "B",
    "swaptest.sampler.calls": "count",
    "swaptest.sampler.shots": "count",
    "swaptest.walsh.calls": "count",
    "swaptest.pairs.calls": "count",
    "swaptest.serialize.calls": "count",
    "oracle.calls": "count",
    "verify.calls": "count",
    "trace.overhead_share": "ratio",
}


def load_package():
    """Import the package from this checkout's source tree, or exit with an error."""
    if not (SRC / "concentratable" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'concentratable'}")
    sys.path.insert(0, str(SRC))
    import concentratable
    import concentratable.cli

    if Path(concentratable.__file__).resolve().parent != SRC / "concentratable":
        sys.exit(f"error: imported concentratable from {concentratable.__file__}, not {SRC}")
    return concentratable.cli


def environment() -> dict:
    import numpy as np
    from concentratable.limits import max_sim_qubits

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "ce_max_qubits": max_sim_qubits(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


# -- one op ---------------------------------------------------------------------


def run_op(cli, op, tracer=None, op_id=0, cycle=0):
    """Run one CLI call; returns (wall seconds, status, reason)."""
    from workloads import Outcome

    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    if tracer is not None:
        tracer.begin_op(op_id, cycle)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed op, not a crash of the benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_op(start, end)
    outcome = Outcome(rc, stdout.getvalue(), stderr.getvalue(), error)
    if op.may_refuse and rc == 3 and outcome.stderr.startswith("budget error:"):
        return end - start, "refused", outcome.stderr.strip()
    try:
        reason = op.check(outcome)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"malformed output: {exc!r}"
    return end - start, ("failed" if reason else "ok"), reason


def run_cycle(cli, ops, records, tracer=None, cycle=0, clock=None):
    """Run every op once, appending (wall, status, kind, start) records; returns the summed wall time."""
    for op in ops:
        start = time.perf_counter()
        wall, status, reason = run_op(cli, op, tracer, len(records), cycle)
        records.append((wall, status, op.kind, start))
        if status == "failed":
            print(f"FAILED {op.kind}: {reason}  argv={' '.join(op.argv)}", file=sys.stderr)
        if clock is not None:
            clock.sample_every(CAL_EVERY_S)
    return sum(r[0] for r in records[-len(ops):])


# -- metrics --------------------------------------------------------------------


def ranked_percentile(records, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile with non-ok ops ranked above all ok ops.

    Returns (value, samples beyond it); the value is inf when the ranked
    sample is a failed or refused op.
    """
    ranked = sorted((status != "ok", wall) for wall, status, *_ in records)
    rank = max(1, math.ceil(percentile / 100.0 * len(ranked)))
    not_ok, wall = ranked[rank - 1]
    return (math.inf if not_ok else wall), len(ranked) - rank


def time_child(args: list[str]) -> float:
    """Wall seconds of a fresh interpreter running ``args``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, cwd=ROOT)
    return time.perf_counter() - start


def time_fresh_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, nominal-host) seconds of fresh processes that start, set the workload up and exit.

    Interpreter start and the numpy import are most of set-up, and a fresh
    process slows down with the host in ways that in-process samples do not
    track. So before each set-up a fresh process that only imports numpy is
    timed, and set-up times are scaled to a host where that takes
    SETUP_CALIBRATION_NOMINAL_S. Over two minutes on this host that took the
    spread of 30-second medians of set-up time from 0.05-0.10 of their median
    to 0.02 on verify-suite and swaptest-exact; on ce-large, whose set-up also
    computes n=12 reference values, it went from 0.03 to 0.06.
    """
    walls, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(time_child(["-c", "import numpy"]))
        walls.append(time_child([str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]))
    scale = SETUP_CALIBRATION_NOMINAL_S / median(calibrations)
    return [(wall, wall * scale) for wall in walls]


def by_kind(records) -> dict:
    groups: dict[str, list[float]] = {}
    for wall, status, kind, *_ in records:
        if status == "ok":
            groups.setdefault(kind, []).append(wall)
    return {kind: {"count": len(w), "median_s": median(w)} for kind, w in sorted(groups.items())}


# -- one workload ---------------------------------------------------------------


def run_workload(args) -> int:
    cli = load_package()
    import numpy as np
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    scratch = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        ops = spec.build(np.random.default_rng([args.seed, 0xCE]), scratch)
        own_setup_s = time.perf_counter() - start
        if args.setup_only:
            return 0
        records: list = []
        report = {
            "workload": spec.name,
            "why": spec.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(),
            "ops_per_cycle": len(ops),
            "own_setup_s": own_setup_s,
        }
        if args.trace:
            metrics = traced_run(cli, spec, ops, records, args, report)
        else:
            metrics = untraced_run(cli, spec, ops, records, args, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for r in records if r[1] == "failed")
    report["attempted"], report["failed"] = len(records), failed
    report["refused"] = sum(1 for r in records if r[1] == "refused")
    print_report(report)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def untraced_run(cli, spec, ops, records, args, report) -> dict:
    from hostclock import HostClock

    setups = time_fresh_setups(spec.name, args.seed)
    clock = HostClock(spec.calibration, spec.calibration_nominal_s)
    clock.sample()
    start = time.perf_counter()
    cycles = 0
    while cycles < spec.min_cycles or time.perf_counter() - start < args.seconds:
        run_cycle(cli, ops, records, clock=clock)
        cycles += 1
    clock.sample()
    scaled = clock.scaled(records)
    p50, _ = ranked_percentile(scaled, 50.0)
    tail, beyond = ranked_percentile(scaled, spec.tail_percentile)
    if beyond < TAIL_MIN_BEYOND:
        raise RuntimeError(f"only {beyond} samples beyond p{spec.tail_percentile:g}; raise min_cycles")
    answered = sum(1 for r in records if r[1] == "ok")
    calibration = [seconds for _midpoint, seconds in clock.samples]
    report.update(
        by_kind=by_kind(scaled),
        cycles=cycles,
        measured_s=time.perf_counter() - start,
        tail_percentile=spec.tail_percentile,
        samples=len(records),
        samples_beyond_tail=beyond,
        error_rate=1.0 - answered / len(records),
        setup_runs_s=[wall for wall, _nominal in setups],
        wall_latency_p50_s=ranked_percentile(records, 50.0)[0],
        wall_latency_tail_s=ranked_percentile(records, spec.tail_percentile)[0],
        wall_setup_s=median(wall for wall, _nominal in setups),
        calibration={"samples": len(calibration), "median_s": median(calibration),
                     "min_s": min(calibration), "max_s": max(calibration), "nominal_s": clock.nominal_s,
                     "kinds": list(spec.calibration)},
    )
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "success_rate": answered / len(records),
        "setup_s": median(nominal for _wall, nominal in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["end_to_end"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {k: (v, UNITS[k]) for k, v in values.items()}


def traced_run(cli, spec, ops, records, args, report) -> dict:
    import tracemalloc

    from layers import Tracer

    tracer = Tracer()
    plain: list = []
    untraced, traced = [], []

    def plain_cycle():
        untraced.append(run_cycle(cli, ops, plain))

    def traced_cycle():
        tracer.install()
        try:
            traced.append(run_cycle(cli, ops, records, tracer, cycle))
        finally:
            tracer.uninstall()

    # Pairs alternate which side runs first, so drift and warm-up favour neither.
    start = time.perf_counter()
    cycle = 0
    while cycle < 2 or time.perf_counter() - start < args.seconds:
        for step in (plain_cycle, traced_cycle) if cycle % 2 == 0 else (traced_cycle, plain_cycle):
            step()
        cycle += 1
    report["by_kind"] = by_kind(plain)
    records.extend(plain)

    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        run_cycle(cli, ops, records, memory, 0)
    finally:
        tracemalloc.stop()
        memory.uninstall()

    layers = tracer.layer_table()
    for layer, peak in memory.layer_table().items():
        layers[layer]["peak_alloc_bytes"] = peak["peak_alloc_bytes"]
    counts = tracer.count_table()
    overhead = sum(traced) / sum(untraced) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{spec.name}.csv"
    tracer.write_spans(spans_path)
    report.update(
        traced_cycles=cycle,
        cycle_s_untraced=median(untraced),
        cycle_s_traced=median(traced),
        tracing_overhead_share=overhead,
        self_sum_residual_max_s=tracer.self_sum_residual(),
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        per_layer=layers,
        counts=counts,
    )
    flat = {"trace.overhead_share": overhead}
    for layer, row in layers.items():
        for key in ("calls", "self_s", "peak_alloc_bytes"):
            flat[f"{layer}.{key}"] = row[key]
    flat.update(counts)
    return {name: (flat[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def print_report(report: dict) -> None:
    env = report["env"]
    print(
        f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} trace={report['trace']}"
        f"  ({env['nproc']} cpus {env['cpu']!r}, python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']} threads={env['blas_threads']}, CE_MAX_QUBITS={env['ce_max_qubits']})"
    )
    print(f"  ops: attempted={report['attempted']} refused={report['refused']} failed={report['failed']}")
    for kind, row in report["by_kind"].items():
        print(f"  {kind:<40} n={row['count']:<5} median {row['median_s']:.6f} s")
    if "end_to_end" in report:
        print(
            f"  tail = p{report['tail_percentile']:g} of {report['samples']} samples "
            f"({report['samples_beyond_tail']} beyond); error_rate={report['error_rate']:.6f}; "
            f"setup runs {['%.3f' % s for s in report['setup_runs_s']]} s wall"
        )
        cal = report["calibration"]
        print(
            f"  host calibration: {cal['samples']} samples, median {cal['median_s']:.4f} s "
            f"(min {cal['min_s']:.4f}, max {cal['max_s']:.4f}; nominal {cal['nominal_s']} s); wall p50 "
            f"{report['wall_latency_p50_s']:.6g} s, tail {report['wall_latency_tail_s']:.6g} s, "
            f"setup {report['wall_setup_s']:.6g} s"
        )
        for name, metric in report["end_to_end"].items():
            print(f"  {name:<16} {metric['value']:.6g} {metric['unit']}")
        return
    print(
        f"  traced cycles={report['traced_cycles']} cycle untraced {report['cycle_s_untraced']:.4f} s, "
        f"traced {report['cycle_s_traced']:.4f} s, overhead {100 * report['tracing_overhead_share']:.1f}%; "
        f"max |sum(self) - op wall| {report['self_sum_residual_max_s']:.2e} s; "
        f"{report['spans']} spans -> {report['spans_file']}"
    )
    print(f"  {'layer':<22}{'calls/cycle':>12}{'self s/cycle':>14}{'peak alloc B':>14}")
    for layer, row in report["per_layer"].items():
        if row["calls"]:
            print(f"  {layer:<22}{row['calls']:>12}{row['self_s']:>14.6f}{row['peak_alloc_bytes']:>14}")
    for key, value in report["counts"].items():
        if not key.endswith(".repeats"):
            note = "" if report["counts"].get(key + ".repeats", True) else "  (differs between cycles)"
            if key.endswith("joint_bytes_max"):
                note = "  (computed as 16 * 4^n from the arguments, not measured)"
            print(f"  {key:<40} {value}{note}")


# -- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            report_path = OUT_DIR / f"report-{name}-{trace}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--report", str(report_path),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            if not report_path.is_file():
                print(f"error: {name} trace={trace} wrote no report", file=sys.stderr)
                return 1
            entry[trace] = json.loads(report_path.read_text())
        untraced, traced = entry[0], entry[1]
        results["env"] = untraced["env"]
        results["workloads"][name] = {
            "why": untraced["why"],
            "end_to_end": untraced["end_to_end"],
            "tail_percentile": untraced["tail_percentile"],
            "samples": untraced["samples"],
            "samples_beyond_tail": untraced["samples_beyond_tail"],
            "error_rate": untraced["error_rate"],
            "wall_latency_p50_s": untraced["wall_latency_p50_s"],
            "wall_latency_tail_s": untraced["wall_latency_tail_s"],
            "wall_setup_s": untraced["wall_setup_s"],
            "calibration": untraced["calibration"],
            "refused": untraced["refused"],
            "failed": untraced["failed"] + traced["failed"],
            "by_kind": untraced["by_kind"],
            "per_layer": traced["per_layer"],
            "counts": traced["counts"],
            "tracing_overhead_share": traced["tracing_overhead_share"],
            "self_sum_residual_max_s": traced["self_sum_residual_max_s"],
        }
    print()
    print(f"{'workload':<16}" + "".join(f"{name + ' (' + unit + ')':>24}" for name, unit in UNITS.items()) + f"{'error_rate':>12}")
    for name, row in results["workloads"].items():
        cells = "".join(f"{row['end_to_end'][m]['value']:>24.6g}" for m in UNITS)
        print(f"{name:<16}{cells}{row['error_rate']:>12.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return status


def diff(old_path: str, new_path: str) -> int:
    """Print every end-to-end and per-layer number of two result files side by side."""
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in (old_path, new_path))

    def row(label, a, b):
        change = f"{100.0 * (b - a) / a:+.1f}%" if a else ""
        print(f"  {label:<44}{a:>16.6g}{b:>16.6g}{change:>10}")

    def shared(a: dict, b: dict) -> list:
        return [key for key in a if key in b]

    for name in shared(old, new):
        print(f"# {name}")
        o, n = old[name], new[name]
        for metric in shared(o["end_to_end"], n["end_to_end"]):
            row(metric, o["end_to_end"][metric]["value"], n["end_to_end"][metric]["value"])
        for layer in shared(o["per_layer"], n["per_layer"]):
            for key in ("calls", "self_s", "peak_alloc_bytes"):
                if o["per_layer"][layer][key] or n["per_layer"][layer][key]:
                    row(f"{layer}.{key}", o["per_layer"][layer][key], n["per_layer"][layer][key])
        for key in shared(o["counts"], n["counts"]):
            if not key.endswith(".repeats"):
                row(key, o["counts"][key], n["counts"][key])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; inputs are generated from it")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--report", help="write the full report of one workload run to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help="set the workload up and exit")
    parser.add_argument("--out", help="with every workload: write the combined result file")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy is imported: each workload is a
    # single-threaded closed loop, and idle BLAS worker threads spinning on the
    # second core made op times jumpy. Child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
