"""starkzz benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 5 --trace 0

Run from anywhere; it works in the repository root that holds it and
imports `starkzz` from that root's `src/`.  The workload's CLI commands run
in this process through `starkzz.cli.main`, one after another, in whole
passes: as many as fit in `--seconds`, at least one.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs the list once
untraced and once traced and reports the per-layer metrics and the tracing
overhead.
Outputs, the full result with provenance, and the spans go to
`.perfbench/`.  The last line of standard output is the result as JSON;
the exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import os

# Closed loops with --threads 1 on a small shared machine: one BLAS thread,
# fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, Op, build, failed_fraction  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_REPEATS = 3
#: Quality figures added over commands; all others take the worst (max).
SUMMED = {"spectrum.labeling_warnings", "calibrate.newton_iterations"}

QUALITY = ("spectrum.labeling_warnings", "calibrate.cnot_infidelity",
           "calibrate.cz_infidelity", "calibrate.max_leakage",
           "calibrate.newton_iterations", "pulse.zx_max_rel_dev",
           "calibrate.chain_worst_residual_hz", "calibrate.chain_max_shift_mhz")


class BenchmarkError(Exception):
    """The benchmark cannot run as declared here (no package source, a failed
    set-up probe, metrics that differ from BENCHMARK.json)."""


@dataclass
class Iteration:
    times: dict[str, float]
    ops: list[Op]
    quality: dict[str, float]

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def import_cli():
    """`starkzz.cli` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "starkzz", "cli.py")):
        raise BenchmarkError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import starkzz.cli
    if not os.path.realpath(starkzz.cli.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise BenchmarkError(f"starkzz imported from {starkzz.cli.__file__}")
    import scipy.sparse.linalg  # noqa: F401  (loaded lazily by the chain path)
    return starkzz.cli


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh processes (see setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=False)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def call_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; the loop goes on
            traceback.print_exc()
            return -1


def run_iteration(cli, commands) -> Iteration:
    times, ops, quality = {}, [], {}
    for cmd in commands:
        for path in (cmd.out, cmd.transcript):
            if path and os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        code = call_cli(cli, cmd.argv)
        times[cmd.key] = time.perf_counter() - start
        if code != 0:
            ops.append(Op(cmd.key, False, f"exit code {code}"))
            continue
        try:
            cmd_ops, cmd_quality = cmd.check(cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ops.append(Op(cmd.key, False, f"unreadable output: {exc!r}"))
            continue
        ops += cmd_ops
        for key, value in cmd_quality.items():
            if key in SUMMED:
                quality[key] = quality.get(key, 0) + value
            else:
                quality[key] = max(quality.get(key, value), value)
    return Iteration(times, ops, quality)


# ---------------------------------------------------------------------------
# provenance


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, commands) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [shlex.join(["starkzz", *cmd.argv]) for cmd in commands],
    }


# ---------------------------------------------------------------------------
# runs


def untraced_run(cli, commands, seconds: float) -> list[Iteration]:
    """Whole passes of the command list, as many as fit in `seconds`.

    At least one pass runs; another starts only if the last pass's time
    says it would end within `seconds`.
    """
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(cli, commands))
        if time.perf_counter() - start + iterations[-1].wall > seconds:
            return iterations


def traced_run(cli, commands, trace_path: str) -> tuple[list[Iteration], dict]:
    """One untraced and one traced pass; per-layer metrics and overhead.

    The overhead is estimated from the span counts and the wrappers' cost
    per span measured in this process, not from the two passes' times,
    which the machine's drift between them swamps.
    """
    base = run_iteration(cli, commands)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_iteration(cli, commands)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    metrics = tracing.layer_metrics(tracer.spans)
    below_root = metrics.pop("trace.below_root_s")
    kernel_spans = metrics.pop("trace.kernel_spans")
    for key in QUALITY:
        metrics[key] = traced.quality.get(key, 0)
    sweep_s = sum(base.times.get(key, 0.0) for key in ("phase_sweep", "amplitude_grid"))
    sweep_rows = sum(op.label.startswith(("phase_sweep[", "amplitude_grid["))
                     for op in base.ops)
    metrics["cli.sweep_points_per_s"] = sweep_rows / sweep_s if sweep_s else 0.0
    for key in ("chain", "cnot", "cz", "zx"):
        metrics[f"cli.{key}_s"] = base.times.get(key, 0.0)
    costs = tracing.span_costs()
    added = (kernel_spans * costs["kernel"]
             + (metrics["trace.spans"] - kernel_spans) * costs["entry"])
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.span_cost_us"] = 1e6 * added / max(metrics["trace.spans"], 1)
    metrics["trace.overhead_frac"] = added / (traced.wall - added)
    metrics["trace.self_coverage_frac"] = below_root / traced.wall
    return [base, traced], metrics


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    from starkzz.config import load_preset
    commands = build(args.workload, args.seed, workdir, load_preset)
    try:
        setup_s = measure_setup(args.workload)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        iterations, metrics = traced_run(cli, commands,
                                         os.path.join(workdir, "spans.json"))
    else:
        iterations = untraced_run(cli, commands, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(it.wall for it in iterations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")

    ops = [op for it in iterations for op in it.ops]
    failed = sum(not op.ok for op in ops)
    record = {
        "provenance": provenance(args, commands),
        "iterations": [{"times_s": it.times, "wall_s": it.wall,
                        "quality": it.quality} for it in iterations],
        "failures": [vars(op) for op in ops if not op.ok],
        "failed_frac": failed_fraction(ops),
        "setup_s": setup_s,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for op in ops:
        if not op.ok:
            print(f"FAILED {op.label}: {op.detail}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(iterations)}")
    for key, value in iterations[0].times.items():
        print(f"  {key + '_s':24s} {value:12.4f} s")
    print(f"  {'failed_frac':24s} {failed_fraction(ops):12.4f} ({failed}/{len(ops)})")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
