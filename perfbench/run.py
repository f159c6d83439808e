"""gksl-kit benchmark: one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of decide-lib, decide-cli, evolve and sweep-cli. One caller in
this process runs the workload's operations one after another; the next
starts only when the previous one has returned. Each run:

1. imports ``gksl_kit`` from ``src/`` of this checkout (and fails with exit
   code 2, printing no result, when that is missing);
2. sets up: generates the inputs from the seed, writes the input files into a
   work directory under ``.perfbench_work/`` and runs one warm-up operation;
3. with ``--trace 0``, repeats set-up twice (``setup_s`` is the median)
   and then runs whole passes over the op list while the next pass is
   expected to end within S seconds, and at least two (three for evolve);
   with ``--trace 1``, runs one pass untraced and one with the layer tracer
   installed, and for decide-lib and evolve also reruns the workload in a
   child with ``OPENBLAS_NUM_THREADS=1`` as a single-thread reference row;
4. checks every output, deletes the work directory and prints diagnostics
   (environment, per-op figures) as JSON lines, then the result as the last
   line: ``{"correct", "attempted", "failed", "metrics"}``.

BLAS thread settings are inherited untouched and only read, never set.
"""
import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("decide-lib", "decide-cli", "evolve", "sweep-cli")
SETUP_REPEATS = 2
STARTUP_SAMPLES = 5
REFERENCE_WORKLOADS = ("decide-lib", "evolve")
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gksl_kit.cli; "
                "print(time.perf_counter() - t)")

# (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p75_ms", "ms"),
]


def child_env(**extra) -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def blas_pools() -> dict:
    """Live thread count of numpy's and scipy's OpenBLAS pools, read via their getters."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's pool)
    site = Path(numpy.__file__).resolve().parent.parent
    pools = {}
    for package, pattern, getter in (
            ("numpy", "numpy.libs/libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
            ("scipy", "scipy.libs/libscipy_openblas-*", "scipy_openblas_get_num_threads")):
        pools[package] = None
        for path in sorted(glob.glob(str(site / pattern))):
            try:   # RTLD_NOLOAD: only a library this process already loaded
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
                get = getattr(lib, getter)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            pools[package] = {"library": Path(path).name, "threads": get()}
    return pools


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(("OPENBLAS_", "OMP_"))},
        "blas_pools": blas_pools(),
    }


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _op_figures(samples) -> dict:
    by_metric = {}
    for metric, seconds in samples:
        by_metric.setdefault(metric, []).append(seconds)
    return {m: {"value": statistics.median(v), "unit": "s", "samples": len(v)}
            for m, v in by_metric.items()}


def measure_startup() -> dict:
    """Median bare-interpreter start and fresh ``import gksl_kit.cli``, in ms."""
    env = child_env()
    bare, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        bare.append(time.perf_counter() - t0)
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               capture_output=True, timeout=CHILD_TIMEOUT_S)
        imports.append(float(probe.stdout))
    return {"startup.python_ms": 1e3 * statistics.median(bare),
            "startup.import_ms": 1e3 * statistics.median(imports)}


def single_thread_reference(name, seed, threaded_wall_s) -> dict:
    """Rerun the untraced workload in a child with one OpenBLAS thread per pool."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=ROOT,
                          capture_output=True, timeout=CHILD_TIMEOUT_S, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        return {"workload": name, "error": f"exit code {proc.returncode}"}
    result, detail = lines[-1], next((x for x in lines if "ops" in x), {})
    wall = result["metrics"]["wall_s"]["value"]
    return {
        "workload": name,
        "blas_env": {"OPENBLAS_NUM_THREADS": "1"},
        "correct": result["correct"],
        "wall_s": wall,
        "threaded_wall_s": threaded_wall_s,
        "threaded_over_single": threaded_wall_s / wall,
        "ops": detail.get("ops", {}),
    }


def _untraced(name, build, ctx, runner, seconds, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None     # free the previous inputs, so peak_rss_mb counts one set
        t0 = time.perf_counter()
        workload = build(ctx)
        runner.run(workload.warmup, timed=False)
        setups.append(import_s + time.perf_counter() - t0)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(workload.ops))
        if (len(passes) >= workload.min_passes
                and time.perf_counter() - start + passes[-1] > seconds):
            break
    latencies = [s for _, s in runner.samples]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": _peak_rss_mb(),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p75_ms": 1e3 * statistics.quantiles(latencies, n=4)[2],
    }
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    detail = {
        "workload": name,
        "passes": len(passes),
        "op_samples": len(latencies),
        "setup_samples_s": setups,
        "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "1"},
        "ops": _op_figures(runner.samples),
    }
    return metrics, [detail]


def _traced(name, build, ctx, runner, seed):
    import tracing
    workload = build(ctx)
    runner.run(workload.warmup, timed=False)
    values = measure_startup()

    cpu0 = _cpu_s()
    untraced_wall = runner.run_pass(workload.ops)
    values["process.cpu_s"] = _cpu_s() - cpu0
    values["process.cpu_per_wall"] = values["process.cpu_s"] / untraced_wall

    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    ctx.fresh.trace_dir = ctx.workdir
    try:
        traced_wall = runner.run_pass(workload.ops)
    finally:
        tracer.uninstall()
        runner.tracer = None
        ctx.fresh.trace_dir = None
    for spans in ctx.fresh.trace_files:
        if spans.exists():
            tracer.merge(json.loads(spans.read_text()))
    values.update(tracer.layer_metrics())
    values["trace.overhead_ratio"] = traced_wall / untraced_wall

    missing = tracer.missing(name)
    if missing:
        runner.problems.append("traced pass recorded no call of: " + ", ".join(missing))
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in tracing.PER_LAYER}
    detail = [{"workload": name, "untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall, "missing_spans": missing}]
    if name in REFERENCE_WORKLOADS:
        detail.append({"reference_single_thread":
                       single_thread_reference(name, seed, untraced_wall)})
    return metrics, detail


def run_workload(name, seed, seconds, trace, import_s=0.0, tiny=False):
    """Run one workload; returns (result line, diagnostic lines)."""
    from ops import FreshProcess, Runner
    from workloads import WORKLOADS, Context

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=seed, workdir=workdir, tiny=tiny,
                  fresh=FreshProcess(env=child_env(), cwd=workdir))
    runner = Runner()
    try:
        if trace:
            metrics, detail = _traced(name, WORKLOADS[name], ctx, runner, seed)
        else:
            metrics, detail = _untraced(name, WORKLOADS[name], ctx, runner, seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if runner.problems:
        detail.append({"problems": runner.problems})
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gksl_kit" / "__init__.py").is_file():
        print(f"error: no gksl_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gksl_kit.cli
    import_s = time.perf_counter() - t0
    if Path(gksl_kit.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported gksl_kit from {gksl_kit.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment()}), flush=True)
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  import_s=import_s)
    for line in detail:
        print(json.dumps(line))
        for problem in line.get("problems", []):
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
