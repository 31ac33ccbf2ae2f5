"""Benchmark of ospde through its public entry points.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim1d-projected --seed 0 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see perfbench/README.md).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment and
the raw samples.  The program is imported from ``src/`` of the checkout and
from nowhere else: without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Serial runs: pin BLAS and OpenMP pools before numpy is imported.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (does not import ospde)

OSPDE_MODULES = ("cli", "config", "grid", "stochastics", "solver", "lcp", "norms",
                 "persist", "verify", "capacity")
SETUP_PROBES = {"full": 2, "tiny": 1}   # per repetition
PROBE_TIMEOUT_S = 60


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import ospde from this checkout's src/; exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import ospde
    except ImportError as exc:
        die(f"cannot import ospde from {SRC}: {exc}")
    if Path(ospde.__file__).resolve().parent.parent != SRC:
        die(f"ospde was imported from {ospde.__file__}, not {SRC}")
    mods = {}
    for name in OSPDE_MODULES:
        try:
            mods[f"ospde.{name}"] = importlib.import_module(f"ospde.{name}")
        except ImportError:
            pass
    return mods


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "pinned": {k: os.environ.get(k) for k in PINNED},
    }


def setup_probe(config_paths, seed: int) -> None:
    """Child side of one set-up sample: import, load, assemble, gate."""
    import_program()
    import workloads

    if workloads.sanity_check([Path(p) for p in config_paths], seed):
        die("set-up refused the configs", 3)
    print("ready", flush=True)


def time_setup(config_paths, seed: int, tally) -> float | None:
    """Fresh interpreter to first solve ready, as seen by the parent."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           *map(str, config_paths), "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - t0
        if not ready:
            proc.kill()
        rc = proc.wait()
    ok = tally.record("setup", line.strip() == "ready" and rc == 0, f"probe exit {rc}")
    return elapsed if ok else None


def loop(seconds: float, body) -> list:
    """Call ``body`` until another call would pass ``seconds``; at least once."""
    deadline = perf_counter() + seconds
    samples, costs = [], []
    while True:
        t0 = perf_counter()
        samples.append(body())
        costs.append(perf_counter() - t0)
        if perf_counter() + statistics.median(costs) > deadline:
            return samples


def end_to_end(runner, seconds: float, probes: int) -> tuple[dict, dict]:
    """Set-up probes are spread over the run, between repetitions, so that
    their median sees the same machine load as the wall samples."""
    setups = []

    def step():
        for _ in range(probes):
            elapsed = time_setup(runner.config_paths, runner.seed, runner.tally)
            if elapsed is not None:
                setups.append(elapsed)
        return runner.iteration()

    walls = loop(seconds, step)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "artifact_mb": runner.artifact_bytes / 1e6,
    }
    return metrics, {"setup_s": setups, "wall_s": walls}


def per_layer(runner, seconds: float, modules: dict) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions; layer metrics are medians
    over the traced ones."""
    plain, traced, layers = [], [], []

    def pair():
        plain.append(runner.iteration())
        tr = tracing.Tracer(modules)
        traced.append(runner.iteration(tr))
        runner.tally.record("trace nesting", tracing.nesting_ok(tr),
                            "child spans outlast their parent")
        layers.append(tracing.layer_metrics(tr))

    loop(seconds, pair)
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        metrics[key] = None if None in values else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["error_rate"] = runner.tally.failed / runner.tally.attempted
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}


UNITS = {"_s": "s", ".s": "s", "_mb": "MB", "bytes_written": "bytes",
         "iterations_per_step": "1/step", "error_rate": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SETUP_PROBES), default="full",
                   help="'tiny' runs each workload at smoke-test size")
    p.add_argument("--record-reference", action="store_true",
                   help="store the output digests of this run as the reference")
    p.add_argument("--setup-probe", nargs="+", metavar="CONFIG", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    modules = import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        config_paths = wl.materialize_configs(workload, work / "configs", tiny)
        problems = wl.sanity_check(config_paths, args.seed)
        if problems:
            die("refusing the workload configs:\n" + "\n".join(problems), 3)
        print(json.dumps({"environment": environment()}), flush=True)
        tally = wl.Tally()
        reference = None if args.record_reference else wl.load_reference(
            workload, args.seed, tiny)
        runner = wl.Runner(workload, config_paths, args.seed, work / "out", tally,
                           reference, args.record_reference)
        if args.trace:
            values, samples = per_layer(runner, args.seconds, modules)
        else:
            values, samples = end_to_end(runner, args.seconds, SETUP_PROBES[args.scale])
        print(json.dumps({"samples": samples, "failures": tally.failures[:20]}), flush=True)
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
