"""Command-line orchestration: seeded Monte Carlo runs and plot-ready tables.

Subcommands
-----------
simulate        solve each sample seed, persist artifacts, aggregate a summary
penalize-sweep  distance of penalized solves to the projected oracle per n
compare         ordered-data comparison experiment across shared-noise seeds
capacity        capacity of configured space-time boxes vs. Lebesgue measure
verify          replay stored artifacts through the identity/estimate checks

Failures exit nonzero and leave a machine-readable error.json naming the
failing stage: config-error 2, assumption-failure 3, solve-failure 4,
verify-failure 5 (an unexpected error while replaying checks),
artifact-mismatch 6, artifact-missing 7, internal-error 8 (an unexpected
error in any other subcommand).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .capacity import box_set, capacity as compute_capacity
from .config import RunConfig, load_config
from .errors import AssumptionError, ConfigurationError, SolverError, coerce
from .norms import dual_sharp_upper, mixed_norm, sharp_norm
from .persist import load_run, save_run, write_rows
from .solver import SolveResult, skorokhod_defect, solve_dominators, solve_mode
from .verify import (apriori_check, comparison_experiment, ito_square_residual,
                     penalization_sweep, positive_part_bound_check, positive_part_residual,
                     weak_form_residual)

_EXIT_CODES = {
    "config-error": 2,
    "assumption-failure": 3,
    "solve-failure": 4,
    "verify-failure": 5,
    "artifact-mismatch": 6,
    "artifact-missing": 7,
    "internal-error": 8,
}


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _fail(out_dir: Path | None, stage: str, message: str) -> int:
    payload = {"stage": stage, "error": message}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "error.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    print(json.dumps(payload), file=sys.stderr)
    return _EXIT_CODES.get(stage, 1)


def _run_one_sample(raw_cfg: dict, seed: int, out_dir: str) -> dict:
    """Worker entry: solve one seed and persist its artifacts."""
    cfg = RunConfig(raw=raw_cfg)
    grid = cfg.make_grid()
    op = cfg.make_operator(grid)
    data = cfg.build_problem(seed, grid=grid, op=op)
    result = solve_mode(data, cfg.solver_mode, cfg.penalty_n)
    defect = skorokhod_defect(result.u, data.obstacle, result.measure)
    T = float(data.times[-1])
    sup_norm = mixed_norm(result.u, 2, math.inf, T)
    norms = [("mixed", 2, "inf", T, sup_norm),
             ("mixed", 2, 2, T, mixed_norm(result.u, 2, 2, T)),
             ("mixed", 2, 1, T, mixed_norm(result.u, 2, 1, T)),
             ("sharp", "", "", T, sharp_norm(result.u, T)),
             ("dual_sharp_upper", "", "", T, dual_sharp_upper(result.u, T))]
    meta = save_run(out_dir, result, config_hash=cfg.hash, seed=seed,
                    solver_mode=cfg.solver_mode,
                    penalty_n=result.diagnostics.get("penalty_level"),
                    norms=norms)
    return {
        "seed": seed,
        "directory": str(out_dir),
        "measure_mass": meta["measure_mass"],
        "skorokhod_defect": defect,
        "sup_norm_2": sup_norm,
        "terminal_sq_norm": float(grid.quad_weights @ result.u.frames[-1] ** 2),
        "iterations_max": meta["iterations_max"],
    }


def _aggregate(rows: list[dict]) -> dict:
    keys = ["measure_mass", "skorokhod_defect", "sup_norm_2", "terminal_sq_norm"]
    out = {}
    for key in keys:
        vals = np.array([r[key] for r in rows], dtype=float)
        out[f"mean_{key}"] = float(vals.mean())
        S = len(vals)
        out[f"stderr_{key}"] = float(vals.std(ddof=1) / np.sqrt(S)) if S > 1 else 0.0
    return out


def cmd_simulate(args, cfg: RunConfig, out: Path) -> int:
    seeds = cfg.sample_seeds(args.seed, args.samples)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(cfg.raw, seed, str(out / f"sample_{i:03d}_seed_{seed}"))
            for i, seed in enumerate(seeds)]
    if args.workers is not None:
        key, workers = "--workers", args.workers
    else:
        key, workers = "output.workers", coerce(int, "output.workers",
                                                cfg.block("output").get("workers", 1))
    if workers < 1:
        raise StageError("config-error", f"{key} = {workers} must be at least 1")
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_sample, *zip(*jobs)))
    else:
        rows = [_run_one_sample(*job) for job in jobs]

    summary = {"command": "simulate", "config_hash": cfg.hash,
               "solver_mode": cfg.solver_mode, "samples": len(rows),
               "seeds": seeds, "per_sample": rows, "aggregates": _aggregate(rows)}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(f"simulate: {len(rows)} sample(s) -> {out}")
    return 0


def cmd_penalize_sweep(args, cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if args.n_values:
        levels = [coerce(int, "--n-values", v) for v in args.n_values.split(",")]
    else:
        sweep = cfg.block("solver").get("sweep_n", [10, 100, 1000, 10000])
        if not isinstance(sweep, list) or not sweep:
            raise StageError("config-error",
                             f"solver.sweep_n = {sweep!r} is not a non-empty list")
        levels = [coerce(int, "solver.sweep_n", v) for v in sweep]
    seeds = cfg.sample_seeds(args.seed, args.samples)
    report = penalization_sweep(cfg.build_problem(seeds[0]),
                                [cfg.sample_noise(seed) for seed in seeds], levels)
    rows = [(seed, n, report.distances[i, j], report.defects[i, j], report.masses[i, j])
            for i, seed in enumerate(seeds) for j, n in enumerate(levels)]
    write_rows(out / "penalize_sweep.csv",
               ["seed", "n", "distance_to_projected", "skorokhod_defect", "measure_mass"],
               "%d,%d,%.17g,%.17g,%.17g", rows, config_hash=cfg.hash)
    print(f"penalize-sweep: {len(levels)} level(s) x {len(seeds)} seed(s) -> "
          f"{out / 'penalize_sweep.csv'}")
    return 0


def cmd_compare(args, cfg: RunConfig, out: Path) -> int:
    cfg2 = load_config(args.config2)
    out.mkdir(parents=True, exist_ok=True)
    seeds = cfg.sample_seeds(args.seed, args.samples)
    data1 = cfg.build_problem(seeds[0])
    data2 = cfg2.build_problem(seeds[0])
    report = comparison_experiment(data1, data2, seeds, mode=cfg.solver_mode,
                                   penalty_n=cfg.penalty_n)
    write_rows(out / "compare.csv", ["sample", "seed", "min_gap"], "%d,%d,%.17g",
               [(i, s, gap) for i, (s, gap) in
                enumerate(zip(report.seeds, report.per_sample))],
               config_hash=cfg.hash)
    with open(out / "compare_summary.json", "w", encoding="utf-8") as fh:
        json.dump({"command": "compare", "config_hash": cfg.hash,
                   "config2_hash": cfg2.hash, **report.as_dict()}, fh, indent=2)
    print(f"compare: min_gap = {report.min_gap:.3e} over {len(seeds)} seed(s) -> {out}")
    return 0


def cmd_capacity(args, cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    block = cfg.block("capacity")
    for key in ("frame", "boxes"):
        if key not in block:
            raise StageError("config-error", f"capacity runs need capacity.{key}")
    grid = cfg.make_grid()
    op = cfg.make_operator(grid)
    times = cfg.make_times()
    frame = coerce(int, "capacity.frame", block["frame"])
    listed = block["boxes"]
    if not isinstance(listed, list) or not listed:
        raise StageError("config-error", f"capacity.boxes = {listed!r} is not a non-empty list")

    def box(value):  # per-axis (lo, hi) rows, (dim, 2)
        iv = np.atleast_2d(np.asarray(value, dtype=float))
        if iv.shape != (grid.dim, 2):
            raise ValueError
        return iv

    boxes = [coerce(box, f"capacity.boxes[{i}]", value) for i, value in enumerate(listed)]
    bounds = (["lo", "hi"] if grid.dim == 1 else
              [f"{end}_{axis}" for axis in "xy"[:grid.dim] for end in ("lo", "hi")])
    rows = []
    for iv in boxes:
        K = box_set(grid, times, frame, iv)
        rows.append((frame, times[frame], *iv.ravel().tolist(), compute_capacity(op, K),
                     K.lebesgue_measure()))
    write_rows(out / "capacity.csv", ["frame", "time", *bounds, "capacity", "lebesgue_measure"],
               "%d,%.12g," + "%.12g," * len(bounds) + "%.17g,%.17g", rows, config_hash=cfg.hash)
    print(f"capacity: {len(rows)} row(s) -> {out / 'capacity.csv'}")
    return 0


def _default_test_function(grid):
    lo = [e[0] for e in grid.extent]
    hi = [e[1] for e in grid.extent]
    pad = [3.0 * s for s in grid.spacing]

    def phi(t, coords):
        v = np.ones(coords.shape[0])
        for a in range(grid.dim):
            s = np.clip((coords[:, a] - (lo[a] + pad[a])) / (hi[a] - lo[a] - 2 * pad[a]),
                        0.0, 1.0)
            v = v * np.sin(np.pi * s) ** 2
        return v * (1.0 + 0.5 * np.cos(3.0 * t))

    return phi


# Check name -> report of a stored run, given the sample's dominator paths
# (None unless a check of _DOMINATOR_CHECKS runs).  Each entry looks its
# check function up among this module's globals when it runs, so a wrapper
# set there (a tracer, a test's monkeypatch) sees the call.
_CHECKS = {
    "weak_form": lambda result, data, doms: weak_form_residual(
        result, data, _default_test_function(data.op.grid)).as_dict(),
    "ito_square": lambda result, data, doms: ito_square_residual(result, data).as_dict(),
    "positive_part": lambda result, data, doms: positive_part_residual(result, data).as_dict(),
    "skorokhod": lambda result, data, doms: {
        "name": "skorokhod",
        "defect": skorokhod_defect(result.u, data.obstacle, result.measure)},
    "apriori": lambda result, data, doms: apriori_check(data, [result.u], doms).as_dict(),
    "positive_part_bound": lambda result, data, doms: positive_part_bound_check(
        data, [result.u], doms).as_dict(),
}
# The checks that read the dominator, which one verify marches once.
_DOMINATOR_CHECKS = {"apriori", "positive_part_bound"}


def cmd_verify(args, cfg: RunConfig, out: Path) -> int:
    art = Path(args.artifacts)
    grid = cfg.make_grid()
    try:
        u, measure, meta = load_run(art, grid, expected_hash=cfg.hash)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise StageError("artifact-missing",
                         f"no stored artifacts at {art}: {exc}")
    except ConfigurationError as exc:
        raise StageError("artifact-mismatch", str(exc))
    if (meta["steps"], meta["dt"]) != (cfg.steps, cfg.dt):
        raise StageError("artifact-mismatch",
                         f"artifacts hold {meta['steps']} steps of dt = {meta['dt']!r}, the "
                         f"config {cfg.steps} steps of dt = {cfg.dt!r}; refusing to verify")
    data = cfg.build_problem(int(meta["seed"]), grid=grid)
    result = SolveResult(u=u, measure=measure, diagnostics={})

    checks = cfg.block("verify").get("checks", ["ito_square", "skorokhod"])
    if not isinstance(checks, list):
        raise StageError("config-error", f"verify.checks = {checks!r} is not a list; "
                                         f"available: {list(_CHECKS)}")
    if not checks:
        raise StageError("config-error", f"verify.checks = [] names no check; "
                                         f"available: {list(_CHECKS)}")
    unknown = [c for c in checks if not isinstance(c, str) or c not in _CHECKS]
    if unknown:
        raise StageError("config-error", f"unknown verify checks {unknown}; "
                                         f"available: {list(_CHECKS)}")
    doms = (solve_dominators(data, [data.noise]) if _DOMINATOR_CHECKS.intersection(checks)
            else None)
    reports = {check: _CHECKS[check](result, data, doms) for check in checks}

    with open(art / "verify_report.json", "w", encoding="utf-8") as fh:
        json.dump({"config_hash": cfg.hash, "seed": meta["seed"],
                   "checks": reports}, fh, indent=2)

    name_w = max(len(k) for k in reports)
    print(f"{'check':<{name_w}}  result")
    for key, rep in reports.items():
        detail = ", ".join(f"{k}={v:.3e}" for k, v in rep.items()
                           if isinstance(v, float))
        print(f"{key:<{name_w}}  {detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospde",
        description="Obstacle problems for stochastic PDEs: solvers, reflection "
                    "measures, identity checks and parabolic capacity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=True):
        p.add_argument("--config", required=True, help="flat dotted-key config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if seeds:
            p.add_argument("--seed", type=int, default=None, help="base seed override")
            p.add_argument("--samples", type=int, default=None, help="sample count override")

    p = sub.add_parser("simulate", help="solve and persist per-seed artifacts")
    common(p)
    p.add_argument("--workers", type=int, default=None, help="parallel sample workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("penalize-sweep", help="penalization convergence table")
    common(p)
    p.add_argument("--n-values", default=None, help="comma list of penalty levels")
    p.set_defaults(func=cmd_penalize_sweep)

    p = sub.add_parser("compare", help="ordered-data comparison experiment")
    common(p)
    p.add_argument("--config2", required=True, help="config of the dominating problem")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("capacity", help="capacity of configured space-time boxes")
    common(p, seeds=False)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="replay stored artifacts through the checks")
    common(p, seeds=False)
    p.add_argument("--artifacts", required=True, help="per-sample artifact directory")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = None
    try:
        try:
            cfg = load_config(args.config)
            directory = cfg.block("output").get("directory", "out")
            if not isinstance(directory, str) or not directory:
                raise ConfigurationError(f"output.directory = {directory!r} is not a "
                                         "non-empty path string")
            out_dir = Path(args.out or directory)
        except ConfigurationError as exc:
            return _fail(None, "config-error", str(exc))
        return args.func(args, cfg, out_dir)
    except StageError as exc:
        return _fail(out_dir, exc.stage, str(exc))
    except AssumptionError as exc:
        return _fail(out_dir, "assumption-failure", str(exc))
    except ConfigurationError as exc:
        return _fail(out_dir, "config-error", str(exc))
    except SolverError as exc:
        return _fail(out_dir, "solve-failure", str(exc))
    except Exception as exc:  # last-resort reporting
        traceback.print_exc()
        stage = "verify-failure" if args.func is cmd_verify else "internal-error"
        return _fail(out_dir, stage, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
