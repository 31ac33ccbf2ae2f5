"""Workloads of the ospde benchmark, the command sequence each one runs
through ``ospde.cli.main``, and the checks on what it wrote.

Every workload uses configs under ``perfbench/configs``.  The workload seed
picks the noise: sample seeds start at ``1000 * (seed + 1)``, so seed 0
reproduces the seeds the shipped configs name.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ospde import cli
from ospde.config import load_config
from ospde.persist import load_run
from ospde.solver import skorokhod_defect
from ospde.stochastics import validate_assumptions

from tracing import path_bytes

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0

# Output tolerances, fixed before any run was measured.
SKOROKHOD_TOL = 1e-8          # minimal reflection: int (u - S)^+ dnu
MIN_GAP_TOL = -1e-6           # comparison theorem: u2 - u1 >= 0
BOUNDARY_TOL = 1e-12          # obstacle <= 0 on the boundary; sin(pi) ~ 1.2e-16
PROJECTED_SLACK = 1e-12       # projected solutions sit on or above S exactly
PENALIZED_SLACK_N = 100.0     # penalized: n * max(S - u)^+ <= 100 (21 at seed 0 in 2D)
RESIDUAL_TOL_DT = 10.0        # state-dependent identities leave O(dt) residuals
RESIDUAL_CHECKS = ("weak_form", "ito_square", "positive_part")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "simulate" (then verify) or "compare"
    configs: tuple[str, ...]
    tiny: dict                    # config overrides for smoke runs


WORKLOADS = {w.name: w for w in (
    Workload("sim1d-projected", "simulate", ("sim1d_projected.cfg",),
             {"grid.counts": 8, "time.steps": 16, "noise.samples": 2}),
    Workload("compare1d-penalized", "compare",
             ("compare1d_base.cfg", "compare1d_shifted.cfg"),
             {"grid.counts": 8, "time.steps": 16, "noise.samples": 3}),
    Workload("sim2d-penalized-io", "simulate", ("sim2d_penalized_io.cfg",),
             {"grid.counts": [6, 6], "time.steps": 8}),
)}


def base_seed(seed: int) -> int:
    return 1000 * (int(seed) + 1)


@dataclass
class Tally:
    """Operations attempted and failed; each command and each output check
    is one operation."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def materialize_configs(workload: Workload, directory: Path, tiny: bool) -> list[Path]:
    """Copy the workload's configs into ``directory``, applying the smoke
    overrides (later assignments win in the config format)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in workload.configs:
        text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        if tiny:
            text += "".join(f"{k} = {json.dumps(v)}\n" for k, v in workload.tiny.items())
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def sanity_check(config_paths, seed: int) -> list[str]:
    """Reasons to refuse the configs before anything is timed: an obstacle
    above 0 on a boundary node, or a failed assumption gate.

    This is also all a fresh process does before its first solve: load the
    configs, assemble the operator, build the first problem, run the gate.
    """
    problems = []
    for path in config_paths:
        cfg = load_config(path)
        grid = cfg.make_grid()
        data = cfg.build_problem(cfg.sample_seeds(base_seed(seed))[0], grid=grid)
        boundary = np.ones(grid.n_nodes, dtype=bool)
        boundary[grid.interior] = False
        worst = float(data.obstacle.frames[:, boundary].max(initial=-np.inf))
        if worst > BOUNDARY_TOL:
            problems.append(f"{path.name}: obstacle reaches {worst:.3e} > 0 on the boundary")
        report = validate_assumptions(data.coeffs, data.op.lam, grid=grid,
                                      horizon=float(data.times[-1]))
        if not report.ok:
            problems.append(f"{path.name}: assumption gate fails\n{report.summary()}")
    return problems


def run_sequence(workload: Workload, config_paths, out_dir: Path, seed: int,
                 tally: Tally) -> None:
    """The workload's command sequence, in process, with CLI output muted."""
    base = str(base_seed(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        if workload.command == "compare":
            rc = cli.main(["compare", "--config", str(config_paths[0]),
                           "--config2", str(config_paths[1]), "--out", str(out_dir),
                           "--seed", base])
            tally.record("compare", rc == 0, f"exit {rc}")
            return
        cfg_path = str(config_paths[0])
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out_dir),
                       "--seed", base])
        tally.record("simulate", rc == 0, f"exit {rc}")
        try:
            rows = json.loads((out_dir / "summary.json").read_text())["per_sample"]
        except (OSError, ValueError, KeyError):
            for _ in load_config(cfg_path).sample_seeds(base_seed(seed)):
                tally.record("verify", False, "no summary.json to find samples in")
            return
        for row in rows:
            rc = cli.main(["verify", "--config", cfg_path, "--out", str(out_dir),
                           "--artifacts", row["directory"]])
            tally.record("verify", rc == 0, f"exit {rc} on seed {row['seed']}")


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    """Digest of every file name and byte under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_verify_report(path: Path, dt: float, tally: Tally, label: str) -> None:
    try:
        checks = json.loads(path.read_text())["checks"]
    except (OSError, ValueError, KeyError) as exc:
        tally.record(f"{label} verify report", False, str(exc))
        return
    bad = []
    for name, rep in checks.items():
        if name in RESIDUAL_CHECKS:
            if not rep["max_cumulative"] <= RESIDUAL_TOL_DT * dt:
                bad.append(f"{name} residual {rep['max_cumulative']:.3e}")
        elif name == "skorokhod" and not rep["defect"] <= SKOROKHOD_TOL:
            bad.append(f"skorokhod defect {rep['defect']:.3e}")
    tally.record(f"{label} verify report", not bad, "; ".join(bad))


def check_outputs(workload: Workload, config_paths, out_dir: Path, seed: int,
                  reference: dict | None, tally: Tally) -> dict:
    """Check one iteration's outputs; returns the digests it computed.

    Invariants are checked on every seed; ``reference`` (digests for this
    workload and seed, if stored) must also match bit for bit.
    """
    digests: dict = {}
    expected = len(load_config(config_paths[0]).sample_seeds(base_seed(seed)))
    summary = "compare_summary.json" if workload.command == "compare" else "summary.json"
    try:
        rows = json.loads((out_dir / summary).read_text())["per_sample"]
    except (OSError, ValueError, KeyError) as exc:
        tally.record(f"{workload.command} outputs", False, str(exc))
        return digests
    if workload.command == "compare":
        gaps = [float(g) for g in rows]
        tally.record("compare sample count", len(gaps) == expected,
                     f"{len(gaps)} gaps for {expected} seeds")
        tally.record("compare min_gap", min(gaps, default=-math.inf) >= MIN_GAP_TOL,
                     f"min_gap {min(gaps, default=-math.inf):.3e}")
        digests["gaps"] = array_digest(gaps)
    else:
        cfg = load_config(config_paths[0])
        grid = cfg.make_grid()
        op = cfg.make_operator(grid)
        tally.record("simulate sample count", len(rows) == expected,
                     f"{len(rows)} samples for {expected} seeds")
        penalized = cfg.solver_mode == "penalized"
        for row in rows:
            label = f"seed {row['seed']}"
            try:
                u, measure, _ = load_run(row["directory"], grid, expected_hash=cfg.hash)
            except (OSError, ValueError, KeyError) as exc:  # ConfigurationError too
                tally.record(f"{label} load", False, str(exc))
                continue
            obstacle = cfg.build_problem(int(row["seed"]), grid=grid, op=op).obstacle
            below = float((obstacle.frames[1:, grid.interior]
                           - u.frames[1:, grid.interior]).max(initial=0.0))
            slack = PENALIZED_SLACK_N / cfg.penalty_n if penalized else PROJECTED_SLACK
            tally.record(f"{label} feasible", below <= slack,
                         f"u below the obstacle by {below:.3e}")
            defect = skorokhod_defect(u, obstacle, measure)
            tally.record(f"{label} skorokhod", defect <= SKOROKHOD_TOL,
                         f"defect {defect:.3e}")
            _check_verify_report(Path(row["directory"]) / "verify_report.json",
                                 cfg.dt, tally, label)
            digests[str(row["seed"])] = {"frames": array_digest(u.frames),
                                         "weights": array_digest(measure.weights)}
    if reference is not None:
        for key, want in reference.items():
            tally.record(f"reference {key}", digests.get(key) == want,
                         "differs from the stored reference digest")
    return digests


def load_reference(workload: Workload, seed: int, tiny: bool) -> dict | None:
    if tiny or seed != DEFAULT_SEED or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload.name)


def store_reference(workload: Workload, digests: dict) -> None:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    data[workload.name] = digests
    REFERENCE_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class Runner:
    """Repetitions of one workload at one seed.  The first repetition's
    outputs are checked; every later one must reproduce them byte for byte."""

    def __init__(self, workload: Workload, config_paths, seed: int, out: Path,
                 tally: Tally, reference: dict | None, record_reference: bool = False):
        self.workload = workload
        self.config_paths = config_paths
        self.seed = seed
        self.out = out
        self.tally = tally
        self.reference = reference
        self.record_reference = record_reference
        self.first_tree = None
        self.digests = None
        self.artifact_bytes = None

    def iteration(self, tracer=None) -> float:
        """One repetition; returns the wall time of the command sequence."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            run_sequence(self.workload, self.config_paths, self.out, self.seed, self.tally)
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        tree = tree_digest(self.out)
        if self.first_tree is None:
            self.first_tree = tree
            self.artifact_bytes = path_bytes(self.out)
            self.digests = check_outputs(self.workload, self.config_paths, self.out,
                                         self.seed, self.reference, self.tally)
            if self.record_reference:
                store_reference(self.workload, self.digests)
        else:
            self.tally.record("repeatable", tree == self.first_tree,
                              "outputs differ from the first repetition")
        return wall
