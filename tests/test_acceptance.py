"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are pinned here and nowhere else.

The standard test problem is 1D with a = 1, the Lipschitz mixed
nonlinearities (contraction constants alpha = beta = 0 < 2 lambda),
obstacle S = 0.2 and initial state sin(pi x) + 0.3.  Desk-scale
resolutions are chosen per criterion within 256 cells / 2048 steps.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (mean_terminals, mix_coeffs, mixed_problem, signed_problem,
                      standard_problem, state_free_coeffs, unconstrained_problem)

from ospde.capacity import box_set, capacity
from ospde.errors import AssumptionError
from ospde.grid import Field, assemble_operator, build_grid, sobolev_ratio
from ospde.solver import OBSTACLE_OFF, DominatorData, solve_dominators, solve_mode
from ospde.stochastics import CoefficientSet, NoisePath, sample_noise
from ospde.verify import (apriori_check, comparison_experiment, ito_square_residual,
                          penalization_sweep, positive_part_bound_check,
                          positive_part_residual, refinement_study)

CELLS, STEPS, T = 24, 128, 0.25
LEVELS = (10, 100, 1000, 10000)
SEEDS = [1000 + i for i in range(20)]


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def penalization_runs():
    """Distances to the projected solve and defects, per seed and level."""
    data = standard_problem(cells=CELLS, steps=STEPS, T=T, seed=SEEDS[0])
    return penalization_sweep(data, [sample_noise(2, T / STEPS, STEPS, seed) for seed in SEEDS],
                              LEVELS)


def test_criterion_1_penalization_convergence(penalization_runs):
    d = penalization_runs.distances
    mono = bool(np.all(d[:, :-1] > d[:, 1:]))
    ratios = d[:, -1] / d[:, 0]
    ok = mono and max(ratios) <= 0.1
    report(1, "penalization convergence", ok,
           f"strictly decreasing for {len(d)} seeds: {mono}; "
           f"max d(1e4)/d(10) = {max(ratios):.4f} (need <= 0.1)")


def test_criterion_2_skorokhod_condition(penalization_runs):
    proj_worst = max(penalization_runs.projected_defects)
    pen = penalization_runs.defects[:, -1]
    pen_ok = bool(np.all(pen <= 10 * penalization_runs.distances[:, -1]))
    ok = proj_worst <= 1e-8 and pen_ok
    report(2, "Skorokhod condition", ok,
           f"worst projected defect = {proj_worst:.2e} (need <= 1e-8); "
           f"worst penalized defect at n=1e4 = {max(pen):.2e} "
           f"(need <= 10 d(1e4) per seed: {pen_ok})")


def test_criterion_3_comparison_theorem():
    seeds = range(2000, 2100)
    gaps = {}
    base = dict(cells=CELLS, steps=STEPS, T=T)
    d1 = standard_problem(**base)
    cases = {
        "initial shift": standard_problem(**base, xi_offset=0.4),
        "drift shift": standard_problem(**base, coeffs=mix_coeffs(2, f_shift=0.1)),
        "obstacle shift": standard_problem(**base, obstacle_level=0.3),
    }
    ok = True
    for name, d2 in cases.items():
        rep = comparison_experiment(d1, d2, seeds=seeds)
        gaps[name] = rep.min_gap
        ok &= rep.min_gap >= -1e-6
    report(3, "comparison theorem", ok,
           "; ".join(f"{k}: min_gap = {v:.2e}" for k, v in gaps.items())
           + " (need >= -1e-6 over 100 shared-noise seeds each)")


def test_criterion_4_ito_identity():
    worst_step = 0.0
    for seed in range(5):
        data = unconstrained_problem(cells=64, steps=128, seed=seed,
                                     coeffs=state_free_coeffs(2))
        res = solve_mode(data, "unconstrained")
        worst_step = max(worst_step, ito_square_residual(res, data).max_step)

    fine = [sample_noise(2, T / 256, 256, 3000 + seed) for seed in range(20)]
    coarse, finer = mean_terminals(ito_square_residual, refinement_study(
        mixed_problem, [(32, 64), (32, 128)], fine, "unconstrained"))
    factor = coarse / finer
    ok = worst_step <= 1e-9 and 1.5 <= factor <= 3.0
    report(4, "Ito identity", ok,
           f"linear per-step residual = {worst_step:.2e} (need <= 1e-9); "
           f"nonlinear refinement factor = {factor:.2f} (need in [1.5, 3.0])")


def test_criterion_5_positive_part_identity():
    # one-signed deterministic run: identity closes to solver precision
    def f_one(t, x, y, z):
        return np.ones(x.shape[0])

    z = CoefficientSet.zero(2)
    cs = CoefficientSet(f=f_one, g=z.g, h=z.h, C=0.0, alpha=0.0, beta=0.0, modes=2)
    data = unconstrained_problem(cells=64, steps=128, coeffs=cs)
    data = replace(data, noise=NoisePath(J=2, dt=data.dt,
                                         increments=np.zeros((2, data.steps)), seed=0))
    res = solve_mode(data, "unconstrained")
    assert res.u.frames.min() >= 0.0
    one_sign_step = positive_part_residual(res, data).max_step

    fine = [sample_noise(2, T / 256, 256, 4000 + seed) for seed in range(20)]
    coarse, finer = mean_terminals(positive_part_residual, refinement_study(
        signed_problem, [(32, 64), (64, 128)], fine, "unconstrained"))
    factor = coarse / finer
    ok = one_sign_step <= 1e-9 and 1.3 <= factor <= 3.0
    report(5, "positive-part identity", ok,
           f"one-signed per-step residual = {one_sign_step:.2e} (need <= 1e-9); "
           f"sign-changing joint refinement factor = {factor:.2f} (need in [1.3, 3.0])")


def test_criterion_6_capacity_slice():
    grid = build_grid(1, (0.0, 1.0), 128)
    op = assemble_operator(grid, 1.0, 1.0, 1.0)
    times = np.arange(513) * (0.0625 / 512)
    cap_half = capacity(op, box_set(grid, times, 256, (0.25, 0.75)))
    widths = np.array([0.2, 0.3, 0.4, 0.5])
    caps = np.array([capacity(op, box_set(grid, times, 256,
                                          (0.5 - w / 2, 0.5 + w / 2)))
                     for w in widths])
    mono = bool(np.all(np.diff(caps) > 0))
    A = np.vstack([np.ones_like(widths), widths]).T
    coef, resid, *_ = np.linalg.lstsq(A, caps, rcond=None)
    ss_res = float(resid[0]) if len(resid) else 0.0
    ss_tot = float(np.sum((caps - caps.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ok = abs(cap_half - 0.5) <= 0.05 and mono and r2 >= 0.99
    report(6, "capacity time slice", ok,
           f"|cap - 0.5| = {abs(cap_half - 0.5):.4f} (need <= 0.05); "
           f"monotone in width: {mono}; R^2 = {r2:.5f} (need >= 0.99)")


def test_criterion_7_sobolev_bound():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 257))
        grid = build_grid(1, (0.0, 1.0), n)
        u = Field(grid, rng.normal(size=grid.n_nodes))
        worst = max(worst, sobolev_ratio(grid, u))
    ok = worst <= 0.5 * (1 + 1e-6)
    report(7, "Sobolev bound (d=1)", ok,
           f"max ratio over 200 random zero-boundary fields = {worst:.8f} "
           f"(need <= 0.5 * (1 + 1e-6))")


def test_criterion_8_estimate_stability():
    def problem(cells, steps, noise):
        grid = build_grid(1, (0.0, 1.0), cells)
        dom = DominatorData(
            initial=Field.from_function(grid, lambda x: np.sin(np.pi * x[:, 0]) + 0.3),
            f=np.full((steps + 1, grid.n_nodes), 2.0))
        return standard_problem(cells=cells, steps=steps, dominator=dom, noise=noise)

    fine = [sample_noise(2, T / 256, 256, 4200 + i) for i in range(50)]
    k, kp = [], []
    for level in refinement_study(problem, [(CELLS, STEPS), (2 * CELLS, 2 * STEPS)], fine,
                                  "projected"):
        data, paths = level[0][0], [res.u for _, res in level]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # domination fails near the boundary
            doms = solve_dominators(data, [d.noise for d, _ in level])
        k.append(apriori_check(data, paths, doms).implied_constant)
        kp.append(positive_part_bound_check(data, paths, doms).implied_constant)
    r_apriori = k[0] / k[1]
    r_pospart = kp[0] / kp[1]
    ok = 0.5 <= r_apriori <= 2.0 and 0.5 <= r_pospart <= 2.0
    report(8, "estimate stability", ok,
           f"implied-constant ratios under (h, dt) -> (h/2, dt/2): "
           f"a priori {r_apriori:.3f}, positive part {r_pospart:.3f} "
           f"(need in [0.5, 2.0], 50 seeds)")


def test_criterion_9_assumption_gate():
    z = CoefficientSet.zero(2)

    def gated(alpha, beta):
        bad = CoefficientSet(
            f=z.f,
            g=(lambda t, x, y, zz: alpha * zz),
            h=z.h, C=0.0, alpha=alpha, beta=beta, modes=2)
        data = standard_problem(cells=16, steps=16, coeffs=bad)
        for mode in ("projected", "penalized"):
            try:
                solve_mode(data, mode, 10)
                return False
            except AssumptionError:
                pass
        return True

    violate = gated(alpha=1.5, beta=0.0)   # 2 alpha = 3 > 2 lambda = 2
    boundary = gated(alpha=1.0, beta=0.0)  # 2 alpha = 2 = 2 lambda: strict fails
    ok = violate and boundary
    report(9, "assumption gate", ok,
           f"2a+b^2 > 2l refused: {violate}; boundary 2a+b^2 = 2l refused: {boundary}")


def test_criterion_10_unconstrained_reduction():
    data = standard_problem(cells=CELLS, steps=STEPS, obstacle_level=OBSTACLE_OFF)
    free = solve_mode(data, "unconstrained")
    pen = solve_mode(data, "penalized", 1000)
    proj = solve_mode(data, "projected")
    gap_pen = float(np.abs(pen.u.frames - free.u.frames).max())
    gap_proj = float(np.abs(proj.u.frames - free.u.frames).max())
    mass = max(pen.measure.total_mass(), proj.measure.total_mass())
    ok = gap_pen <= 1e-10 and gap_proj <= 1e-10 and mass <= 1e-10
    report(10, "unconstrained reduction", ok,
           f"max |penalized - free| = {gap_pen:.2e}, "
           f"max |projected - free| = {gap_proj:.2e} (need <= 1e-10); "
           f"measure mass = {mass:.2e} (need <= 1e-10)")
