"""Artifact layer: bitwise save/load round trips, the pinned byte schema of
the CSV files, and refusal of malformed tables."""

import hashlib

import numpy as np
import pytest

from ospde.cli import main
from ospde.errors import ConfigurationError
from ospde.grid import build_grid
from ospde.norms import FieldPath
from ospde.persist import load_run, save_run
from ospde.solver import DiscreteMeasure, SolveResult

from test_cli import BASE, write_cfg

# Values that a decimal round trip most easily gets wrong.
EDGE = np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.0 / 3.0, 0.1, -2.5e-17])


def edge_result(grid, steps=5):
    rng = np.random.default_rng(7)
    times = np.arange(steps + 1) * (0.1 / steps)
    frames = rng.normal(size=(steps + 1, grid.n_nodes))
    frames.flat[:EDGE.size] = EDGE
    weights = np.abs(rng.normal(size=(steps, grid.n_interior)))
    weights.flat[:4] = [-0.0, 5e-324, 1e308, 0.0]
    return SolveResult(u=FieldPath(grid, times, frames),
                       measure=DiscreteMeasure(grid, times, weights))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("grid", [build_grid(1, (0.0, 1.0), 8),
                                  build_grid(2, [(0.0, 1.0), (0.0, 2.0)], (3, 4))],
                         ids=["1d", "2d"])
def test_round_trip_is_bitwise(tmp_path, grid):
    result = edge_result(grid)
    save_run(tmp_path, result, config_hash="abc", seed=3, grid=grid,
             solver_mode="projected", norms=[("mixed", 2, "inf", 0.1, -0.0)])
    u, measure, meta = load_run(tmp_path, grid, expected_hash="abc")
    assert np.array_equal(bits(u.frames), bits(result.u.frames))
    assert np.array_equal(bits(measure.weights), bits(result.measure.weights))
    assert np.array_equal(u.times, result.u.times)
    assert meta["seed"] == 3 and meta["steps"] == 5
    assert not (tmp_path / "noise.bin").exists()


# SHA-256 of the files `simulate` writes for the BASE config of test_cli
# (1D, 16 cells, 32 steps, seed 41), in each constrained solver mode.
# Readers outside the package and the benchmark's smoke tests parse these
# bytes, so the schema must not drift.
PINNED = {
    "projected": {
        "u.csv": "0c02549d9333aa6bf4e66701726a941cc472b63b15c9983a0be984c89bedbb95",
        "measure.csv": "56a812dc7a734c9249e4299e07d7c8f495bddb56fa3d85054e7523e0d546afb7",
        "norms.csv": "d8c5b70c2972ab782eda36a7dade0c438fbcda0e4a95ae27b677cd715b4942c4",
    },
    "penalized": {
        "u.csv": "8f239903f56c24cb5fd4b20ea1d28ee919b1ed3904eac55eb678c6b5ea412418",
        "measure.csv": "136dbac003e9e264d2ac58f8ec219468c977a4bd2e634fc0fd4cb984bfabf24a",
        "norms.csv": "feaa402dfef175e310624fa96cc6e6061ed9a7902054fbc1ed6906eefd9fbeab",
    },
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_csv_bytes_are_pinned(tmp_path, mode):
    out = tmp_path / "out"
    text = BASE.replace("solver.mode = projected", f"solver.mode = {mode}")
    assert main(["simulate", "--config", str(write_cfg(tmp_path, text)),
                 "--out", str(out)]) == 0
    sample = out / "sample_000_seed_41"
    digests = {name: hashlib.sha256((sample / name).read_bytes()).hexdigest()
               for name in PINNED[mode]}
    assert digests == PINNED[mode]
    first, header = (sample / "u.csv").read_bytes().split(b"\n")[:2]
    assert first.startswith(b"# config_hash=") and not first.endswith(b"\r")
    assert header == b"step,time,node,x,value\r"


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("name, edit, match", [
    pytest.param("u.csv", lambda ls: ls[:-3], "exactly once", id="u-rows-missing"),
    pytest.param("u.csv", lambda ls: ls + ls[-1:], "exactly once", id="u-row-repeated"),
    pytest.param("u.csv", lambda ls: [ls[0], ls[1].replace("value", "val"), *ls[2:]],
                 "header", id="u-header-renamed"),
    pytest.param("u.csv", lambda ls: ls[:-1] + ["9,0.5,1,0.1,0.2"], "outside",
                 id="u-step-outside"),
    pytest.param("u.csv", lambda ls: ls[:-1] + ["5,0.5,1,0.1"], "malformed",
                 id="u-row-short"),
    pytest.param("measure.csv", lambda ls: ls[:-1] + [ls[-1].replace(",7,", ",0,")],
                 "outside", id="measure-boundary-node"),
    pytest.param("measure.csv", lambda ls: ls[:2] + [ln.rsplit(",", 1)[0] for ln in ls[2:]],
                 "columns", id="measure-column-dropped"),
])
def test_malformed_table_refused(tmp_path, name, edit, match):
    grid = build_grid(1, (0.0, 1.0), 8)
    save_run(tmp_path, edge_result(grid), config_hash="abc", seed=3, grid=grid,
             solver_mode="projected")
    _edit_lines(tmp_path / name, edit)
    with pytest.raises(ConfigurationError, match=match):
        load_run(tmp_path, grid, expected_hash="abc")


def test_hash_line_mismatch_refused(tmp_path):
    grid = build_grid(1, (0.0, 1.0), 8)
    save_run(tmp_path, edge_result(grid), config_hash="abc", seed=3, grid=grid,
             solver_mode="projected")
    _edit_lines(tmp_path / "measure.csv",
                lambda ls: ["# config_hash=other"] + ls[1:])
    with pytest.raises(ConfigurationError, match="different config hash"):
        load_run(tmp_path, grid, expected_hash="abc")
