"""Artifact layer: bitwise save/load round trips, the pinned byte schema of
the CSV files, and refusal of malformed tables."""

import hashlib
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ospde.persist as persist
from ospde.cli import main
from ospde.errors import ConfigurationError
from ospde.grid import build_grid
from ospde.norms import FieldPath
from ospde.persist import load_run, save_run, write_rows
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
    save_run(tmp_path, result, config_hash="abc", seed=3,
             solver_mode="projected", norms=[("mixed", 2, "inf", 0.1, -0.0)])
    u, measure, meta = load_run(tmp_path, grid, expected_hash="abc")
    assert np.array_equal(bits(u.frames), bits(result.u.frames))
    assert np.array_equal(bits(measure.weights), bits(result.measure.weights))
    assert np.array_equal(u.times, result.u.times)
    assert meta["seed"] == 3 and meta["steps"] == 5
    assert not (tmp_path / "noise.bin").exists()


def reference_frame_tables(directory, result, grid, config_hash):
    """u.csv and measure.csv written row by row: one ``fmt % row`` per
    (step, node), the row-at-a-time writer that the frame writer replaced."""

    def frame_rows(times, columns, frames):
        for k, (t, frame) in enumerate(zip(times, frames)):
            yield from zip(repeat(k), repeat(t), *columns, frame.tolist())

    times = result.u.times.tolist()
    nodes = (range(grid.n_nodes), *grid.coords.T.tolist())
    write_rows(directory / "u.csv", ("step", "time", "node", *"xy"[:grid.dim], "value"),
               "%d,%.12g,%d," + "%.12g," * grid.dim + "%.17g",
               frame_rows(times, nodes, result.u.frames), config_hash=config_hash)
    write_rows(directory / "measure.csv", ("step", "time", "node", "weight"),
               "%d,%.12g,%d,%.17g",
               frame_rows(times[1:], (grid.interior.tolist(),), result.measure.weights),
               config_hash=config_hash)


# Axis extents whose node coordinates and %.12g forms are awkward.
AXES = st.one_of(
    st.sampled_from([(0.0, 1.0 / 3.0), (-1.0 / 7.0, 2.0 / 3.0), (1e-300, 1e-299),
                     (-1e5 / 3.0, 1e5 / 7.0), (0.1, 0.7)]),
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)).map(lambda a: (a[0], a[0] + a[1])))
SPECIAL = [*EDGE.tolist(), np.nan, np.inf, -np.inf]


@st.composite
def frame_tables(draw):
    dim = draw(st.sampled_from([1, 2]))
    extent = [draw(AXES) for _ in range(dim)]
    counts = [draw(st.integers(3, 6)) for _ in range(dim)]
    grid = build_grid(dim, extent[0] if dim == 1 else extent, counts[0] if dim == 1 else counts)
    steps = draw(st.integers(1, 4))
    dt = draw(st.one_of(st.sampled_from([1.0 / 3.0, 0.1 / 7.0, 0.25]),
                        st.floats(1e-9, 1e3)))
    times = np.arange(steps + 1) * dt
    frames = draw(arrays(np.float64, (steps + 1, grid.n_nodes),
                         elements=st.one_of(st.sampled_from(SPECIAL), st.floats())))
    weights = draw(arrays(np.float64, (steps, grid.n_interior),
                          elements=st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, np.nan,
                                                              np.inf]),
                                             st.floats(0.0, allow_infinity=True))))
    return grid, SolveResult(u=FieldPath(grid, times, frames),
                             measure=DiscreteMeasure(grid, times, weights))


@given(frame_tables())
@settings(max_examples=150, deadline=None)
def test_frame_tables_match_row_writer(case):
    grid, result = case
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new", Path(tmp) / "ref"
        ref.mkdir()
        with np.errstate(over="ignore", invalid="ignore"):  # the metadata's measure mass
            save_run(new, result, config_hash="abc", seed=3,
                     solver_mode="penalized")
        reference_frame_tables(ref, result, grid, "abc")
        for name in ("u.csv", "measure.csv"):
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name


# SHA-256 of the files `simulate` writes for the BASE config of test_cli
# (1D, 16 cells, 32 steps, seed 41), in each constrained solver mode, and
# for a small penalized 2D variant of it (6 x 6 cells on [0, 1] x [0, 0.7],
# 8 steps), which pins the x,y columns at coordinates that %.12g rounds.
# Readers outside the package and the benchmark's smoke tests parse these
# bytes, so the schema must not drift.
TEXT = {
    "projected": BASE,
    "penalized": BASE.replace("solver.mode = projected", "solver.mode = penalized"),
    "penalized-2d": (BASE.replace("grid.dim = 1", "grid.dim = 2")
                     .replace("grid.extent = [0.0, 1.0]", "grid.extent = [[0.0, 1.0], [0.0, 0.7]]")
                     .replace("grid.counts = 16", "grid.counts = [6, 6]")
                     .replace("time.steps = 32", "time.steps = 8")
                     .replace("solver.mode = projected", "solver.mode = penalized")),
}
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
    "penalized-2d": {
        "u.csv": "38890252a3957b313567c1c816c02c9cc8e269f43a5b3bc4d3b28e28829754b6",
        "measure.csv": "4c25a0cf5a134eea7ac9d07dd1116e56ede0ecafcb44ec75ab497ce7dee53332",
        "norms.csv": "e368ee7d9c64ec7f692f5961e8244e5b3b04fc3399c35e8776037867ed1384cf",
    },
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_csv_bytes_are_pinned(tmp_path, mode):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, TEXT[mode])),
                 "--out", str(out)]) == 0
    sample = out / "sample_000_seed_41"
    digests = {name: hashlib.sha256((sample / name).read_bytes()).hexdigest()
               for name in PINNED[mode]}
    assert digests == PINNED[mode]
    first, header = (sample / "u.csv").read_bytes().split(b"\n")[:2]
    assert first.startswith(b"# config_hash=") and not first.endswith(b"\r")
    assert header == (b"step,time,node,x,y,value\r" if mode.endswith("2d")
                      else b"step,time,node,x,value\r")


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


MALFORMED = [
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
]


@pytest.mark.parametrize("name, edit, match", MALFORMED)
def test_malformed_table_refused(tmp_path, name, edit, match):
    grid = build_grid(1, (0.0, 1.0), 8)
    save_run(tmp_path, edge_result(grid), config_hash="abc", seed=3,
             solver_mode="projected")
    _edit_lines(tmp_path / name, edit)
    with pytest.raises(ConfigurationError, match=match):
        load_run(tmp_path, grid, expected_hash="abc")


@pytest.mark.parametrize("edit, match", [
    (lambda ls: ["# config_hash=other"] + ls[1:], "different config hash"),
    (lambda ls: ls[1:], "no config hash line"),
], ids=["replaced", "removed"])
def test_hash_line_mismatch_refused(tmp_path, edit, match):
    grid = build_grid(1, (0.0, 1.0), 8)
    for name in ("u.csv", "measure.csv"):
        save_run(tmp_path, edge_result(grid), config_hash="abc", seed=3,
                 solver_mode="projected")
        _edit_lines(tmp_path / name, edit)
        with pytest.raises(ConfigurationError, match=f"{name} .*{match}"):
            load_run(tmp_path, grid, expected_hash="abc")


# A table is read in blocks of rows; these run the round trip and every
# refusal with blocks far smaller than the tables, so rows, repeats and
# errors fall on block boundaries.
@pytest.mark.parametrize("grid", [build_grid(1, (0.0, 1.0), 8),
                                  build_grid(2, [(0.0, 1.0), (0.0, 2.0)], (3, 4))],
                         ids=["1d", "2d"])
def test_round_trip_in_small_blocks(tmp_path, monkeypatch, grid):
    monkeypatch.setattr(persist, "_BLOCK_ROWS", 5)
    test_round_trip_is_bitwise(tmp_path, grid)


@pytest.mark.parametrize("name, edit, match", MALFORMED)
def test_malformed_table_refused_in_small_blocks(tmp_path, monkeypatch, name, edit, match):
    monkeypatch.setattr(persist, "_BLOCK_ROWS", 5)
    test_malformed_table_refused(tmp_path, name, edit, match)


def test_blank_lines_are_skipped(tmp_path, monkeypatch):
    monkeypatch.setattr(persist, "_BLOCK_ROWS", 5)
    grid = build_grid(1, (0.0, 1.0), 8)
    result = edge_result(grid)
    save_run(tmp_path, result, config_hash="abc", seed=3,
             solver_mode="projected")
    _edit_lines(tmp_path / "u.csv", lambda ls: ls[:9] + [""] * 12 + ls[9:] + [""])
    u, _, _ = load_run(tmp_path, grid, expected_hash="abc")
    assert np.array_equal(bits(u.frames), bits(result.u.frames))
