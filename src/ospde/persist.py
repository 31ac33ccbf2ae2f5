"""Artifact persistence: one CSV table writer, one frame writer, one CSV
table reader.

A sample directory holds ``metadata.json``, ``u.csv``, ``measure.csv``
and ``norms.csv``; the noise is not stored, since its seed rebuilds it bit
for bit.  Every file embeds the config hash -- JSON files as a field, CSV
files as a leading ``# config_hash=...`` line -- and loading against a
mismatched hash is refused.

Every CSV table is the hash line, a header and rows: the hash line ends
in LF, the header and data rows in CRLF, which is what ``csv.writer``
emits.  ``write_rows`` writes a small table from a ``%``-format row
declared once.  The two frame tables, u.csv and measure.csv, go through
``_write_frames``: each node's ``node,x[,y],`` prefix is formatted once
per table, and each frame becomes one ``%`` call on a template of the
frame's rows.  Every field goes through the same ``%`` spec, from the same
Python value, as in a write of one ``%d,%.12g,%d,...,%.17g`` row at a
time, so the bytes are identical to that write's (``tests/test_persist.py``
keeps it as the reference).

u.csv columns: step, time, node, x[, y], value -- one row per node per
frame.  measure.csv columns: step, time, node, weight -- weights are
densities per space-time cell; the row's time is t_{k+1}, the frame whose
constraint produced the weight at step k.  Interior nodes only (weights
vanish identically on the boundary).  norms.csv columns: run_id,
norm_name, p, q, t, value; dual-norm entries are named
``dual_sharp_upper``: reported values bound the true infimum norm from
above.

``load_run`` refuses (``ConfigurationError``) a ``metadata.json`` that is
not a JSON object with an integer ``steps`` >= 1, a positive ``dt`` and an
integer ``seed``, a table whose first line is not a hash line or names
another hash, and a table whose header or numbers do not parse, or that
does not hold each (step, node) exactly once.  It parses a table in blocks
of rows and scatters each block into place, so a load never holds the
whole table as numbers.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import Grid
from .norms import FieldPath
from .solver import DiscreteMeasure, SolveResult

__all__ = ["save_run", "load_run", "write_rows"]

_MEASURE_HEADER = ("step", "time", "node", "weight")
_HASH_LINE = "# config_hash="


def _u_header(dim: int) -> tuple[str, ...]:
    """Header of u.csv on a ``dim``-dimensional grid."""
    return ("step", "time", "node", *"xy"[:dim], "value")


def _open_table(path, header, config_hash: str):
    """Open ``path`` for writing and write the hash line and the header."""
    fh = open(path, "w", newline="", encoding="utf-8")
    fh.write(f"{_HASH_LINE}{config_hash}\n")
    fh.write(",".join(header) + "\r\n")
    return fh


def write_rows(path, header, fmt: str, rows, config_hash: str) -> None:
    """Write a CSV table: the hash line, the header, then ``fmt % row`` per row."""
    line = fmt + "\r\n"
    with _open_table(path, header, config_hash) as fh:
        fh.writelines(line % row for row in rows)


def _write_frames(path, header, prefixes, times, frames, config_hash: str) -> None:
    """Write a frame table: per frame k, one ``k,t,prefix,value`` row per node.

    ``prefixes`` holds each node's formatted ``node,x[,y],`` columns; frame k
    is written by one ``%`` call, so its values are formatted by ``%.17g``
    in C, one Python float each.
    """
    templates = [prefix + "%.17g" for prefix in prefixes]
    with _open_table(path, header, config_hash) as fh:
        for k, (t, frame) in enumerate(zip(times, frames)):
            head = "%d,%.12g," % (k, t)
            fh.write((head + ("\r\n" + head).join(templates) + "\r\n")
                     % tuple(frame.tolist()))


def save_run(directory, result: SolveResult, *, config_hash: str, seed: int,
             grid: Grid, solver_mode: str, penalty_n: int | None = None,
             norms=()) -> dict:
    """Write the sample directory; returns the metadata.

    ``norms`` holds (norm_name, p, q, t, value) entries.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "config_hash": config_hash,
        "seed": int(seed),
        "solver_mode": solver_mode,
        "penalty_n": penalty_n,
        "grid": {"dim": grid.dim, "extent": [list(e) for e in grid.extent],
                 "counts": list(grid.counts)},
        "dt": result.u.dt,
        "steps": result.u.steps,
        "measure_mass": result.measure.total_mass(),
        "iterations_max": int(max(result.diagnostics.get("iterations", [0]) or [0])),
        "feasible_steps": result.diagnostics.get("feasible_steps"),
        "factorizations": result.diagnostics.get("factorizations"),
    }
    with open(directory / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)

    times = result.u.times.tolist()
    node_fmt = "%d," + "%.12g," * grid.dim
    nodes = [node_fmt % row for row in zip(range(grid.n_nodes), *grid.coords.T.tolist())]
    _write_frames(directory / "u.csv", _u_header(grid.dim), nodes, times,
                  result.u.frames, config_hash)
    _write_frames(directory / "measure.csv", _MEASURE_HEADER,
                  ["%d," % node for node in grid.interior.tolist()], times[1:],
                  result.measure.weights, config_hash)
    write_rows(directory / "norms.csv", ("run_id", "norm_name", "p", "q", "t", "value"),
               "%s,%s,%s,%s,%.12g,%.17g", ((f"seed_{seed}", *entry) for entry in norms),
               config_hash=config_hash)
    return meta


# Rows parsed per np.loadtxt call.  Reading a table in blocks bounds the
# transient arrays of a load by the block, not by the table: a 30 MB u.csv
# read whole made the process's peak memory depend on where the allocator
# happened to place the table.
_BLOCK_ROWS = 1 << 14


def _read_table(path, header, expected_hash: str | None = None):
    """The rows of a CSV table as 2D float arrays of at most _BLOCK_ROWS
    rows each, after the hash line and header checks."""
    name = Path(path).name
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        if not line.startswith(_HASH_LINE):
            raise ConfigurationError(f"{name} has no config hash line; refusing to load")
        if expected_hash is not None and line.rstrip("\r\n") != _HASH_LINE + expected_hash:
            raise ConfigurationError(f"{name} embeds a different config hash; refusing to load")
        line = fh.readline()
        if line.rstrip("\r\n") != ",".join(header):
            raise ConfigurationError(f"{name} header {line.rstrip()!r} is not "
                                     f"{','.join(header)!r}; refusing to load")
        while block := list(islice(fh, _BLOCK_ROWS)):
            try:
                with warnings.catch_warnings():  # numpy warns on a block of blank lines
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(block, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigurationError(f"{name} is malformed ({exc}); refusing to load") from None
            if not table.size:
                continue
            if table.shape[1] != len(header):
                raise ConfigurationError(f"{name} rows do not have the {len(header)} columns "
                                         f"of its header; refusing to load")
            yield table


def _scatter(path, header, expected_hash, steps: int, nodes: np.ndarray,
             n_nodes: int) -> np.ndarray:
    """Read a (step, time, node, ..., value) table into a (steps, nodes.size)
    array whose column j holds node ``nodes[j]``; every (step, node) pair must
    appear exactly once."""
    column = np.full(n_nodes, -1)
    column[nodes] = np.arange(nodes.size)
    out = np.empty(steps * nodes.size)
    seen = np.zeros(steps * nodes.size, dtype=np.intp)
    for table in _read_table(path, header, expected_hash):
        step, node = table[:, 0], table[:, 2]
        in_range = ((step == np.floor(step)) & (step >= 0) & (step < steps)
                    & (node == np.floor(node)) & (node >= 0) & (node < n_nodes))
        col = column[node.astype(np.intp)] if in_range.all() else None
        if col is None or (col < 0).any():
            raise ConfigurationError(f"{Path(path).name} names a step or node outside "
                                     f"the run; refusing to load")
        flat = step.astype(np.intp) * nodes.size + col
        seen += np.bincount(flat, minlength=seen.size)
        out[flat] = table[:, -1]
    if not (seen == 1).all():
        raise ConfigurationError(f"{Path(path).name} does not hold each (step, node) "
                                 f"exactly once; refusing to load")
    return out.reshape(steps, nodes.size)


def load_run(directory, grid: Grid, expected_hash: str | None = None):
    """Load a stored run back into (FieldPath, DiscreteMeasure, metadata)."""
    directory = Path(directory)
    with open(directory / "metadata.json", "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError:
            meta = None
    if not isinstance(meta, dict):
        raise ConfigurationError("metadata.json is not a JSON object; refusing to load")
    if expected_hash is not None and meta.get("config_hash") != expected_hash:
        raise ConfigurationError(
            f"artifact config hash {meta.get('config_hash')!r} does not match "
            f"the supplied config ({expected_hash!r}); refusing to verify")
    steps, dt, seed = (meta.get(key) for key in ("steps", "dt", "seed"))
    if not (type(steps) is int and steps >= 1 and type(seed) is int
            and type(dt) in (int, float) and 0 < dt < math.inf):
        raise ConfigurationError(f"metadata.json has steps = {steps!r}, dt = {dt!r}, "
                                 f"seed = {seed!r}; refusing to load")
    times = np.arange(steps + 1) * float(dt)

    frames = _scatter(directory / "u.csv", _u_header(grid.dim), expected_hash,
                      steps + 1, np.arange(grid.n_nodes), grid.n_nodes)
    weights = _scatter(directory / "measure.csv", _MEASURE_HEADER, expected_hash,
                       steps, grid.interior, grid.n_nodes)
    return FieldPath(grid, times, frames), DiscreteMeasure(grid, times, weights), meta
