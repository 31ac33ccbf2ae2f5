import csv
import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls

import ospde.cli as cli
import ospde.config
import ospde.solver
from ospde.cli import main
from ospde.config import RunConfig, load_config, parse_config_text
from ospde.errors import ConfigurationError
from ospde.persist import load_run
from ospde.verify import apriori_check, positive_part_bound_check

BASE = """
grid.dim = 1
grid.extent = [0.0, 1.0]
grid.counts = 16
operator.profile = constant
operator.a = 1.0
operator.lambda = 1.0
operator.Lambda = 1.0
time.T = 0.1
time.steps = 32
noise.J = 2
noise.seed = 41
noise.samples = 1
coefficients.preset = lipschitz_mix
obstacle.preset = constant
obstacle.level = 0.2
initial.preset = sine_pi
initial.offset = 0.3
solver.mode = projected
verify.checks = ["ito_square", "skorokhod"]
"""


VIOLATOR = BASE.replace("coefficients.preset = lipschitz_mix",
                        "coefficients.preset = contraction_violator\n"
                        "coefficients.alpha = 1.0")


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def simulated(tmp_path, text=BASE):
    """Simulate the one sample of the config ``text``: the config's path, the
    output directory and the sample's directory."""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out, out / "sample_000_seed_41"


def verify(cfg, out, sample):
    """The exit code of ``verify`` replaying ``sample`` under ``cfg``."""
    return main(["verify", "--config", str(cfg), "--out", str(out), "--artifacts", str(sample)])


def read_csv(path):
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_dotted_keys_nest(self):
        raw = parse_config_text("a.b.c = 1\na.b.d = [1, 2]\nname = hello\n")
        assert raw == {"a": {"b": {"c": 1, "d": [1, 2]}}, "name": "hello"}

    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# comment\n\nx.y = 2.5\n")
        assert raw == {"x": {"y": 2.5}}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_text("just some words\n")

    def test_missing_block_rejected(self):
        with pytest.raises(ConfigurationError, match="grid"):
            RunConfig(raw={"time": {"T": 1, "steps": 2}, "noise": {}})

    def test_empty_seed_list_rejected(self, tmp_path):
        text = BASE.replace("noise.seed = 41", "noise.seeds = []")
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(ConfigurationError, match="no sample seeds"):
            cfg.sample_seeds()

    def test_whole_numbers_are_ints(self, tmp_path):
        text = BASE + 'time.steps = 16.0\ngrid.counts = "8"\nsolver.penalty_n = 1e4\n'
        cfg = load_config(write_cfg(tmp_path, text))
        assert (cfg.steps, cfg.make_grid().counts, cfg.penalty_n) == (16, (8,), 10000)
        assert cfg.make_times()[-1] == pytest.approx(0.1)

    def test_hash_is_stable_and_sensitive(self, tmp_path):
        c1 = load_config(write_cfg(tmp_path, BASE))
        c2 = load_config(write_cfg(tmp_path, BASE, "copy.cfg"))
        assert c1.hash == c2.hash
        c3 = load_config(write_cfg(tmp_path, BASE.replace("0.2", "0.3"), "mod.cfg"))
        assert c3.hash != c1.hash


class TestSimulate:
    def test_minimal_run_creates_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sample = out / "sample_000_seed_41"
        assert (sample / "metadata.json").exists()
        assert (sample / "u.csv").exists()
        assert (sample / "measure.csv").exists()
        assert (out / "summary.json").exists()
        assert (sample / "norms.csv").exists()
        first = (sample / "u.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 1
        assert summary["aggregates"]["mean_skorokhod_defect"] <= 1e-8

    def test_high_penalty_steps_settle(self, tmp_path):
        # at n = 1e8 a penalized pass rounds like eps * pen * |u|, far above a
        # stop that ignores the penalty: this run used to exit 4 at step 0
        text = (Path(__file__).resolve().parents[1] / "configs" / "standard.cfg").read_text()
        for old, new in [("grid.counts = 64", "grid.counts = 8"),
                         ("time.steps = 256", "time.steps = 16"),
                         ("obstacle.level = 0.2", "obstacle.level = 0.8"),
                         ("solver.mode = projected",
                          "solver.mode = penalized\nsolver.penalty_n = 100000000")]:
            assert old in text
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, text)
        with pytest.warns(UserWarning, match="obstacle exceeds the initial condition"):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_metadata_holds_the_march_counters(self, tmp_path):
        cfg, _, sample = simulated(tmp_path)
        meta = json.loads((sample / "metadata.json").read_text())
        config = load_config(cfg)
        result = ospde.solver.solve_mode(config.build_problem(41), "projected")
        assert meta["factorizations"] == result.diagnostics["factorizations"] > 0
        assert meta["feasible_steps"] == result.diagnostics["feasible_steps"] > 0

    def test_same_seed_samples_identical(self, tmp_path):
        text = BASE.replace("noise.seed = 41", "noise.seeds = [41, 41]")
        text = text.replace("noise.samples = 1", "")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        u0 = (out / "sample_000_seed_41" / "u.csv").read_bytes()
        u1 = (out / "sample_001_seed_41" / "u.csv").read_bytes()
        assert u0 == u1

    def test_unexpected_error_is_internal(self, tmp_path, monkeypatch):
        def broken_save(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("ospde.cli.save_run", broken_save)
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 8
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "internal-error"
        assert "RuntimeError: disk on fire" in err["error"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_contraction_gate_blocks_run(self, tmp_path, workers):
        cfg = write_cfg(tmp_path, VIOLATOR)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--samples", "2", "--workers", str(workers)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "assumption-failure"
        assert not list(out.glob("sample_*"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_solver_mode_is_config_error(self, tmp_path, workers):
        cfg = write_cfg(tmp_path, BASE.replace("solver.mode = projected",
                                               "solver.mode = psor"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--samples", "2", "--workers", str(workers)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error"
        assert "unknown solver.mode 'psor'" in err["error"]
        assert not list(out.glob("sample_*"))

    @pytest.mark.parametrize("key, line, argv", [
        pytest.param(key, line, argv, id=key) for key, line, argv in [
            ("time.steps", 'time.steps = "eight"', ["simulate"]),
            ("noise.J", 'noise.J = "two"', ["simulate"]),
            ("solver.penalty_n", 'solver.penalty_n = "big"', ["simulate"]),
            ("obstacle.level", 'obstacle.level = "high"', ["simulate"]),
            ("operator.a", 'operator.a = "stiff"', ["simulate"]),
            ("dominator.start", 'dominator.preset = constant_source\ndominator.start = "top"',
             ["simulate"]),
            ("noise.seeds", "noise.seeds = 5", ["simulate"]),
            ("solver.sweep_n", "solver.sweep_n = 5", ["penalize-sweep"]),
            ("--n-values", "", ["penalize-sweep", "--n-values", "10,abc"])]] + [
        pytest.param(key, line, ["simulate"], id=f"{key}-{i}") for i, (key, line) in enumerate([
            ("time.steps", "time.steps = 16.9"),
            ("time.steps", "time.steps = true"),
            ("time.T", "time.T = true"),
            ("noise.J", "noise.J = 2.5"),
            ("solver.penalty_n", "solver.penalty_n = 1000.7"),
            ("noise.seed", "noise.seed = 1000.5"),
            ("grid.counts", 'grid.counts = "abc"'),
            ("grid.counts", "grid.counts = 8.9"),
            ("grid.extent", 'grid.extent = "x"'),
            ("grid.extent", 'grid.extent = [0.0, "x"]'),
            ("output.directory", "output.directory = 5"),
            ("output.directory", 'output.directory = ""')])])
    def test_unparsable_value_is_config_error(self, tmp_path, capsys, key, line, argv):
        cfg = write_cfg(tmp_path, BASE + line + "\n")
        code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2 and err["stage"] == "config-error"
        assert err["error"].startswith(f"{key} = ")

    @pytest.mark.parametrize("key, line, flags", [
        ("--workers", "", ["--workers", "-4"]),
        ("--workers", "output.workers = 2", ["--workers", "0"]),
        ("output.workers", "output.workers = 0", [])], ids=["flag", "flag-zero", "config"])
    def test_worker_count_below_one_is_config_error(self, tmp_path, key, line, flags):
        cfg = write_cfg(tmp_path, BASE + line + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--samples", "2", *flags]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error" and err["error"].startswith(f"{key} = ")
        assert not list(out.glob("sample_*"))

    def test_round_trip_matches_solution(self, tmp_path):
        cfg_path, _, sample = simulated(tmp_path)
        cfg = load_config(cfg_path)
        grid = cfg.make_grid()
        u, measure, meta = load_run(sample, grid, expected_hash=cfg.hash)
        from ospde.solver import solve_mode
        res = solve_mode(cfg.build_problem(41, grid=grid), "projected")
        assert np.allclose(u.frames, res.u.frames, atol=1e-15)
        assert np.allclose(measure.weights, res.measure.weights, atol=1e-15)


class TestSubcommands:
    def test_penalize_sweep_distances_decrease(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "sweep"
        assert main(["penalize-sweep", "--config", str(cfg), "--out", str(out),
                     "--n-values", "10,100"]) == 0
        rows = read_csv(out / "penalize_sweep.csv")
        assert [int(r["n"]) for r in rows] == [10, 100]
        d = [float(r["distance_to_projected"]) for r in rows]
        assert d[0] > d[1]

    def test_compare_equal_configs_zero_gap(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--config2", str(cfg),
                     "--out", str(out), "--samples", "2"]) == 0
        rows = read_csv(out / "compare.csv")
        assert all(float(r["min_gap"]) == 0.0 for r in rows)

    def test_compare_refuses_violating_second_config(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        cfg2 = write_cfg(tmp_path, VIOLATOR, "violator.cfg")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--config2", str(cfg2),
                     "--out", str(out), "--samples", "2"]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "assumption-failure"
        assert "contraction" in err["error"]
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize("command, calls", [
        ("verify", {"f": 140, "g": 140, "h": 140}),
        ("compare", {"f": 152, "g": 152, "h": 152})])
    def test_map_calls_are_pinned(self, tmp_path, monkeypatch, command, calls):
        """Counts every call of the maps the config builds, the way the
        benchmark's tracer does: ``simulate`` then ``verify`` of three
        replays, or ``compare`` of two configs on two seeds."""
        counts = Counter()
        build = ospde.config.make_coefficients

        def counted(*args, **kwargs):
            coeffs = build(*args, **kwargs)

            def wrap(name, fn):
                def call(*a):
                    counts[name] += 1
                    return fn(*a)
                return call

            return dataclasses.replace(coeffs, **{m: wrap(m, getattr(coeffs, m))
                                                  for m in "fgh"})

        monkeypatch.setattr(ospde.config, "make_coefficients", counted)
        cfg = write_cfg(tmp_path, BASE.replace(
            '["ito_square", "skorokhod"]', '["weak_form", "ito_square", "positive_part"]'))
        out = tmp_path / "out"
        if command == "verify":
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["verify", "--config", str(cfg), "--out", str(out),
                         "--artifacts", str(out / "sample_000_seed_41")]) == 0
        else:
            cfg2 = write_cfg(tmp_path, BASE + "coefficients.f_shift = 0.5\n", "shifted.cfg")
            assert main(["compare", "--config", str(cfg), "--config2", str(cfg2),
                         "--out", str(out), "--samples", "2"]) == 0
        assert dict(counts) == calls

    @pytest.mark.parametrize("command", ["simulate", "compare", "penalize-sweep"])
    def test_zero_samples_is_config_error(self, tmp_path, command):
        # a negative count must not slice seeds off a seed list
        seed_list = BASE.replace("noise.seed = 41", "noise.seeds = [5, 6, 7]")
        for name, text, samples in [("zero", BASE, "0"), ("negative", seed_list, "-1")]:
            cfg = write_cfg(tmp_path, text, f"{name}.cfg")
            out = tmp_path / name
            argv = [command, "--config", str(cfg), "--out", str(out), "--samples", samples]
            if command == "compare":
                argv += ["--config2", str(cfg)]
            assert main(argv) == 2
            err = json.loads((out / "error.json").read_text())
            assert err["stage"] == "config-error"
            assert err["error"].startswith(f"--samples = {samples} ")
            assert "no sample seeds" in err["error"]
            assert not list(out.glob("sample_*"))

    @pytest.mark.parametrize("command", ["simulate", "compare", "penalize-sweep"])
    def test_seed_with_seed_list_is_config_error(self, tmp_path, command):
        cfg = write_cfg(tmp_path, BASE.replace("noise.seed = 41", "noise.seeds = [5, 6, 7]"))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "10"]
        if command == "compare":
            argv += ["--config2", str(cfg)]
        assert main(argv) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error"
        assert "noise.seeds" in err["error"] and "--seed" in err["error"]
        assert not list(out.glob("sample_*"))

    def test_penalize_sweep_runs_the_gate_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ospde.solver, "validate_assumptions")
        cfg = write_cfg(tmp_path, BASE)
        assert main(["penalize-sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                     "--n-values", "10,100,1000,10000"]) == 0
        assert len(calls) == 1

    def test_penalize_sweep_refuses_every_level_before_solving(self, tmp_path, monkeypatch):
        calls = []
        step_matrix = ospde.solver._step_matrix

        def counting_step_matrix(*args):
            calls.append(1)
            return step_matrix(*args)

        monkeypatch.setattr(ospde.solver, "_step_matrix", counting_step_matrix)
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "sweep"
        assert main(["penalize-sweep", "--config", str(cfg), "--out", str(out),
                     "--n-values", "10,0"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error" and "penalization level" in err["error"]
        assert calls == []
        assert not (out / "penalize_sweep.csv").exists()

    def test_empty_sweep_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "solver.sweep_n = []\n")
        out = tmp_path / "sweep"
        assert main(["penalize-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error"
        assert err["error"].startswith("solver.sweep_n = [] is not a non-empty list")
        assert not (out / "penalize_sweep.csv").exists()

    @pytest.mark.parametrize("command, loads", [("simulate", 1), ("verify", 1), ("compare", 2)])
    def test_config_parsed_once_per_file(self, tmp_path, monkeypatch, command, loads):
        cfg, out, sample = simulated(tmp_path)
        calls = count_calls(monkeypatch, cli, "load_config")
        argv = {"simulate": ["--out", str(out)],
                "verify": ["--out", str(out), "--artifacts", str(sample)],
                "compare": ["--out", str(tmp_path / "cmp"), "--config2", str(cfg)]}[command]
        assert main([command, "--config", str(cfg), *argv]) == 0
        assert len(calls) == loads

    def test_capacity_table(self, tmp_path):
        text = (BASE.replace("solver.mode = projected", "")
                + "capacity.frame = 16\ncapacity.boxes = [[0.25, 0.75]]\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cap"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "capacity.csv")
        assert len(rows) == 1
        assert {"capacity", "lebesgue_measure"} <= set(rows[0])
        assert float(rows[0]["capacity"]) > 0

    CAPACITY_2D = (BASE.replace("grid.dim = 1", "grid.dim = 2")
                   .replace("grid.extent = [0.0, 1.0]", "grid.extent = [[0.0, 1.0], [0.0, 1.0]]")
                   .replace("grid.counts = 16", "grid.counts = [8, 8]")
                   .replace("solver.mode = projected", "")
                   + "capacity.frame = 16\n")

    def test_capacity_table_2d(self, tmp_path):
        text = self.CAPACITY_2D + "capacity.boxes = [[[0.25, 0.75], [0.25, 0.5]]]\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cap"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "capacity.csv")
        assert len(rows) == 1
        assert list(rows[0]) == ["frame", "time", "lo_x", "hi_x", "lo_y", "hi_y",
                                 "capacity", "lebesgue_measure"]
        assert [float(rows[0][k]) for k in ("lo_x", "hi_x", "lo_y", "hi_y")] == \
            [0.25, 0.75, 0.25, 0.5]
        assert float(rows[0]["capacity"]) > 0

    def test_capacity_two_boxes_in_2d(self, tmp_path):
        text = self.CAPACITY_2D + ("capacity.boxes = [[[0.25, 0.75], [0.25, 0.5]], "
                                   "[[0.25, 0.75], [0.25, 0.75]]]\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cap"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "capacity.csv")
        assert [[float(row[k]) for k in ("lo_x", "hi_x", "lo_y", "hi_y")] for row in rows] == \
            [[0.25, 0.75, 0.25, 0.5], [0.25, 0.75, 0.25, 0.75]]
        capacities = [float(row["capacity"]) for row in rows]
        assert 0 < capacities[0] < capacities[1]

    @pytest.mark.parametrize("entry, key", [
        ("capacity.boxes = 0.2", "capacity.boxes"),
        ("capacity.boxes = []", "capacity.boxes"),
        ('capacity.boxes = [["a", 0.5]]', "capacity.boxes[0]"),
        ('capacity.boxes = [[0.4, "mid"]]', "capacity.boxes[0]"),
        ('capacity.boxes = [[0.4, 0.6], "wide"]', "capacity.boxes[1]"),
        ("capacity.boxes = [[0.4, 0.6], [[0.25, 0.75], [0.25, 0.75]]]", "capacity.boxes[1]"),
    ], ids=["not-a-list", "empty", "not-a-number", "hi-not-a-number",
           "not-a-box", "2d-box-in-1d"])
    def test_capacity_bad_box_is_config_error(self, tmp_path, monkeypatch, entry, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("capacity solved before the boxes were refused")

        monkeypatch.setattr(cli, "compute_capacity", no_solve)
        text = BASE.replace("solver.mode = projected", "") + f"capacity.frame = 16\n{entry}\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cap"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error"
        assert err["error"].startswith(f"{key} = ")
        assert not (out / "capacity.csv").exists()

    def test_capacity_without_boxes_is_config_error(self, tmp_path):
        text = (BASE.replace("solver.mode = projected", "")
                + "capacity.frame = 16\ncapacity.interval = [0.25, 0.75]\n")
        out = tmp_path / "cap"
        assert main(["capacity", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err == {"stage": "config-error", "error": "capacity runs need capacity.boxes"}

    # sha256 of two command tables: a 2-seed, 2-level sweep of BASE, and
    # the shipped capacity config
    PINNED_TABLES = {
        "penalize-sweep": ("penalize_sweep.csv",
                           "54ff1a239964115bd40a5a538930b925688ebff40c94fc4dc5442faa09c15702"),
        "capacity": ("capacity.csv",
                     "006bce0e7063044fa416b9ebf3696216b4e47f026d4584be54907414cd7042d0"),
    }

    @pytest.mark.parametrize("command", sorted(PINNED_TABLES))
    def test_table_bytes_are_pinned(self, tmp_path, command):
        if command == "capacity":
            cfg, extra = Path(__file__).resolve().parents[1] / "configs" / "capacity_slice.cfg", []
        else:
            cfg, extra = write_cfg(tmp_path, BASE), ["--samples", "2", "--n-values", "10,100"]
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
        name, digest = self.PINNED_TABLES[command]
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_verify_replays_artifacts(self, tmp_path):
        cfg, out, sample = simulated(tmp_path)
        assert verify(cfg, out, sample) == 0
        report = json.loads((sample / "verify_report.json").read_text())
        assert set(report["checks"]) == {"ito_square", "skorokhod"}
        assert report["checks"]["skorokhod"]["defect"] <= 1e-8

    def test_unexpected_check_error_is_verify_failure(self, tmp_path, monkeypatch):
        cfg, out, sample = simulated(tmp_path)

        def broken_check(*args, **kwargs):
            raise ValueError("bad replay")

        monkeypatch.setattr("ospde.cli.ito_square_residual", broken_check)
        assert verify(cfg, out, sample) == 5
        assert json.loads((out / "error.json").read_text())["stage"] == "verify-failure"

    def test_verify_refuses_hash_mismatch(self, tmp_path):
        _, out, sample = simulated(tmp_path)
        other = write_cfg(tmp_path, BASE.replace("0.2", "0.25"), "other.cfg")
        assert verify(other, out, sample) == 6

    @pytest.mark.parametrize("name", ["u.csv", "measure.csv"])
    def test_verify_refuses_table_without_hash_line(self, tmp_path, name):
        cfg, out, sample = simulated(tmp_path)
        table = sample / name
        table.write_bytes(table.read_bytes().split(b"\n", 1)[1])
        assert verify(cfg, out, sample) == 6
        err = json.loads((out / "error.json").read_text())
        assert err == {"stage": "artifact-mismatch",
                       "error": f"{name} has no config hash line; refusing to load"}

    @pytest.mark.parametrize("edit", ["steps", "dt"])
    def test_verify_refuses_steps_or_dt_of_another_run(self, tmp_path, edit):
        """A sample whose metadata, with tables cut to match, holds 16 steps
        (or another dt) under a 32-step config with its hash."""
        cfg, out, sample = simulated(tmp_path)
        meta = json.loads((sample / "metadata.json").read_text())
        dt = meta["dt"]
        if edit == "steps":
            meta["steps"] = 16
            for name, last in (("u.csv", 16), ("measure.csv", 15)):
                lines = (sample / name).read_bytes().splitlines(keepends=True)
                kept = [ln for ln in lines[2:] if int(ln.split(b",", 1)[0]) <= last]
                (sample / name).write_bytes(b"".join(lines[:2] + kept))
        else:
            meta["dt"] = 2 * dt
        (sample / "metadata.json").write_text(json.dumps(meta))
        assert verify(cfg, out, sample) == 6
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "artifact-mismatch"
        assert err["error"] == (f"artifacts hold {meta['steps']} steps of dt = {meta['dt']!r}, "
                                f"the config 32 steps of dt = {dt!r}; refusing to verify")

    def test_missing_artifacts_explicit_error(self, tmp_path):
        assert verify(write_cfg(tmp_path, BASE), tmp_path / "out", tmp_path / "nowhere") == 7

    def test_artifacts_file_is_missing_artifacts(self, tmp_path):
        not_a_dir = tmp_path / "run.csv"
        not_a_dir.write_text("")
        assert verify(write_cfg(tmp_path, BASE), tmp_path / "out", not_a_dir) == 7
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["stage"] == "artifact-missing" and "Not a directory" in err["error"]

    @pytest.mark.parametrize("edit", ["drop_last_frame", "rename_header"])
    def test_verify_refuses_malformed_artifacts(self, tmp_path, edit):
        cfg, out, sample = simulated(tmp_path)
        u_csv = sample / "u.csv"
        lines = u_csv.read_text().splitlines()
        if edit == "drop_last_frame":
            lines = [ln for ln in lines if not ln.startswith("32,")]
        else:
            lines[1] = lines[1].replace("value", "u")
        u_csv.write_text("\n".join(lines) + "\n")
        assert verify(cfg, out, sample) == 6
        assert json.loads((out / "error.json").read_text())["stage"] == "artifact-mismatch"

    @pytest.mark.parametrize("edit", [
        lambda meta: {k: v for k, v in meta.items() if k != "steps"},
        lambda meta: {k: v for k, v in meta.items() if k != "seed"},
        lambda meta: {**meta, "dt": "0.003"},
        lambda meta: None,
    ], ids=["no_steps", "no_seed", "dt_text", "not_json"])
    def test_verify_refuses_bad_metadata(self, tmp_path, edit):
        cfg, out, sample = simulated(tmp_path)
        path = sample / "metadata.json"
        meta = edit(json.loads(path.read_text()))
        path.write_text("{not json" if meta is None else json.dumps(meta))
        assert verify(cfg, out, sample) == 6
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "artifact-mismatch" and "metadata.json" in err["error"]

    def test_unknown_output_format_is_config_error(self, tmp_path):
        # "noise" is refused too: the noise is never stored, its seed rebuilds it
        for name in ("nosie", "noise"):
            cfg = write_cfg(tmp_path, BASE + f'output.formats = ["csv", "{name}"]\n')
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
            err = json.loads((out / "error.json").read_text())
            assert err["stage"] == "config-error" and f"'{name}'" in err["error"]
            assert not list(out.glob("sample_*"))

    def test_csv_written_whatever_the_formats(self, tmp_path):
        cfg, out, sample = simulated(tmp_path, BASE + 'output.formats = ["json"]\n')
        assert {p.name for p in sample.iterdir()} == {
            "metadata.json", "u.csv", "measure.csv", "norms.csv"}
        assert verify(cfg, out, sample) == 0

    def test_unknown_check_rejected(self, tmp_path):
        text = BASE.replace('verify.checks = ["ito_square", "skorokhod"]',
                            'verify.checks = ["nonsense"]')
        cfg, out, sample = simulated(tmp_path, text)
        assert verify(cfg, out, sample) == 2
        assert json.loads((out / "error.json").read_text())["stage"] == "config-error"

    @pytest.mark.parametrize("value, message", [
        ('"skorokhod"', "verify.checks = 'skorokhod' is not a list"),
        ('[["skorokhod"]]', "unknown verify checks [['skorokhod']]"),
        ("[]", "verify.checks = [] names no check")], ids=["string", "nested", "empty"])
    def test_checks_that_are_not_a_list_of_names_are_config_error(self, tmp_path, value,
                                                                  message):
        cfg, out, sample = simulated(tmp_path, BASE.replace(
            'verify.checks = ["ito_square", "skorokhod"]', f"verify.checks = {value}"))
        code = verify(cfg, out, sample)
        err = json.loads((out / "error.json").read_text())
        assert code == 2 and err["stage"] == "config-error"
        assert err["error"].startswith(message)
        assert not (sample / "verify_report.json").exists()

    ESTIMATES = 'verify.checks = ["apriori", "positive_part_bound"]'

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    @pytest.mark.parametrize("checks, marches", [
        ('["apriori", "positive_part_bound"]', 1), ('["positive_part_bound"]', 1),
        ('["ito_square", "skorokhod"]', 0)], ids=["both", "one", "neither"])
    def test_verify_marches_the_dominator_at_most_once(self, tmp_path, monkeypatch,
                                                       checks, marches):
        calls = count_calls(monkeypatch, cli, "solve_dominators")
        text = BASE.replace('verify.checks = ["ito_square", "skorokhod"]',
                            f"verify.checks = {checks}\ndominator.preset = noisy")
        assert verify(*simulated(tmp_path, text)) == 0
        assert len(calls) == marches

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    def test_verify_estimates_match_a_direct_call(self, tmp_path):
        text = BASE.replace('verify.checks = ["ito_square", "skorokhod"]',
                            self.ESTIMATES + "\ndominator.preset = noisy")
        cfg_path, out, sample = simulated(tmp_path, text)
        assert verify(cfg_path, out, sample) == 0
        report = json.loads((sample / "verify_report.json").read_text())["checks"]

        cfg = load_config(cfg_path)
        grid = cfg.make_grid()
        u, _, _ = load_run(sample, grid, expected_hash=cfg.hash)
        data = cfg.build_problem(41, grid=grid)
        doms = ospde.solver.solve_dominators(data, [data.noise])
        for check in (apriori_check, positive_part_bound_check):
            direct = json.loads(json.dumps(check(data, [u], doms).as_dict()))
            assert report[direct["name"]] == direct

    def test_verify_estimates_without_dominator_are_config_error(self, tmp_path):
        text = BASE.replace('verify.checks = ["ito_square", "skorokhod"]', self.ESTIMATES)
        cfg, out, sample = simulated(tmp_path, text)
        assert verify(cfg, out, sample) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "config-error" and "dominator" in err["error"]

    @pytest.mark.parametrize("command, flag", [
        ("penalize-sweep", "--workers"), ("compare", "--workers"), ("capacity", "--workers"),
        ("verify", "--workers"), ("capacity", "--seed"), ("verify", "--seed")])
    def test_flag_the_command_ignores_is_refused(self, tmp_path, capsys, command, flag):
        cfg = str(write_cfg(tmp_path, BASE))
        extra = {"compare": ["--config2", cfg], "verify": ["--artifacts", str(tmp_path)]}
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, *extra.get(command, []), flag, "3"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
