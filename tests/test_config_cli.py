"""Configuration loading, CLI subcommands, artifact determinism."""

import json

import numpy as np
import pytest

from grobust.cli import emit_convergence_table, main, run, worker_count
from grobust.config import (ConfigError, config_to_dict, load_config,
                            parse_config, resolve_problem)

MINIMAL = {"problem": {"catalog": "lq"}}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_minimal_catalog_config(self):
        cfg = parse_config(MINIMAL)
        problem, name, oracle = resolve_problem(cfg)
        assert name == "lq" and oracle == "lq-riccati"
        assert problem.gamma.is_singleton()

    def test_zero_n_x_rejected_with_path(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"problem": {"catalog": "lq"},
                          "solver": {"n_x": 0}})
        assert any("solver.n_x" in e for e in info.value.errors)

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"problem": {"catalog": "lq"},
                          "solver": {"nx": 100}})
        assert any("solver.nx" in e for e in info.value.errors)

    def test_non_strict_ignores_unknown_keys(self):
        cfg = parse_config({"problem": {"catalog": "lq"},
                            "solver": {"nx": 100}}, strict=False)
        assert cfg.solver.n_x == 200  # default; unknown key ignored

    def test_all_failures_reported_together(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"problem": {"catalog": "lq"},
                          "solver": {"n_x": -1, "method": "magic"},
                          "probes": [[0.0]]})
        joined = "\n".join(info.value.errors)
        assert "solver.n_x" in joined
        assert "solver.method" in joined
        assert "probes[0]" in joined

    def test_explicit_problem_block(self):
        doc = {"problem": {
            "T": 1.0, "x_min": 0.01, "x_max": 4.0, "u_min": 0.0,
            "u_max": 0.0, "n_u": 1, "gamma": {"lo": 0.5, "hi": 1.0},
            "b": "0", "h": "0", "sigma": "x", "f": "0", "g": "0",
            "phi": "pos(x-1)"}}
        problem, name, oracle = resolve_problem(parse_config(doc))
        assert name == "custom" and oracle == "none"
        assert problem.x_max == 4.0

    def test_roundtrip_reload_equal(self, tmp_path):
        doc = {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "both", "n_x": 120, "K": 60, "n_q": 3,
                       "cfl_theta": 0.8},
            "validate": {"oracles": ["auto"], "tolerance": 0.02,
                         "agreement": 0.05},
            "simulate": {"n_paths": 2000, "seed": 5, "q_profile": [1.0],
                         "u_policy": "0"},
            "table": {"n_x_list": [50, 100]},
            "output": {"dir": "artifacts", "formats": ["csv", "json"]},
            "probes": [[0.0, 1.0]],
        }
        cfg = load_config(write_cfg(tmp_path, doc))
        again = parse_config(config_to_dict(cfg))
        assert again == cfg

    def test_json_parse_error_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "line" in str(info.value)


class TestWorkers:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("GROBUST_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("GROBUST_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.delenv("GROBUST_THREADS")
        assert worker_count() >= 1


class TestRun:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 60, "K": 30},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path / "made" / "deep")},
        })
        report = run(cfg, mode="solve")
        assert report.passed
        outdir = tmp_path / "made" / "deep"  # created on demand
        assert (outdir / "bsb-call_lattice.csv").exists()
        summary = json.loads(
            (outdir / "bsb-call_lattice_summary.json").read_text())
        assert summary["n_x"] == 60
        assert summary["V_at_probe_points"][0]["x"] == 1.0

    def test_validate_brute_force_tree(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "recursive-g"},
            "solver": {"method": "lattice", "K": 3, "n_x": 20},
            "validate": {"oracles": ["brute-force"], "tolerance": 1e-10},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        report = run(cfg, mode="validate")
        assert report.passed
        text = (tmp_path / "recursive-g_comparison.csv").read_text()
        assert text.splitlines()[0].startswith("t,x,lattice")

    def test_oracle_mode(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "lq"},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        report = run(cfg, mode="oracle")
        assert report.passed
        doc = json.loads((tmp_path / "lq_oracle.json").read_text())
        assert doc["method"] == "riccati"
        assert doc["points"][0]["value"] == pytest.approx(
            0.5 + np.log(2.0), abs=1e-12)

    def test_simulate_mode(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 40, "K": 40},
            "simulate": {"n_paths": 1000, "seed": 3, "q_profile": [1.0],
                         "u_policy": "0"},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        report = run(cfg, mode="simulate")
        assert report.passed
        doc = json.loads((tmp_path / "bsb-call_mc.json").read_text())
        assert doc["n_paths"] == 1000 and doc["stderr"] > 0

    def test_table_mode_with_rates(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 50, "K": 25},
            "table": {"n_x_list": [50, 100]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        report = run(cfg, mode="table")
        assert report.passed
        lines = (tmp_path / "bsb-call_convergence.csv").read_text().splitlines()
        assert lines[0].startswith("n_x,K")
        assert len(lines) == 3
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[-1] == ""      # no rate for the first resolution
        assert second[-1] != ""     # fitted rate present

    def test_validate_both_with_oracle_exits_zero(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "both", "n_x": 200, "K": 200},
            "validate": {"oracles": ["auto"], "tolerance": 0.02,
                         "agreement": 0.05},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        report = run(cfg, mode="validate")
        assert report.passed, report.messages
        text = (tmp_path / "bsb-call_comparison.csv").read_text()
        row = text.splitlines()[1].split(",")
        assert all(cell != "" for cell in row)  # every column populated

    def test_validate_computes_the_cfl_bound_once(self, tmp_path, monkeypatch):
        from grobust import hjb
        calls = []
        real = hjb.cfl_max_dt
        monkeypatch.setattr(hjb, "cfl_max_dt",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "hjb", "n_x": 40, "K": 20},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="validate")
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["bsb-call", "lq", "recursive-g"])
    def test_validate_probes_lipschitz_once(self, name, tmp_path,
                                            monkeypatch):
        # the problem's construction probe is the only one; the CFL bound
        # and the lattice stability margin read its report
        from grobust import problem
        calls = []
        real = problem.lipschitz_probe
        monkeypatch.setattr(problem, "lipschitz_probe",
                            lambda p, **kw: calls.append(p) or real(p, **kw))
        cfg = parse_config({
            "problem": {"catalog": name},
            "solver": {"method": "both", "n_x": 24, "K": 12},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="validate")
        assert len(calls) == 1

    def test_three_resolution_table_shrinks_monotonically(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 100, "K": 100},
            "table": {"n_x_list": [100, 200, 400]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="table")
        import csv
        with open(tmp_path / "bsb-call_convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        diffs = [float(r["diff_to_oracle"]) for r in rows]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_single_resolution_table_has_empty_rate(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 50, "K": 25},
            "table": {"n_x_list": [50]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="table")
        lines = (tmp_path / "bsb-call_convergence.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[-1] == ""


class TestDeterminism:
    def test_identical_runs_byte_identical_value_artifacts(self, tmp_path):
        doc = {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 50, "K": 25},
            "validate": {"oracles": ["auto"], "tolerance": 0.05},
            "probes": [[0.0, 1.0]],
        }
        outs = []
        for sub in ("a", "b"):
            cfg = parse_config(doc)
            run(cfg, mode="validate", out_dir=str(tmp_path / sub))
            outs.append(tmp_path / sub)
        for fname in ("bsb-call_lattice.csv", "bsb-call_comparison.csv",
                      "bsb-call_oracle.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        # summaries agree except for the wall-clock entry
        s0 = json.loads((outs[0] / "bsb-call_lattice_summary.json").read_text())
        s1 = json.loads((outs[1] / "bsb-call_lattice_summary.json").read_text())
        s0.pop("wall_time"), s1.pop("wall_time")
        assert s0 == s1

    def test_simulate_byte_identical(self, tmp_path):
        doc = {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 40, "K": 40},
            "simulate": {"n_paths": 1000, "seed": 9, "q_profile": [0.75],
                         "u_policy": "0"},
            "probes": [[0.0, 1.0]],
        }
        blobs = []
        for sub in ("a", "b"):
            run(parse_config(doc), mode="simulate", out_dir=str(tmp_path / sub))
            blobs.append((tmp_path / sub / "bsb-call_mc.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestMainEntry:
    def test_validate_exit_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 100, "K": 100},
            "validate": {"oracles": ["auto"], "tolerance": 0.02},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_probe_flag_overrides(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 60, "K": 30},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", path, "--probe", "0.0,2.0"]) == 0
        summary = json.loads(
            (tmp_path / "out" / "bsb-call_lattice_summary.json").read_text())
        assert summary["V_at_probe_points"][0]["x"] == 2.0

    def test_failing_tolerance_exit_one(self, tmp_path):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 40, "K": 20},
            "validate": {"oracles": ["auto"], "tolerance": 1e-9},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path]) == 1

    def test_error_emits_structured_json(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"problem": {"catalog": "lq"},
                                    "solver": {"nx": 3}})
        code = main(["solve", "--config", path])
        assert code == 2
        err = capsys.readouterr().err
        doc = json.loads(err)
        assert doc["error"] == "ConfigError"
        assert "solver.nx" in doc["message"]

    def test_no_strict_accepts_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 40, "K": 20, "nx": 9},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", path, "--no-strict"]) == 0


def test_emit_convergence_table_roundtrips_through_csv():
    import csv
    import io
    rows = [
        {"n_x": 100, "K": 50, "probe_t": 0.0, "probe_x": 1.0,
         "lattice": 0.39, "hjb": None, "oracle": 0.3829,
         "diff_to_oracle": 0.0071, "diff_lattice_vs_hjb": None},
        {"n_x": 200, "K": 100, "probe_t": 0.0, "probe_x": 1.0,
         "lattice": 0.385, "hjb": None, "oracle": 0.3829,
         "diff_to_oracle": 0.0021, "diff_lattice_vs_hjb": None},
    ]
    buf = io.StringIO()
    emit_convergence_table(rows, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == 2
    assert float(parsed[1]["rate"]) > 0  # error shrank, positive fitted rate
    assert parsed[0]["rate"] == ""
