"""Configuration loading, CLI subcommands, artifact determinism."""

import json
import math

import numpy as np
import pytest

from grobust.cli import emit_convergence_table, main, run
from grobust.config import (ConfigError, load_config, parse_config,
                            resolve_problem)
from grobust.grids import Grid1D, write_field_csv
from grobust.hjb import CFL_THETA, solve_hjb
from grobust.lattice import solve_dpp
from grobust.problem import catalog_entry

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
            "solver": {"method": "both", "n_x": 120, "K": 60, "n_u": 3},
            "validate": {"oracles": ["auto"], "tolerance": 0.02,
                         "agreement": 0.05},
            "simulate": {"n_paths": 2000, "seed": 5, "q_profile": [1.0],
                         "u_policy": "0"},
            "table": {"n_x_list": [50, 100]},
            "output": {"dir": "artifacts", "formats": ["csv", "json"]},
            "probes": [[0.0, 1.0]],
        }
        cfg = load_config(write_cfg(tmp_path, doc))
        assert cfg.problem.catalog == "bsb-call"
        assert (cfg.solver.method, cfg.solver.n_x, cfg.solver.K,
                cfg.solver.n_u) == ("both", 120, 60, 3)
        assert cfg.validate.oracles == ("auto",)
        assert (cfg.validate.tolerance, cfg.validate.agreement) == (0.02, 0.05)
        assert (cfg.simulate.n_paths, cfg.simulate.seed, cfg.simulate.q_profile,
                cfg.simulate.u_policy) == (2000, 5, (1.0,), "0")
        assert cfg.table.n_x_list == (50, 100)
        assert (cfg.output.dir, cfg.output.formats) == ("artifacts",
                                                        ("csv", "json"))
        assert cfg.probes == ((0.0, 1.0),)

    def test_non_finite_json_number_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"problem": {"catalog": "lq"}, '
                        '"validate": {"tolerance": Infinity}}')
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.errors == (
            "validate.tolerance: must be finite, got inf",)

    def test_json_parse_error_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "line" in str(info.value)


LQ = {"catalog": "lq"}
CUSTOM = {"T": 1.0, "x_min": 0.01, "x_max": 4.0, "u_min": 0.0, "u_max": 0.0,
          "n_u": 1, "gamma": {"lo": 0.5, "hi": 1.0}, "b": "0", "h": "0",
          "sigma": "x", "f": "0", "g": "0", "phi": "pos(x-1)"}
_REQUIRED = "required when no catalog name given"
_NO_PROFILE = ("simulate.q_profile: required, a nonempty list of scenario "
               "levels")

# malformed documents and the full error list each one gets
MALFORMED = [
    ([1], ["top level must be a JSON object"]),
    ({"problem": LQ, "solver": {"n_x": 0}},
     ["solver.n_x: must be positive, got 0"]),
    ({"problem": LQ, "solver": {"nx": 100}}, ["unknown key 'solver.nx'"]),
    ({"problem": LQ, "solver": {"n_x": -1, "method": "magic"}},
     ["solver.method: must be one of ['both', 'hjb', 'lattice'], got 'magic'",
      "solver.n_x: must be positive, got -1"]),
    ({"problem": LQ,
      "solver": {"n_x": 2.5, "cfl_theta": 1.5, "K": "a"}},
     ["unknown key 'solver.cfl_theta'",
      "solver.n_x: must be an integer, got 2.5",
      "solver.K: must be a number, got 'a'"]),
    ({"problem": LQ, "validate": {"oracles": "auto"}},
     ["validate.oracles: must be a list of strings"]),
    ({"problem": LQ, "validate": {"tolerance": -1}},
     ["validate.tolerance: must be positive, got -1"]),
    ({"problem": LQ, "simulate": {"q_profile": "high"}},
     ["simulate.q_profile: must be a list of numbers"]),
    ({"problem": LQ, "simulate": {"n_paths": 0, "q_profile": [1.0]}},
     ["simulate.n_paths: must be positive, got 0"]),
    ({"problem": LQ, "simulate": {"u_policy": 3, "q_profile": [1.0]}},
     ["simulate.u_policy: must be a string, got 3"]),
    ({"problem": LQ, "table": {"n_x_list": [2, 5]}},
     ["table.n_x_list: must be a list of integers > 2"]),
    # a repeated resolution has no convergence rate between its rows
    ({"problem": LQ, "table": {"n_x_list": [40, 80, 40]}},
     ["table.n_x_list: resolutions must be distinct, got [40, 80, 40]"]),
    ({"problem": LQ, "output": {"formats": ["xml"]}},
     ["output.formats: entries must be 'csv' or 'json'"]),
    ({"problem": LQ, "output": {"dir": 1}},
     ["output.dir: must be a string, got 1"]),
    ({"problem": LQ, "probes": "x"},
     ["probes: must be a list of [t, x] pairs"]),
    ({"problem": LQ, "probes": [[0.0]]}, ["probes[0]: must be a [t, x] pair"]),
    ({"problem": LQ, "solver": 3, "validate": [], "simulate": "x",
      "table": 1, "output": None, "extra": 1},
     ["unknown key 'extra'", "solver: must be an object",
      "validate: must be an object", "simulate: must be an object",
      "table: must be an object", "output: must be an object"]),
    ({"problem": {}},
     [f"problem.{k}: {_REQUIRED}"
      for k in ("T", "x_min", "x_max", "gamma", "sigma", "phi")]),
    ({"solver": {"n_x": 10}},
     ["problem: required block"]
     + [f"problem.{k}: {_REQUIRED}"
        for k in ("T", "x_min", "x_max", "gamma", "sigma", "phi")]),
    ({"problem": dict(CUSTOM, gamma={"lo": -0.5, "hi": 1.0, "mid": 0.7})},
     ["unknown key 'problem.gamma.mid'",
      "problem.gamma.lo: must be positive, got -0.5"]),
    ({"problem": dict(CUSTOM, gamma=[0.5, 1.0])},
     ["problem.gamma: must be an object"]),
    ({"problem": dict(CUSTOM, b=1, n_u=0.5)},
     ["problem.n_u: must be an integer, got 0.5",
      "problem.b: must be a string, got 1"]),
    # gamma must describe a volatility set, checked by the set itself
    ({"problem": dict(CUSTOM, gamma={"lo": 1.0, "hi": 0.5}),
      "solver": {"n_x": 0}},
     ["solver.n_x: must be positive, got 0",
      "problem.gamma: need 0 < sigma_lo <= sigma_hi, got [1.0, 0.5] "
      "(degenerate volatility sets are rejected)"]),
    ({"problem": dict(CUSTOM, gamma={"lo": 0, "hi": 0.5})},
     ["problem.gamma.lo: must be positive, got 0"]),
    # the volatility set is an interval: a scenario list names no set
    ({"problem": dict(CUSTOM, gamma={"matrices": [[[0.5]], [[1.0]]]})},
     ["unknown key 'problem.gamma.matrices'", "problem.gamma: needs lo and hi"]),
    ({"problem": dict(CUSTOM, gamma={"lo": 0.5})},
     ["problem.gamma: needs lo and hi"]),
    # a catalog problem takes its coefficients from the catalog only
    ({"problem": {"catalog": "lq", "sigma": "2", "T": 5}},
     ["problem.sigma: not allowed beside catalog",
      "problem.T: not allowed beside catalog"]),
    # beside an interval, a scenario list is refused, not ignored
    ({"problem": dict(CUSTOM, gamma={"lo": 0.5, "hi": 1.0,
                                     "matrices": [[[2.0]]]})},
     ["unknown key 'problem.gamma.matrices'"]),
    # json.load reads Infinity and NaN; no number may be non-finite
    ({"problem": LQ, "validate": {"tolerance": math.inf}},
     ["validate.tolerance: must be finite, got inf"]),
    ({"problem": LQ, "solver": {"cfl_theta": math.inf},
      "simulate": {"q_profile": [math.nan]}, "probes": [[0.0, math.inf]]},
     ["unknown key 'solver.cfl_theta'",
      "simulate.q_profile: must be a list of numbers",
      "probes[0]: must be a [t, x] pair"]),
    ({"problem": dict(CUSTOM, T=math.inf, x_max=math.nan, u_max=-math.inf,
                      gamma={"lo": 0.5, "hi": math.inf})},
     ["problem.T: must be finite, got inf",
      "problem.x_max: must be finite, got nan",
      "problem.u_max: must be finite, got -inf",
      "problem.gamma.hi: must be finite, got inf"]),
    ({"problem": dict(CUSTOM, n_u=0)}, ["problem.n_u: must be positive, got 0"]),
    # an integer beyond the float range is no finite number either
    ({"problem": LQ, "solver": {"n_x": 2 ** 1024}, "probes": [[0, 2 ** 1024]]},
     [f"solver.n_x: must be finite, got {2 ** 1024}",
      "probes[0]: must be a [t, x] pair"]),
    # the HJB's rows are K's; it takes no step size of its own
    ({"problem": LQ, "solver": {"dt": 0.01}}, ["unknown key 'solver.dt'"]),
    # the volatility set alone picks the lattice's scenarios
    ({"problem": LQ, "solver": {"n_q": 3}}, ["unknown key 'solver.n_q'"]),
    # mc_lower_bound's own checks, made at parse time: no q_profile (the
    # default, empty) can run, nor fewer than 1000 paths
    ({"problem": LQ, "simulate": {"n_paths": 2000}}, [_NO_PROFILE]),
    ({"problem": LQ, "simulate": {"q_profile": []}}, [_NO_PROFILE]),
    ({"problem": LQ, "simulate": {"n_paths": 500, "q_profile": [1.0]}},
     ["simulate.n_paths: must be >= 1000"]),
    ({"problem": LQ, "simulate": {"n_paths": 500}},
     ["simulate.n_paths: must be >= 1000", _NO_PROFILE]),
]


@pytest.mark.parametrize("doc,errors", MALFORMED)
def test_malformed_document_errors(doc, errors):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert list(info.value.errors) == errors


@pytest.mark.parametrize("doc,error", [
    # booleans are not numbers, also inside lists
    ({"problem": LQ, "probes": [[True, 0.5]]},
     "probes[0]: must be a [t, x] pair"),
    ({"problem": LQ, "simulate": {"q_profile": [True]}},
     "simulate.q_profile: must be a list of numbers"),
    # a Philox key word of the Monte Carlo streams holds 64 bits
    ({"problem": LQ, "simulate": {"seed": -1, "q_profile": [1.0]}},
     "simulate.seed: must be >= 0"),
    ({"problem": LQ, "simulate": {"seed": 2 ** 64, "q_profile": [1.0]}},
     f"simulate.seed: must be <= {2 ** 64 - 1}"),
    ({"problem": LQ, "validate": {"oracles": ["foo"]}},
     "validate.oracles: unknown tag 'foo', expected one of ['auto', 'none', "
     "'brute-force', 'bsb-convex', 'bsb-concave', 'lq-riccati']"),
])
def test_input_defects_rejected_at_parse(doc, error):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert list(info.value.errors) == [error]


def test_explicit_problem_without_gamma_collected_with_other_errors():
    doc = {"problem": {k: v for k, v in CUSTOM.items() if k != "gamma"},
           "solver": {"n_x": 0}}
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert list(info.value.errors) == [f"problem.gamma: {_REQUIRED}",
                                       "solver.n_x: must be positive, got 0"]


def test_control_interval_without_n_u_collected_with_other_errors():
    # one control would sample u in [-4, 4] at u = -4 only
    doc = {"problem": dict({k: v for k, v in CUSTOM.items() if k != "n_u"},
                           u_min=-4.0, u_max=4.0),
           "solver": {"n_x": 0}}
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert list(info.value.errors) == [
        "solver.n_x: must be positive, got 0",
        "problem.n_u: required when u_min < u_max and no solver.n_u is given"]


@pytest.mark.parametrize("bounds,error", [
    ({"x_min": 4.0, "x_max": 0.01},
     "problem.x_min: need x_min < x_max, got [4.0, 0.01]"),
    ({"x_min": 1.0, "x_max": 1.0},
     "problem.x_min: need x_min < x_max, got [1.0, 1.0]"),
    ({"u_min": 1.0, "u_max": 0.0},
     "problem.u_min: need u_min <= u_max, got [1.0, 0.0]")])
def test_empty_box_or_control_interval_collected_with_other_errors(
        bounds, error):
    # the problem would reject them, but only after every other check
    with pytest.raises(ConfigError) as info:
        parse_config({"problem": dict(CUSTOM, **bounds),
                      "solver": {"n_x": 0}})
    assert list(info.value.errors) == ["solver.n_x: must be positive, got 0",
                                       error]


def test_bound_that_failed_its_rule_is_reported_once():
    with pytest.raises(ConfigError) as info:
        parse_config({"problem": dict(CUSTOM, u_min=1.0, u_max="a")})
    assert list(info.value.errors) == ["problem.u_max: must be a number, "
                                       "got 'a'"]


@pytest.mark.parametrize("extra,solver,n_u", [
    ({"n_u": 81}, {}, 81), ({}, {"n_u": 81}, 1),
    ({"u_max": 0.0}, {}, 1)])
def test_control_count_given_or_not_needed(extra, solver, n_u):
    block = dict({k: v for k, v in CUSTOM.items() if k != "n_u"},
                 u_min=0.0, u_max=4.0)
    cfg = parse_config({"problem": dict(block, **extra),
                        "solver": solver})
    assert resolve_problem(cfg)[0].n_u == n_u


def test_largest_seed_accepted():
    cfg = parse_config({"problem": LQ, "simulate": {"seed": 2 ** 64 - 1,
                                                     "q_profile": [1.0]}})
    assert cfg.simulate.seed == 2 ** 64 - 1


@pytest.mark.parametrize("gamma,tag", [
    ({"lo": 0.5, "hi": 1.0}, "bsb-convex")])
def test_explicit_problem_roundtrip(gamma, tag):
    cfg = parse_config({"problem": dict(CUSTOM, gamma=gamma),
                        "validate": {"oracles": [tag]}})
    problem, name, oracle = resolve_problem(cfg)
    assert (name, oracle) == ("custom", tag)


def test_readme_example_parses():
    import pathlib
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    example = text.split("## Command line")[1].split("```json")[1]
    cfg = parse_config(json.loads(example.split("```")[0]))
    assert cfg.problem.catalog == "bsb-call" and cfg.solver.n_x == 400


def test_mismatched_oracle_tag_rejected(tmp_path):
    # sigma = 2x is not the bsb-convex problem, whose closed form has sigma = x
    cfg = parse_config({"problem": dict(CUSTOM, sigma="2*x"),
                        "validate": {"oracles": ["bsb-convex"]},
                        "output": {"dir": str(tmp_path)}})
    with pytest.raises(ConfigError) as info:
        run(cfg, mode="oracle")
    assert info.value.errors[0].startswith("validate.oracles:")
    assert not list(tmp_path.iterdir())


# validate.oracles reads the same for both kinds of problem: the last
# closed-form tag, else "none" if listed, else the catalog entry's own tag
@pytest.mark.parametrize("problem,oracles,tag", [
    (LQ, ["auto"], "lq-riccati"),  # the benchmark's two lists
    ({"catalog": "bsb-call"}, ["brute-force"], "bsb-convex"),
    ({"catalog": "recursive-g"}, ["brute-force"], "none"),
    ({"catalog": "bsb-call"}, ["none"], "none"),
    ({"catalog": "bsb-call"}, ["none", "bsb-convex"], "bsb-convex"),
    (CUSTOM, ["brute-force"], "none"),
    (CUSTOM, ["bsb-convex", "brute-force"], "bsb-convex"),
])
def test_oracle_tag_rule(problem, oracles, tag):
    cfg = parse_config({"problem": problem, "validate": {"oracles": oracles}})
    assert resolve_problem(cfg)[2] == tag


def test_catalog_oracle_tag_must_fit_the_entry():
    cfg = parse_config({"problem": {"catalog": "bsb-call"},
                        "validate": {"oracles": ["lq-riccati"]}})
    with pytest.raises(ConfigError) as info:
        resolve_problem(cfg)
    assert info.value.errors[0].startswith("validate.oracles:")


LQ_EXPLICIT = {"T": 1.0, "x_min": -2.0, "x_max": 2.0, "u_min": -4.0,
               "u_max": 4.0, "n_u": 81, "gamma": {"lo": 1.0, "hi": 1.0},
               "b": "u", "sigma": "1", "f": "u^2", "phi": "x^2"}


# the Riccati closed form prices sigma = 1 with the feedback -x/(1+T-t)
# inside the control box; else its column reads 0.693 at (0, 0), where the
# solvers give about 2.6 (sigma 2) or 0.9 (u in [-0.1, 0.1])
@pytest.mark.parametrize("change,fits", [
    ({}, True), ({"u_min": -2.0, "u_max": 2.0}, True),
    ({"sigma": "2"}, False), ({"u_min": -0.1, "u_max": 0.1}, False)],
    ids=["as-catalog", "u-box-2", "sigma-2", "u-box-0.1"])
def test_lq_riccati_tag_must_fit_the_explicit_problem(change, fits):
    cfg = parse_config({"problem": dict(LQ_EXPLICIT, **change),
                        "validate": {"oracles": ["lq-riccati"]}})
    if fits:
        assert resolve_problem(cfg)[2] == "lq-riccati"
        return
    with pytest.raises(ConfigError) as info:
        resolve_problem(cfg)
    assert info.value.errors[0].startswith("validate.oracles:")


def test_catalog_problem_without_oracle(tmp_path):
    cfg = parse_config({"problem": {"catalog": "bsb-call"},
                        "solver": {"method": "lattice", "n_x": 24, "K": 12},
                        "validate": {"oracles": ["none"]},
                        "probes": [[0.0, 1.0]],
                        "output": {"dir": str(tmp_path)}})
    report = run(cfg, mode="validate")
    assert report.passed and len(report.messages) == 1  # no gate applies
    assert not (tmp_path / "bsb-call_oracle.json").exists()
    row = (tmp_path / "bsb-call_comparison.csv").read_text().splitlines()[1]
    assert row.split(",")[2:] == [row.split(",")[2], "", "", "", "", ""]


class TestExplicitBruteForce:
    """An explicit problem listing only brute-force has no closed form."""

    def cfg(self, tmp_path):
        return parse_config({
            "problem": CUSTOM,
            "solver": {"method": "lattice", "n_x": 24, "K": 2},
            "validate": {"oracles": ["brute-force"], "tolerance": 1e-10},
            "table": {"n_x_list": [24, 48]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)}})

    def test_oracle_mode_has_no_tag(self, tmp_path):
        report = run(self.cfg(tmp_path), mode="oracle")
        assert not report.passed
        assert report.messages == ("no oracle tag configured",)

    def test_table_mode_leaves_the_oracle_columns_blank(self, tmp_path):
        assert run(self.cfg(tmp_path), mode="table").passed
        lines = (tmp_path / "custom_convergence.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4] != "" and cells[6:8] == ["", ""]

    def test_validate_compares_the_tree_with_brute_force(self, tmp_path):
        report = run(self.cfg(tmp_path), mode="validate")
        assert report.passed
        assert report.messages == (
            "PASS diff_lattice_oracle at (t=0.0, x=1.0): 0 (bound 1e-10)",)
        assert report.artifacts == (str(tmp_path / "custom_comparison.csv"),)
        row = (tmp_path / "custom_comparison.csv").read_text().splitlines()[1]
        t, x, tree, hjb, bf, diff, _, _ = row.split(",")
        assert tree == bf != "" and hjb == "" and float(diff) == 0.0


def test_unknown_mode_rejected(tmp_path):
    cfg = parse_config({"problem": {"catalog": "bsb-call"},
                        "solver": {"method": "lattice", "n_x": 20, "K": 10},
                        "output": {"dir": str(tmp_path / "out")}})
    with pytest.raises(ValueError, match="'bogus'"):
        run(cfg, mode="bogus")
    assert not (tmp_path / "out").exists()

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

    def test_summaries_are_the_solve_records(self, tmp_path):
        # each method's summary: the problem, n_x, K, the fields its record
        # sets, the wall time and the probe values; no other key
        cfg = parse_config({
            "problem": {"catalog": "lq"},
            "solver": {"method": "both", "n_x": 40, "K": 20, "n_u": 5},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path), "formats": ["json"]},
        })
        assert run(cfg, mode="solve").passed
        p = catalog_entry("lq").problem
        grid = Grid1D.for_problem(p, 40)
        lat = solve_dpp(p, grid, 20, n_u=5).solve
        hjb = solve_hjb(p, grid, 20, n_u=5).solve
        expected = {
            "lattice": {"method": "lattice", "n_u": 5, "dt": lat.dt},
            "hjb": {"method": "hjb", "n_u": 5, "dt": hjb.dt,
                    "substeps_per_row": hjb.substeps_per_row,
                    "cfl_bound": hjb.cfl_bound},
        }
        assert lat.dt == 0.05 and hjb.substeps_per_row > 1
        for method, record in expected.items():
            summary = json.loads(
                (tmp_path / f"lq_{method}_summary.json").read_text())
            wall = summary.pop("wall_time")
            (point,) = summary.pop("V_at_probe_points")
            assert wall > 0.0 and (point["t"], point["x"]) == (0.0, 1.0)
            assert summary == {"problem": "lq", "n_x": 40, "K": 20, **record}

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
        assert report.artifacts == (str(tmp_path / "bsb-call_mc.json"),)
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

    def test_table_solves_its_resolutions_in_order_in_one_thread(
            self, tmp_path, monkeypatch):
        import threading
        from grobust import cli
        solved = []
        real = cli._solve_one
        monkeypatch.setattr(cli, "_solve_one", lambda *a: solved.append(
            (a[3], a[4], threading.get_ident())) or real(*a))
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "both", "n_x": 20, "K": 10},
            "table": {"n_x_list": [30, 20]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        assert run(cfg, mode="table").passed
        me = threading.get_ident()
        assert solved == [("lattice", 30, me), ("hjb", 30, me),
                          ("lattice", 20, me), ("hjb", 20, me)]

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

    def test_validate_both_defaults_k_to_n_x(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "both", "n_x": 30},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="validate")
        problem = catalog_entry("bsb-call").problem
        grid = Grid1D.for_problem(problem, 30)
        for method, solve in (("lattice", solve_dpp), ("hjb", solve_hjb)):
            # the CLI's field is the in-process solve at n_x = K = 30
            write_field_csv(solve(problem, grid, 30), tmp_path / "own.csv")
            assert ((tmp_path / f"bsb-call_{method}.csv").read_bytes()
                    == (tmp_path / "own.csv").read_bytes())
            summary = json.loads(
                (tmp_path / f"bsb-call_{method}_summary.json").read_text())
            assert summary["K"] == 30

    def test_cfl_theta_reaches_the_scheme(self, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "hjb", "n_x": 40, "K": 20},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="solve")
        summary = json.loads(
            (tmp_path / "bsb-call_hjb_summary.json").read_text())
        assert summary["dt"] <= CFL_THETA * summary["cfl_bound"]
        assert summary["substeps_per_row"] > 1

    def test_unbounded_cfl_bound_is_null_in_strict_json(self, tmp_path):
        # sigma = 1e-160 squares to a subnormal: the CFL bound's denominator
        # underflows, the bound is inf and the summary must still be JSON
        cfg = parse_config({
            "problem": {"T": 1.0, "x_min": -2.0, "x_max": 2.0,
                        "gamma": {"lo": 0.5, "hi": 1.0},
                        "sigma": "1e-160", "phi": "abs(x)"},
            "solver": {"method": "hjb", "n_x": 50, "K": 10},
            "probes": [[0.0, 0.0]],
            "output": {"dir": str(tmp_path)},
        })
        assert run(cfg, mode="solve").passed

        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        summary = json.loads(
            (tmp_path / "custom_hjb_summary.json").read_text(),
            parse_constant=refuse)
        assert summary["cfl_bound"] is None
        assert summary["substeps_per_row"] == 1

    def test_validate_computes_the_cfl_bound_once(self, tmp_path, monkeypatch):
        # from the one coefficient grid that the march also uses
        from grobust import cli, hjb
        calls, grids = [], []
        real = hjb.cfl_max_dt
        monkeypatch.setattr(hjb, "cfl_max_dt",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        real_grid = cli.CoefficientGrid
        monkeypatch.setattr(cli, "CoefficientGrid", lambda *a, **kw:
                            grids.append(a) or real_grid(*a, **kw))
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "hjb", "n_x": 40, "K": 20},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="validate")
        assert len(calls) == 1 and len(grids) == 1

    def test_validate_evaluates_each_oracle_probe_once(self, tmp_path,
                                                      monkeypatch):
        # the oracle artifact takes its points from the comparison rows
        from grobust import cli
        calls = []
        real = cli.oracle_probe_value
        monkeypatch.setattr(cli, "oracle_probe_value",
                            lambda *a: calls.append(a[2:]) or real(*a))
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "lattice", "n_x": 24, "K": 12},
            "probes": [[0.0, 1.0], [0.5, 1.5]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="validate")
        assert calls == [(0.0, 1.0), (0.5, 1.5)]
        points = json.loads((tmp_path / "bsb-call_oracle.json").read_text())
        assert [(p["t"], p["x"]) for p in points["points"]] == calls

    @pytest.mark.parametrize("name", ["bsb-call", "lq", "recursive-g"])
    def test_validate_probes_lipschitz_once(self, name, tmp_path,
                                            monkeypatch):
        # the problem's construction probe is the only one; the CFL bound
        # and the lattice stability margin read its report
        from grobust import problem
        calls = []
        real = problem.lipschitz_probe
        monkeypatch.setattr(problem, "lipschitz_probe",
                            lambda p: calls.append(p) or real(p))
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

    @pytest.mark.parametrize("method", ["hjb", "both"])
    def test_table_gap_columns(self, method, tmp_path):
        cfg = parse_config({
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": method, "n_x": 20, "K": 10},
            "table": {"n_x_list": [20, 30]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path)},
        })
        run(cfg, mode="table")
        import csv
        with open(tmp_path / "bsb-call_convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        primary = "lattice" if method == "both" else "hjb"
        for r in rows:
            assert float(r["diff_to_oracle"]) == abs(
                float(r[primary]) - float(r["oracle"]))
            assert (r["diff_lattice_vs_hjb"] != "") == (method == "both")

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

    def test_oracle_probe_outside_the_horizon_fails(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["oracle", "--config", path, "--probe", "1.5,1.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValueError"
        assert "outside the horizon" in doc["message"]
        assert not (tmp_path / "out" / "bsb-call_oracle.json").exists()

    def test_oracle_probe_outside_the_state_box_fails(self, tmp_path,
                                                      capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["oracle", "--config", path, "--probe", "0.0,9.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValueError"
        assert "outside the state box" in doc["message"]
        assert not (tmp_path / "out" / "bsb-call_oracle.json").exists()

    def test_brute_force_probe_off_t_zero_fails(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "recursive-g"},
            "solver": {"K": 3},
            "validate": {"oracles": ["brute-force"]},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path, "--probe", "0.5,1.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["message"] == "brute-force oracle probes must sit at t = 0"

    def test_simulate_probe_outside_the_state_box_fails(self, tmp_path,
                                                        capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "simulate": {"n_paths": 1000, "seed": 1, "q_profile": [1.0]},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", path, "--probe", "0.0,9.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert "outside the state box" in doc["message"]
        assert not list((tmp_path / "out").glob("*"))

    def test_simulate_probe_off_t_zero_fails(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "simulate": {"n_paths": 1000, "seed": 1, "q_profile": [1.0]},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", path, "--probe", "0.5,1.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["message"] == "simulate probes must sit at t = 0"
        assert not list((tmp_path / "out").glob("*"))

    def test_simulate_takes_one_probe(self, tmp_path, capsys, monkeypatch):
        from grobust import cli
        calls = []
        monkeypatch.setattr(cli, "mc_lower_bound",
                            lambda *a, **kw: calls.append(a))
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "simulate": {"n_paths": 1000, "seed": 1, "q_profile": [1.0]},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", path, "--probe", "0,1",
                     "--probe", "0,2"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["message"] == "simulate takes one probe, got 2"
        assert calls == []
        assert not list((tmp_path / "out").glob("*"))

    def test_brute_force_probe_outside_the_state_box_fails(self, tmp_path,
                                                           capsys):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"K": 3},
            "validate": {"oracles": ["brute-force"]},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path, "--probe", "0.0,9.0"]) == 2
        captured = capsys.readouterr()
        assert "outside the state box" in json.loads(captured.err)["message"]
        assert "PASS" not in captured.out

    def test_control_interval_without_n_u_exits_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {
            "problem": {"T": 1.0, "x_min": -2.0, "x_max": 2.0,
                        "u_min": -4.0, "u_max": 4.0,
                        "gamma": {"lo": 1.0, "hi": 1.0}, "b": "u",
                        "sigma": "1", "f": "u^2", "phi": "x^2"},
            "solver": {"n_x": 80, "K": 80},
            "probes": [[0.0, 0.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", path]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ConfigError"
        assert "problem.n_u: required when u_min < u_max" in doc["message"]
        assert not (tmp_path / "out").exists()

    def test_brute_force_size_refused_before_any_solve(self, tmp_path, capsys,
                                                       monkeypatch):
        # depth 4 over three controls: 3^15 x 2^15 assignments, past the cap
        from grobust import cli
        trees = []
        monkeypatch.setattr(cli, "solve_dpp_tree",
                            lambda *a, **kw: trees.append(a) or 0.0)
        path = write_cfg(tmp_path, {
            "problem": {"T": 0.7, "x_min": 0.01, "x_max": 4.0,
                        "u_min": -1.0, "u_max": 1.0, "n_u": 3,
                        "gamma": {"lo": 0.5, "hi": 1.0},
                        "b": "0.2*x - 0.1*u", "sigma": "1.3 + 0.1*x",
                        "phi": "pos(x-1)"},
            "solver": {"K": 4},
            "validate": {"oracles": ["brute-force"]},
            "probes": [[0.0, 0.9]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(
            "enumeration of 14348907 x 32768 adapted assignments exceeds")
        assert trees == []
        assert not list((tmp_path / "out").glob("*"))

    # brute force runs at solver.K (default 3) over solver.n_u (default the
    # problem's): lq once passed on 3 of its 81 controls, and recursive-g
    # at depth 4 for K = 5
    @pytest.mark.parametrize("problem,solver,message", [
        ({"catalog": "lq"}, {}, "enumeration of 22876792454961 x 1 "),
        ({"catalog": "recursive-g"}, {"K": 5},
         "enumeration of 1 x 2147483648 ")], ids=["lq-n_u", "rg-K"])
    def test_brute_force_runs_as_configured_or_not_at_all(
            self, tmp_path, capsys, problem, solver, message):
        path = write_cfg(tmp_path, {
            "problem": problem, "solver": solver,
            "validate": {"oracles": ["brute-force"]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(message + "adapted assignments "
                                         "exceeds the cap")
        assert not list((tmp_path / "out").glob("*"))

    def test_simulate_nonfinite_node_value_exits_two(self, tmp_path, capsys):
        # f = 0/0 at the start state x = 1: no NaN mean is written
        path = write_cfg(tmp_path, {
            "problem": dict(CUSTOM, f="(x-1)/(x-1)"),
            "solver": {"K": 4},
            "simulate": {"n_paths": 1000, "seed": 1, "q_profile": [1.0]},
            "probes": [[0.0, 1.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", path]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "ValueError",
                       "message": "non-finite node value"}
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_warnings_join_the_structured_error(self, tmp_path, capsys):
        # exp(5 x) overflows on paths with sigma = 100: stderr holds one
        # JSON object, the overflow warning inside it
        path = write_cfg(tmp_path, {
            "problem": dict(CUSTOM, x_min=-1.0, x_max=1.0, sigma="100",
                            phi="exp(5*x)"),
            "simulate": {"n_paths": 1000, "q_profile": [1.0]},
            "probes": [[0.0, 0.0]],
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", path]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "ValueError",
                       "message": "non-finite node value",
                       "warnings": ["overflow encountered in exp"]}

    def test_warnings_of_a_passing_run_are_shown(self, tmp_path, capsys,
                                                 monkeypatch):
        # as they would be without main: here pytest records them
        from grobust import cli
        from grobust.cli import ExitReport

        def run(*args, **kwargs):
            np.exp(np.array(1e3))
            return ExitReport(True, ("ran",), ())
        monkeypatch.setattr(cli, "run", run)
        path = write_cfg(tmp_path, {"problem": {"catalog": "bsb-call"}})
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            assert main(["solve", "--config", path]) == 0
        assert capsys.readouterr() == ("ran\n", "")

    def test_probe_outside_the_state_box_fails_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        from grobust import cli
        solves = []
        for name in ("solve_dpp", "CoefficientGrid"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, **kw:
                                solves.append(a) or real(*a, **kw))
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "solver": {"method": "both", "n_x": 400, "K": 400},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", "--config", path, "--probe", "0.0,9.0"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert "outside the state box" in doc["message"]
        assert solves == []

    @pytest.mark.parametrize("mode", ["simulate", "table"])
    def test_mode_without_its_block_exits_one(self, tmp_path, capsys, mode):
        path = write_cfg(tmp_path, {
            "problem": {"catalog": "bsb-call"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main([mode, "--config", path]) == 1
        assert capsys.readouterr().out == f"no {mode} block configured\n"

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

    def test_malformed_probe_is_an_argparse_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--config", path, "--probe", "1"])
        assert info.value.code == 2
        assert "probe must be 't,x', got '1'" in capsys.readouterr().err


def test_emit_convergence_table_roundtrips_through_csv():
    import csv
    import io
    rows = [
        {"n_x": 100, "K": 50, "t": 0.0, "x": 1.0,
         "lattice": 0.39, "hjb": None, "oracle": 0.3829,
         "diff_lattice_oracle": 0.0071, "diff_hjb_oracle": None,
         "diff_lattice_hjb": None},
        {"n_x": 200, "K": 100, "t": 0.0, "x": 1.0,
         "lattice": 0.385, "hjb": None, "oracle": 0.3829,
         "diff_lattice_oracle": 0.0021, "diff_hjb_oracle": None,
         "diff_lattice_hjb": None},
    ]
    buf = io.StringIO()
    emit_convergence_table(rows, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == 2
    assert float(parsed[1]["rate"]) > 0  # error shrank, positive fitted rate
    assert parsed[0]["rate"] == ""
