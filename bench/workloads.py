"""The benchmark's workloads: grobust run configurations and their checks.

Each workload is a fixed sequence of ``grobust.cli.run`` calls.  The seed
draws the probe points and the Monte Carlo seeds; the solvers themselves are
deterministic.  Every call comes with a check that reads the artifacts the
call wrote and compares them with closed forms implemented here,
independently of ``grobust.analysis``.  See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import glob
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# catalog parameters the closed forms below assume (see grobust.problem):
# bsb-* are driftless geometric problems on [0.01, 4] with sigma in
# [0.5, 1.0], T = 1 and strike 1; lq has T = 1 and unit volatility.
HORIZON = 1.0
STRIKE = 1.0
SIGMA_HI = 1.0

# the validate block of the grid workloads: |solver - oracle| and
# |lattice - hjb| bounds (grobust's defaults)
TOLERANCE = 0.02
AGREEMENT = 0.05
# |program oracle - independent closed form| allowed on oracle artifacts
ORACLE_AGREEMENT = 1e-9


def _norm_cdf(d: float) -> float:
    return 0.5 * (1.0 + math.erf(d / math.sqrt(2.0)))


def bs_call(t: float, x: float) -> float:
    """Robust value of bsb-call: Black-Scholes call at the high volatility."""
    tau = HORIZON - t
    if tau <= 0.0:
        return max(x - STRIKE, 0.0)
    sd = SIGMA_HI * math.sqrt(tau)
    d1 = (math.log(x / STRIKE) + 0.5 * sd * sd) / sd
    return x * _norm_cdf(d1) - STRIKE * _norm_cdf(d1 - sd)


def lq_value(t: float, x: float) -> float:
    """Riccati closed form of lq: x^2 / (1 + T - t) + ln(1 + T - t)."""
    tau = HORIZON - t
    return x * x / (1.0 + tau) + math.log(1.0 + tau)


@dataclass
class Outcome:
    """What one call's check found."""

    failures: List[str] = field(default_factory=list)
    oracle_errs: List[float] = field(default_factory=list)
    solver_gaps: List[float] = field(default_factory=list)


Check = Callable[[str], Outcome]  # artifact directory -> findings


@dataclass(frozen=True)
class Call:
    label: str   # unique within the workload; also the artifact directory
    mode: str    # grobust.cli.run mode
    doc: Dict    # run configuration; output.dir is set by the runner
    check: Check


def _one(out_dir: str, pattern: str) -> str:
    paths = glob.glob(os.path.join(out_dir, pattern))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out_dir}, "
                                f"found {len(paths)}")
    return paths[0]


def _comparison_rows(out_dir: str) -> List[Dict[str, Optional[float]]]:
    with open(_one(out_dir, "*_comparison.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = lines[0].split(",")
    return [{c: (float(v) if v else None) for c, v in zip(cols, ln.split(","))}
            for ln in lines[1:]]


def check_grid(oracle: Optional[Callable[[float, float], float]]) -> Check:
    """validate with method both: every probe within TOLERANCE / AGREEMENT."""
    def check(out_dir: str) -> Outcome:
        res = Outcome()
        for row in _comparison_rows(out_dir):
            where = f"(t={row['t']:g}, x={row['x']:g})"
            if oracle is not None:
                ref = oracle(row["t"], row["x"])
                if abs(row["oracle"] - ref) > ORACLE_AGREEMENT:
                    res.failures.append(f"program oracle {row['oracle']!r} "
                                        f"!= closed form {ref!r} at {where}")
                for solver in ("lattice", "hjb"):
                    err = abs(row[solver] - ref)
                    res.oracle_errs.append(err)
                    if not err <= TOLERANCE:
                        res.failures.append(f"{solver} off the oracle by "
                                            f"{err:.3g} at {where}")
            gap = abs(row["lattice"] - row["hjb"])
            res.solver_gaps.append(gap)
            if not gap <= AGREEMENT:
                res.failures.append(f"lattice vs hjb gap {gap:.3g} at {where}")
        return res

    return check


def check_brute_force(oracle: Optional[Callable[[float, float], float]]
                      ) -> Check:
    """Tree DPP equals brute force exactly; also its error vs closed form."""
    def check(out_dir: str) -> Outcome:
        res = Outcome()
        for row in _comparison_rows(out_dir):
            if row["lattice"] != row["oracle"]:
                res.failures.append(f"tree {row['lattice']!r} != brute force "
                                    f"{row['oracle']!r} at x={row['x']:g}")
            if oracle is not None:
                res.oracle_errs.append(abs(row["lattice"]
                                           - oracle(row["t"], row["x"])))
        return res

    return check


def check_mc(reference: Callable[[], float]) -> Check:
    """Monte Carlo lower bound: mean - 3 stderr <= the robust value."""
    def check(out_dir: str) -> Outcome:
        res = Outcome()
        with open(_one(out_dir, "*_mc.json"), encoding="utf-8") as fh:
            mc = json.load(fh)
        ref = reference()
        if not mc["mean"] - 3.0 * mc["stderr"] <= ref:
            res.failures.append(f"mc mean {mc['mean']:.6g} +- "
                                f"{mc['stderr']:.2g} above robust value "
                                f"{ref:.6g}")
        res.solver_gaps.append(ref - mc["mean"])
        return res

    return check


def check_oracle(oracle: Callable[[float, float], float]) -> Check:
    """oracle mode: the program's closed form matches the one here."""
    def check(out_dir: str) -> Outcome:
        res = Outcome()
        with open(_one(out_dir, "*_oracle.json"), encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        for p in points:
            ref = oracle(p["t"], p["x"])
            if abs(p["value"] - ref) > ORACLE_AGREEMENT:
                res.failures.append(f"oracle {p['value']!r} != closed form "
                                    f"{ref!r} at (t={p['t']:g}, x={p['x']:g})")
        return res

    return check


# ---------------------------------------------------------------------------
# sizes

# Full sizes give one pass of a few seconds, so a run of BENCHMARK.json's
# run_seconds holds several passes.  lq stays at n_x=160: below that the
# lattice misses the 0.02 tolerance (0.021 at n_x=120, 0.0302 at n_x=100).
FULL = {"bsb_nx": 120, "rg_nx": 100, "lq_nx": 160, "mc_paths": 40000,
        "mc_K": 200, "ref_nx": 200, "n_probes": 6}
# Smoke-test sizes for the benchmark's own tests; accuracy is not the point
# there, so these may miss tolerances.
TINY = {"bsb_nx": 24, "rg_nx": 24, "lq_nx": 16, "mc_paths": 1000,
        "mc_K": 8, "ref_nx": 24, "n_probes": 2}


def _probes(rng: random.Random, n: int, ts: Sequence[float],
            x_lo: float, x_hi: float, anchors: Sequence[Tuple[float, float]]
            ) -> List[List[float]]:
    pts = [list(a) for a in anchors]
    for _ in range(n):
        pts.append([rng.choice(ts), round(rng.uniform(x_lo, x_hi), 4)])
    return pts


def _validate(problem: str, n_x: int, probes) -> Dict:
    return {"problem": {"catalog": problem},
            "solver": {"method": "both", "n_x": n_x},
            "validate": {"oracles": ["auto"], "tolerance": TOLERANCE,
                         "agreement": AGREEMENT},
            "output": {"formats": ["csv", "json"]},
            "probes": probes}


def pricing_hjb(seed: int, size: Dict) -> Tuple[List[Call], Callable]:
    rng = random.Random(f"pricing-hjb:{seed}")
    n = size["n_probes"]
    # x=0.6 at t=0 is where both solvers are furthest off on this window
    anchors = ((0.0, 0.6), (0.0, 1.0), (0.5, 1.0))
    calls = [
        Call("bsb-call", "validate",
             _validate("bsb-call", size["bsb_nx"],
                       _probes(rng, n, (0.0, 0.25, 0.5), 0.6, 1.6, anchors)),
             check_grid(bs_call)),
        Call("recursive-g", "validate",
             _validate("recursive-g", size["rg_nx"],
                       _probes(rng, n, (0.0, 0.25, 0.5), 0.6, 1.6, anchors)),
             check_grid(None)),
    ]
    return calls, lambda run: None


def lq_control(seed: int, size: Dict) -> Tuple[List[Call], Callable]:
    rng = random.Random(f"lq-control:{seed}")
    # |x| <= 1: nearer the box edges the HJB misses the tolerance at any
    # n_x (see README.md, "Known misses")
    probes = _probes(rng, size["n_probes"], (0.0, 0.25, 0.5), -1.0, 1.0,
                     ((0.0, 0.0), (0.0, 1.0)))
    calls = [Call("lq", "validate", _validate("lq", size["lq_nx"], probes),
                  check_grid(lq_value))]
    return calls, lambda run: None


def oracles_mc(seed: int, size: Dict) -> Tuple[List[Call], Callable]:
    """Monte Carlo, tree vs brute force and oracle probes; no grid solver.

    The recursive-g Monte Carlo bound is checked against a lattice value that
    ``prepare`` computes before the timed region.
    """
    rng = random.Random(f"oracles-mc:{seed}")
    n = size["n_probes"]
    x0 = 1.0
    refs: Dict[str, float] = {"bsb-call": bs_call(0.0, x0)}

    def simulate(problem: str, mc_seed: int) -> Call:
        doc = {"problem": {"catalog": problem},
               "solver": {"n_x": size["ref_nx"], "K": size["mc_K"]},
               "simulate": {"n_paths": size["mc_paths"], "seed": mc_seed,
                            "q_profile": [0.5, 0.75], "u_policy": "0"},
               "probes": [[0.0, x0]]}
        return Call(f"mc-{problem}", "simulate", doc,
                    check_mc(lambda: refs[problem]))

    def brute_force(problem: str, oracle) -> Call:
        doc = {"problem": {"catalog": problem},
               "solver": {"K": 4},
               "validate": {"oracles": ["brute-force"]},
               # the depth-4 tree is furthest off the closed form at x=1.15
               "probes": _probes(rng, n, (0.0,), 0.8, 1.4, ((0.0, 1.15),))}
        return Call(f"tree-{problem}", "validate", doc,
                    check_brute_force(oracle))

    def oracle_probes(problem: str, x_lo: float, x_hi: float, oracle) -> Call:
        doc = {"problem": {"catalog": problem},
               "probes": _probes(rng, n, (0.0, 0.3, 0.6, 0.9), x_lo, x_hi,
                                 ())}
        return Call(f"oracle-{problem}", "oracle", doc, check_oracle(oracle))

    mc_seed = rng.randrange(2 ** 31)
    calls = [
        simulate("bsb-call", mc_seed),
        simulate("recursive-g", mc_seed + 1),
        brute_force("bsb-call", bs_call),
        brute_force("recursive-g", None),
        oracle_probes("bsb-call", 0.5, 2.0, bs_call),
        oracle_probes("lq", -1.5, 1.5, lq_value),
    ]

    def prepare(run: Callable[[Dict, str], Dict]) -> None:
        summary = run({"problem": {"catalog": "recursive-g"},
                       "solver": {"method": "lattice", "n_x": size["ref_nx"]},
                       "output": {"formats": ["json"]},
                       "probes": [[0.0, x0]]}, "solve")
        refs["recursive-g"] = summary["V_at_probe_points"][0]["value"]

    return calls, prepare


WORKLOADS = {
    "pricing-hjb": pricing_hjb,
    "lq-control": lq_control,
    "oracles-mc": oracles_mc,
}
