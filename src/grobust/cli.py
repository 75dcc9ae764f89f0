"""Command-line entry point: solve / oracle / validate / simulate / table.

Every subcommand takes ``--config PATH`` (JSON run configuration), an
optional ``--out DIR`` override and repeatable ``--probe "t,x"`` points.
Exit code 0 means every configured tolerance passed; module errors print one
JSON object on stderr (the run's warnings in its list ``warnings``), exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import (CLOSED_FORMS, check_probe, mc_lower_bound,
                       oracle_probe_value)
from .config import RunConfig, load_config, resolve_problem
from .grids import Grid1D, ValueField, write_field_csv
from .hjb import hjb_time_stepping, march_hjb
from .lattice import (brute_force_size, brute_force_value, solve_dpp,
                      solve_dpp_tree)
from .problem import CoefficientGrid, ControlProblem

__all__ = ["main", "run", "emit_convergence_table", "worker_count", "ExitReport"]

_MODES = ("solve", "oracle", "validate", "simulate", "table")


def worker_count() -> int:
    """The size of validate's pool: one worker per CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExitReport:
    passed: bool
    messages: Tuple[str, ...]
    artifacts: Tuple[str, ...]


def _default_probes(problem: ControlProblem) -> Tuple[Tuple[float, float], ...]:
    return ((0.0, 0.5 * (problem.x_min + problem.x_max)),)


def _lattice_k(cfg: RunConfig, n_x: int) -> int:
    if cfg.solver.K is None:
        return n_x
    return max(1, round(cfg.solver.K * n_x / cfg.solver.n_x))


def _solve_one(cfg: RunConfig, problem: ControlProblem, name: str,
               method: str, n_x: int, probes) -> Tuple[ValueField, Dict]:
    grid = Grid1D.for_problem(problem, n_x)
    K = _lattice_k(cfg, n_x)
    start = time.perf_counter()
    if method == "lattice":
        field = solve_dpp(problem, grid, K, n_u=cfg.solver.n_u)
    else:
        # solve_hjb's three calls, through this module's names (bench traces)
        coefs = CoefficientGrid(problem, grid,
                                problem.u_grid(cfg.solver.n_u))
        field = march_hjb(coefs, hjb_time_stepping(coefs, K))
    wall_time = time.perf_counter() - start
    record = {k: v for k, v in asdict(field.solve).items() if v is not None}
    if record.get("cfl_bound") == math.inf:  # JSON has no Infinity: null
        record["cfl_bound"] = None
    return field, {
        "problem": name, "n_x": n_x, "K": K, **record, "wall_time": wall_time,
        "V_at_probe_points": [{"t": t, "x": x, "value": field.value_at(t, x)}
                              for t, x in probes]}


def _write_json(path: str, obj) -> None:
    """``obj`` as strict JSON (no NaN or infinity), encoded before the file
    is opened, so a refused value leaves no partial file."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _oracle_points(tag: str, rows: Sequence[Dict]) -> Dict:
    """The oracle artifact of comparison rows: the tag, its closed form and
    their probes with the oracle column."""
    return {"name": tag, "method": CLOSED_FORMS[tag],
            "points": [{"t": row["t"], "x": row["x"], "value": row["oracle"]}
                       for row in rows]}


def _csv_line(cells) -> str:
    """One CSV line: every number to 17 significant digits, None blank."""
    return ",".join("" if v is None else f"{v:.17g}" for v in cells) + "\n"


def emit_convergence_table(rows: Sequence[Dict], buf) -> None:
    """CSV of per-resolution probe values, oracle gaps and fitted rates.

    ``rows`` are comparison rows (:func:`_comparison_rows`) with n_x and K.
    The oracle gap is the lattice's when it ran, else the HJB's; rates are
    fitted from consecutive resolutions (blank for the first row).
    """
    buf.write("n_x,K,probe_t,probe_x,lattice,hjb,oracle,"
              "diff_to_oracle,diff_lattice_vs_hjb,rate\n")
    by_probe: Dict[Tuple[float, float], List[Dict]] = {}
    for row in rows:
        by_probe.setdefault((row["t"], row["x"]), []).append(row)
    for _, group in sorted(by_probe.items()):
        group.sort(key=lambda r: r["n_x"])
        gaps = [row["diff_lattice_oracle" if row["lattice"] is not None
                    else "diff_hjb_oracle"] for row in group]
        for i, row in enumerate(group):
            d0, d1, rate = gaps[i - 1] if i > 0 else None, gaps[i], None
            if d0 is not None and d1 is not None and d0 > 0 and d1 > 0:
                rate = (math.log(d0 / d1)
                        / math.log(row["n_x"] / group[i - 1]["n_x"]))
            buf.write(_csv_line((row["n_x"], row["K"], row["t"], row["x"],
                                 row["lattice"], row["hjb"], row["oracle"],
                                 d1, row["diff_lattice_hjb"], rate)))


def _comparison_rows(probes, columns: Dict[str, Callable[[float, float], float]]
                     ) -> List[Dict]:
    """One row per probe: the value columns present (``lattice``, ``hjb``,
    ``oracle``; each a function of (t, x)) and their pairwise gaps."""
    rows = []
    for t, x in probes:
        row: Dict = {"t": t, "x": x}
        for key in ("lattice", "hjb", "oracle"):
            row[key] = columns[key](t, x) if key in columns else None
        for a, b, key in (("lattice", "oracle", "diff_lattice_oracle"),
                          ("hjb", "oracle", "diff_hjb_oracle"),
                          ("lattice", "hjb", "diff_lattice_hjb")):
            va, vb = row[a], row[b]
            row[key] = abs(va - vb) if va is not None and vb is not None else None
        rows.append(row)
    return rows


def _write_comparison_csv(path: str, rows: Sequence[Dict]) -> None:
    cols = ("t", "x", "lattice", "hjb", "oracle", "diff_lattice_oracle",
            "diff_hjb_oracle", "diff_lattice_hjb")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(_csv_line(row[c] for c in cols))


def run(cfg: RunConfig, mode: str = "validate",
        out_dir: Optional[str] = None,
        probes: Optional[Sequence[Tuple[float, float]]] = None) -> ExitReport:
    """Execute one configured run; see the module docstring for modes."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of "
                         f"{list(_MODES)}")
    problem, name, oracle_tag = resolve_problem(cfg)
    out = out_dir or cfg.output.dir
    os.makedirs(out, exist_ok=True)
    probes = tuple(probes) if probes else (cfg.probes or _default_probes(problem))
    for t, x in probes:
        check_probe(problem, t, x)
    brute = mode == "validate" and "brute-force" in cfg.validate.oracles
    if (mode == "simulate" or brute) and any(t != 0.0 for t, _ in probes):
        who = "simulate" if mode == "simulate" else "brute-force oracle"
        raise ValueError(f"{who} probes must sit at t = 0")
    if mode == "simulate" and len(probes) != 1:
        raise ValueError(f"simulate takes one probe, got {len(probes)}")
    if brute:
        depth = cfg.solver.K or 3
        n_u = cfg.solver.n_u or problem.n_u
        brute_force_size(problem, depth, n_u)  # refuse before any solve
    methods = (("lattice", "hjb") if cfg.solver.method == "both"
               else (cfg.solver.method,))
    # the closed form as a value column, when the run has one
    closed_form = {} if oracle_tag == "none" else {
        "oracle": lambda t, x: oracle_probe_value(oracle_tag, problem, t, x)}

    if mode == "oracle":
        if not closed_form:
            return ExitReport(False, ("no oracle tag configured",), ())
        path = os.path.join(out, f"{name}_oracle.json")
        _write_json(path, _oracle_points(oracle_tag,
                                         _comparison_rows(probes, closed_form)))
        return ExitReport(True, (f"oracle {oracle_tag} evaluated",), (path,))

    if mode == "simulate":
        if cfg.simulate is None:
            return ExitReport(False, ("no simulate block configured",), ())
        sim = cfg.simulate
        x0 = probes[0][1]
        res = mc_lower_bound(problem, x0, sim.u_policy, sim.q_profile,
                             sim.n_paths, _lattice_k(cfg, cfg.solver.n_x),
                             sim.seed)
        path = os.path.join(out, f"{name}_mc.json")
        _write_json(path, {"problem": name, "x0": x0, "mean": res.mean,
                           "stderr": res.stderr, "n_paths": res.n_paths,
                           "ci_low": res.ci_low, "ci_high": res.ci_high,
                           "seed": sim.seed,
                           "q_profile": list(sim.q_profile),
                           "u_policy": sim.u_policy})
        return ExitReport(True, (f"mc mean {res.mean:.6g} +- {res.stderr:.2g}",),
                          (path,))

    if mode == "table":
        if cfg.table is None or not cfg.table.n_x_list:
            return ExitReport(False, ("no table block configured",), ())
        rows: List[Dict] = []
        for n_x in cfg.table.n_x_list:
            columns = {method: _solve_one(cfg, problem, name, method, n_x,
                                          probes)[0].value_at
                       for method in methods}
            rows.extend(dict(row, n_x=n_x, K=_lattice_k(cfg, n_x)) for row
                        in _comparison_rows(probes, {**columns, **closed_form}))
        path = os.path.join(out, f"{name}_convergence.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            emit_convergence_table(rows, fh)
        return ExitReport(True, (f"{len(rows)} table rows",), (path,))

    messages: List[str] = []
    artifacts: List[str] = []
    if brute:
        # shallow-tree cross check: the DPP recursion on exact tree states
        # (the lattice column) against exhaustive enumeration of adapted
        # assignments (the oracle column)
        columns = {
            "lattice": lambda t, x: solve_dpp_tree(problem, x, depth, n_u=n_u),
            "oracle": lambda t, x: brute_force_value(problem, x, depth, n_u)}
    else:
        columns = dict(closed_form)

        def solve_method(method: str):
            return method, _solve_one(cfg, problem, name, method,
                                      cfg.solver.n_x, probes)

        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            for method, (field, info) in pool.map(solve_method, methods):
                columns[method] = field.value_at
                if "csv" in cfg.output.formats:
                    fpath = os.path.join(out, f"{name}_{method}.csv")
                    write_field_csv(field, fpath)
                    artifacts.append(fpath)
                if "json" in cfg.output.formats:
                    spath = os.path.join(out, f"{name}_{method}_summary.json")
                    _write_json(spath, info)
                    artifacts.append(spath)
                messages.append(
                    f"{method}: V{probes[0]} = "
                    f"{field.value_at(*probes[0]):.6g}")
        if mode == "solve":
            return ExitReport(True, tuple(messages), tuple(artifacts))

    # validate: comparison table + tolerance gates
    rows = _comparison_rows(probes, columns)
    cpath = os.path.join(out, f"{name}_comparison.csv")
    _write_comparison_csv(cpath, rows)
    artifacts.append(cpath)
    if closed_form and not brute:
        opath = os.path.join(out, f"{name}_oracle.json")
        _write_json(opath, _oracle_points(oracle_tag, rows))
        artifacts.append(opath)

    passed = True
    for row in rows:
        for key, bound in (("diff_lattice_oracle", cfg.validate.tolerance),
                           ("diff_hjb_oracle", cfg.validate.tolerance),
                           ("diff_lattice_hjb", cfg.validate.agreement)):
            v = row[key]
            if v is None:
                continue
            ok = v <= bound
            passed = passed and ok
            messages.append(
                f"{'PASS' if ok else 'FAIL'} {key} at (t={row['t']}, "
                f"x={row['x']}): {v:.3g} (bound {bound:g})")
    return ExitReport(passed, tuple(messages), tuple(artifacts))


def _parse_probe(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"probe must be 't,x', got {text!r}")
    return float(parts[0]), float(parts[1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="grobust",
        description="Robust control solvers under volatility uncertainty")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _MODES:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="artifact directory")
        sp.add_argument("--probe", action="append", type=_parse_probe,
                        default=None, metavar="t,x",
                        help="evaluation point, repeatable")
    args = parser.parse_args(argv)

    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg = load_config(args.config)
            report = run(cfg, mode=args.command, out_dir=args.out,
                         probes=args.probe)
        except Exception as exc:  # noqa: BLE001 - structured error reporting
            error = {"error": type(exc).__name__, "message": str(exc)}
            if caught:
                error["warnings"] = [str(w.message) for w in caught]
            print(json.dumps(error, sort_keys=True), file=sys.stderr)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for msg in report.messages:
        print(msg)
    for art in report.artifacts:
        print(f"wrote {art}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
