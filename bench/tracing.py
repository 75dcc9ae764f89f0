"""Outside-in tracing of grobust for the benchmark's traced run.

Spans are recorded only from this file.  :meth:`Tracer.install` replaces the
public names that each grobust module looks up at call time (for example
``grobust.hjb.eval_expr`` or ``grobust.cli.solve_hjb``) with timing wrappers
and :meth:`Tracer.uninstall` puts the originals back; nothing inside the
package is edited.

Each span records its name, run id (the timed iteration), parent span,
thread, wall-clock start and end (``time.perf_counter``) and thread-CPU
start and end (``time.thread_time``).  Parent stacks are kept per thread.
``cli`` runs its solvers in a ``ThreadPoolExecutor``; the pool is replaced by
one that hands the submitting thread's current span to each task, so solver
spans on worker threads hang under the ``cli.pool`` span that started them.
Thread-CPU matters there: under the pool, a solver span's wall time also
counts the time its thread waited for the interpreter lock.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional


def _hjb_steps(args, kwargs, result) -> float:
    k_out, m_sub = result[0], result[1]
    return float(k_out * m_sub)


def _lattice_rows(args, kwargs, result) -> float:
    return float(result.values.shape[0] - 1)


def _mc_path_steps(args, kwargs, result) -> float:
    # mc_lower_bound(problem, x0, u_policy, q_profile, n_paths, K, seed, ...)
    return float(args[4] * args[5])


def _csv_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1]))


def _brute_force_assignments(args, kwargs, result) -> float:
    # brute_force_value(problem, x0, K, n_u_bf): (n_u * n_q) ** (2^K - 1)
    from grobust.gexp import vol_grid

    problem, K, n_u = args[0], args[2], args[3]
    nodes = 2 ** K - 1
    return float(n_u ** nodes * len(vol_grid(problem.gamma, 2)) ** nodes)


# (grobust module, attribute, span name, extra-value function).  The span
# name's prefix is the layer; the same span name may cover one function as
# seen from several consumer modules.
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("config", "parse_config", "config.parse", None),
    ("problem", "catalog", "problem.catalog", None),
    ("problem", "lipschitz_probe", "problem.lipschitz", None),
    ("hjb", "lipschitz_probe", "problem.lipschitz", None),
    ("lattice", "lipschitz_probe", "problem.lipschitz", None),
    ("cli", "solve_hjb", "hjb.solve", None),
    ("cli", "hjb_time_stepping", "hjb.time_stepping", _hjb_steps),
    ("hjb", "cfl_max_dt", "hjb.cfl", None),
    ("cli", "solve_dpp", "lattice.solve", _lattice_rows),
    ("lattice", "one_step_gexp", "lattice.step", None),
    ("cli", "solve_dpp_tree", "lattice.tree", None),
    ("cli", "brute_force_value", "lattice.brute_force",
     _brute_force_assignments),
    ("cli", "mc_lower_bound", "analysis.mc", _mc_path_steps),
    ("cli", "oracle_probe_value", "analysis.oracle", None),
    ("cli", "write_field_csv", "grids.csv", _csv_bytes),
    ("hjb", "eval_expr", "expr.eval", None),
    ("lattice", "eval_expr", "expr.eval", None),
    ("analysis", "eval_expr", "expr.eval", None),
    ("problem", "eval_expr", "expr.eval", None),
)

POOL = "cli.pool"
SOLVER_SPANS = ("hjb.solve", "lattice.solve")

# column layout of a recorded span
SPAN_COLUMNS = ("run", "id", "parent", "thread", "name", "wall_start",
                "wall_end", "cpu_start", "cpu_end", "extra")


class Tracer:
    """In-memory span recorder; spans are written out by :meth:`write`."""

    def __init__(self):
        self.run_id = 0
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return (name, sid, parent, time.perf_counter(), time.thread_time())

    def end(self, token: tuple, extra: float = 0.0) -> None:
        cpu1 = time.thread_time()
        wall1 = time.perf_counter()
        name, sid, parent, wall0, cpu0 = token
        self._stack().pop()
        self.spans.append((self.run_id, sid, parent, threading.get_ident(),
                           name, wall0, wall1, cpu0, cpu1, extra))

    def wrap(self, fn: Callable, name: str,
             extra: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            token = self.begin(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                self.end(token, extra(args, kwargs, result)
                         if done and extra is not None else 0.0)

        traced.__wrapped__ = fn
        return traced

    def adopt(self, parent: int, fn: Callable) -> Callable:
        """``fn`` run on another thread, as a child of span ``parent``."""
        def task(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return task

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.begin(POOL)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer.adopt(parent, fn), *args,
                                      **kwargs)

        # a name that a later grobust no longer has is skipped, so the
        # metrics built on it read 0
        for mod, attr, name, extra in TARGETS:
            module = importlib.import_module(f"grobust.{mod}")
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, extra))
        cli = importlib.import_module("grobust.cli")
        if hasattr(cli, "ThreadPoolExecutor"):
            self._saved.append((cli, "ThreadPoolExecutor",
                                cli.ThreadPoolExecutor))
            cli.ThreadPoolExecutor = TracedPool

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]:.9f},"
                         f"{s[6]:.9f},{s[7]:.9f},{s[8]:.9f},{s[9]:.17g}\n")


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive and self wall / thread-CPU, extras.

    A span's wall self time is its duration minus the part of it that its
    child spans cover (children on pool threads may overlap each other);
    its CPU self time subtracts the thread-CPU of children on its own thread.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        children[s[2]].append(s)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "wall": 0.0, "cpu": 0.0, "wall_self": 0.0,
                 "cpu_self": 0.0, "extra": 0.0, "solver_cpu": 0.0})
    for s in spans:
        _, sid, _, tid, name, w0, w1, c0, c1, extra = s
        kids = children.get(sid, ())
        wall_self = (w1 - w0) - _covered([(k[5], k[6]) for k in kids], w0, w1)
        cpu_self = (c1 - c0) - sum(k[8] - k[7] for k in kids if k[3] == tid)
        solver_cpu = sum(k[8] - k[7] for k in kids if k[4] in SOLVER_SPANS)
        row = out[name]
        row["calls"] += 1
        row["wall"] += w1 - w0
        row["cpu"] += c1 - c0
        row["wall_self"] += wall_self
        row["cpu_self"] += cpu_self
        row["extra"] += extra
        row["solver_cpu"] += solver_cpu
    return dict(out)


def per_layer(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The benchmark's per-layer metrics for one traced pass.

    Seconds are summed thread-CPU of the spans (busy time), except the
    ``cli.*`` entries, which are wall time.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    pool_wall = get(POOL, "wall")
    m = {
        "expr.calls": get("expr.eval", "calls"),
        "expr.s": get("expr.eval", "cpu"),
        "problem.lipschitz_probes": get("problem.lipschitz", "calls"),
        "problem.lipschitz_s": get("problem.lipschitz", "cpu"),
        "problem.catalog_calls": get("problem.catalog", "calls"),
        "problem.catalog_s": get("problem.catalog", "cpu"),
        "hjb.solve_s": get("hjb.solve", "cpu"),
        "hjb.steps": get("hjb.time_stepping", "extra"),
        "hjb.cfl_calls": get("hjb.cfl", "calls"),
        "hjb.cfl_s": get("hjb.cfl", "cpu"),
        "lattice.solve_s": get("lattice.solve", "cpu"),
        "lattice.rows": get("lattice.solve", "extra"),
        "lattice.step_calls": get("lattice.step", "calls"),
        "lattice.tree_s": get("lattice.tree", "cpu"),
        "lattice.brute_force_s": get("lattice.brute_force", "cpu"),
        "lattice.brute_force_assignments": get("lattice.brute_force", "extra"),
        "analysis.mc_s": get("analysis.mc", "cpu"),
        "analysis.mc_path_steps": get("analysis.mc", "extra"),
        "analysis.oracle_s": get("analysis.oracle", "cpu"),
        "grids.csv_s": get("grids.csv", "cpu"),
        "grids.csv_bytes": get("grids.csv", "extra"),
        "cli.run_s": get("cli.run", "wall"),
        "cli.self_s": get("cli.run", "wall_self"),
        # summed thread-CPU of the solver spans under the pool / pool wall
        "cli.pool_overlap": ratio(get(POOL, "solver_cpu"), pool_wall),
    }
    m["hjb.us_per_step"] = ratio(m["hjb.solve_s"], m["hjb.steps"], 1e6)
    m["lattice.ms_per_row"] = ratio(m["lattice.solve_s"], m["lattice.rows"],
                                    1e3)
    m["analysis.mc_ns_per_path_step"] = ratio(
        m["analysis.mc_s"], m["analysis.mc_path_steps"], 1e9)
    return m


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
