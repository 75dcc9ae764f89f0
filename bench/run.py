"""grobust benchmark: time to a validated solution, per workload.

    python3 bench/run.py --workload pricing-hjb --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports grobust from ``src/`` next to
this directory and drives it only through ``grobust.cli.run`` with
``RunConfig``s from ``grobust.config.parse_config``.

One run measures set-up several times, then repeats the workload's call
sequence (a *pass*) at least three times and while another pass fits in
``--seconds``.  Before the first set-up and after every pass it times
blocks of fixed reference work (a Python loop around numpy calls, no
grobust) for 15% of the pass's wall time.  On a shared machine the speed
of the same code drifts by up to 2x for seconds to minutes at a time, so
the reported times are scaled by ``REF_BLOCK_S`` over the run's mean block
time: they are seconds on a machine where one block takes ``REF_BLOCK_S``
(README.md has the numbers).  ``wall_s`` and ``cpu_s`` are the mean pass
times and ``setup_s`` the median set-up time, scaled; the raw times go to
the result file and are printed too.  Every call is checked (see
workloads.py): a call counts as failed when it raised, returned
``passed=False``, failed a check, or wrote artifacts that differ from the
first pass's bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see tracing.py), plus the tracing overhead.  Artifacts, a result file
with a provenance block and, when traced, the first traced pass's spans go to
``.bench_out/<workload>-s<seed>-t<trace>/``.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT / "src", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups before the first pass and before each later one; spreading them
# over the run keeps one slow stretch of a shared machine from setting
# setup_s
SETUP_REPS_FIRST = 5
SETUP_REPS_PER_PASS = 4
MIN_PASSES = 3
OUT_ROOT = ".bench_out"
# reference blocks after each pass: at least REF_MIN_S and REF_SHARE of
# the pass's wall time
REF_MIN_S = 0.3
REF_SHARE = 0.15
# the seconds one reference block is taken to last: about its mean time on
# the 2-CPU x86_64 virtual machine the benchmark was written on, when that
# machine was quiet, so scaled times read close to its raw ones
REF_BLOCK_S = 0.08

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "max_oracle_err": "value",
                    "max_solver_gap": "value", "pass_frac": "ratio"}
PER_LAYER_UNITS = {
    "expr.calls": "count", "expr.s": "s",
    "problem.lipschitz_probes": "count", "problem.lipschitz_s": "s",
    "problem.catalog_calls": "count", "problem.catalog_s": "s",
    "hjb.solve_s": "s", "hjb.steps": "count", "hjb.us_per_step": "us",
    "hjb.cfl_calls": "count", "hjb.cfl_s": "s",
    "lattice.solve_s": "s", "lattice.rows": "count",
    "lattice.step_calls": "count", "lattice.ms_per_row": "ms",
    "lattice.tree_s": "s", "lattice.brute_force_s": "s",
    "lattice.brute_force_assignments": "count",
    "analysis.mc_s": "s", "analysis.mc_path_steps": "count",
    "analysis.mc_ns_per_path_step": "ns", "analysis.oracle_s": "s",
    "grids.csv_s": "s", "grids.csv_bytes": "bytes",
    "config.load_s": "s",
    "cli.run_s": "s", "cli.self_s": "s", "cli.pool_overlap": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """grobust cannot be imported from this checkout."""


def fresh_setup(docs: List[Dict]):
    """Import grobust from scratch, parse the configs, resolve one problem.

    Returns (seconds, grobust.cli, grobust.config, parsed configs).
    """
    for name in [m for m in sys.modules
                 if m == "grobust" or m.startswith("grobust.")]:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        cli = importlib.import_module("grobust.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import grobust: {exc}") from exc
    config = importlib.import_module("grobust.config")
    cfgs = [config.parse_config(d) for d in docs]
    config.resolve_problem(cfgs[0])
    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"grobust imported from {cli.__file__}, not {src}")
    return elapsed, cli, config, cfgs


_REF_ROW = numpy.arange(160.0)
_REF_FIELDS = [numpy.random.default_rng(k).random((81, 160))
               for k in range(12)]


def reference_block() -> float:
    """Seconds one fixed block of reference work takes now.

    The block is the kind of work grobust's solvers do: a Python loop
    around numpy calls on one grid row, then one on 81×160 fields (the
    ``lq`` lattice's shape, a cache-sized working set).  It does not touch
    grobust, so no change to grobust moves it.
    """
    a, fields = _REF_ROW, _REF_FIELDS
    start = time.perf_counter()
    for i in range(10_000):
        float((a * 1.0001 + i).max())
    for i in range(1_500):
        x, y = fields[i % 12], fields[(i + 5) % 12]
        float(numpy.maximum(x * 1.0001 + y, y - x).min(axis=0).sum())
    return time.perf_counter() - start


def time_reference(after_s: float) -> List[float]:
    """Reference blocks for REF_SHARE of ``after_s``, at least REF_MIN_S."""
    blocks: List[float] = []
    while sum(blocks) < max(REF_MIN_S, REF_SHARE * after_s):
        blocks.append(reference_block())
    return blocks


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> Dict[str, str]:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(d, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}-{kind}"] = size
    return out


def provenance(cli) -> Dict:
    import numpy

    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "GROBUST_THREADS": os.environ.get("GROBUST_THREADS"),
            "worker_count": cli.worker_count(),
            "cpu_caches": cache_sizes()}


def with_dir(doc: Dict, out_dir: str) -> Dict:
    """A copy of the run configuration that writes into ``out_dir``."""
    return dict(doc, output=dict(doc.get("output", {}), dir=out_dir))


def digest(out_dir: str) -> Dict[str, str]:
    """sha256 of every artifact except run summaries (they carry a clock)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        if not path.endswith("_summary.json"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def run_pass(cli, calls, cfgs, out_dirs, first_digests):
    """Time one pass of the call sequence, then check every call."""
    for out_dir in out_dirs:
        shutil.rmtree(out_dir, ignore_errors=True)
    results = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for call, cfg in zip(calls, cfgs):
        try:
            results.append(cli.run(cfg, call.mode))
        except Exception as exc:  # noqa: BLE001 - a failed call is counted
            results.append(exc)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start

    failed, errs, gaps, messages = 0, [], [], []
    for call, report, out_dir in zip(calls, results, out_dirs):
        problems = []
        if isinstance(report, Exception):
            problems.append(f"raised {type(report).__name__}: {report}")
        else:
            if not report.passed:
                problems.append("ExitReport.passed is False")
            try:
                outcome = call.check(out_dir)
                problems += outcome.failures
                errs += outcome.oracle_errs
                gaps += outcome.solver_gaps
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            d = digest(out_dir)
            if first_digests.setdefault(call.label, d) != d:
                problems.append("artifacts differ from the first pass")
        if problems:
            failed += 1
            messages += [f"{call.label}: {p}" for p in problems]
    return {"wall": wall, "cpu": cpu, "attempted": len(calls),
            "failed": failed, "oracle_errs": errs, "solver_gaps": gaps,
            "messages": messages}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict:
    size = workloads.TINY if tiny else workloads.FULL
    calls, prepare = workloads.WORKLOADS[workload](seed, size)
    out = Path(OUT_ROOT) / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out_dirs = [str(out / c.label) for c in calls]
    docs = [with_dir(c.doc, d) for c, d in zip(calls, out_dirs)]

    setup_times: List[float] = []
    ref_blocks = time_reference(0.0)

    def set_up(reps: int):
        for _ in range(reps):
            elapsed, *modules = fresh_setup(docs)
            setup_times.append(elapsed)
        return modules

    cli, config, cfgs = set_up(SETUP_REPS_FIRST)
    prov = provenance(cli)

    def solve_summary(doc: Dict, mode: str) -> Dict:
        report = cli.run(config.parse_config(
            with_dir(doc, str(out / "prepare"))), mode)
        (path,) = [a for a in report.artifacts if a.endswith("_summary.json")]
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    prepare(solve_summary)

    tracer = tracing.Tracer()
    layer_rows: List[Dict[str, float]] = []
    config_load = 0.0
    if trace:
        tracer.install()
        try:
            for d in docs:
                config.parse_config(d)
        finally:
            tracer.uninstall()
        config_load = tracing.summarize(tracer.spans)["config.parse"]["cpu"]
        tracer.spans.clear()

    passes: List[Dict] = []
    first_digests: Dict[str, Dict[str, str]] = {}
    start = last = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        n_plain = sum(1 for p in passes if not p["traced"])
        n_traced = len(passes) - n_plain
        enough = (n_plain >= 2 and n_traced >= 2) if trace \
            else len(passes) >= MIN_PASSES
        now = time.perf_counter()
        # stop when another pass like the last one would overrun
        if enough and now + (now - last) - start > seconds:
            break
        last = now
        if passes:
            cli, config, cfgs = set_up(SETUP_REPS_PER_PASS)
        if traced:
            tracer.run_id = len(passes)
            tracer.install()
        try:
            p = run_pass(cli, calls, cfgs, out_dirs, first_digests)
        finally:
            tracer.uninstall()
        p["traced"] = traced
        if traced:
            spans = [s for s in tracer.spans if s[0] == tracer.run_id]
            row = tracing.per_layer(tracing.summarize(spans))
            row["config.load_s"] = config_load
            layer_rows.append(row)
            if len(layer_rows) > 1:
                # only the first traced pass's spans are kept and written
                tracer.spans = tracer.spans[:-len(spans)]
        passes.append(p)
        ref_blocks += time_reference(p["wall"])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # ratio of totals: the run's pass time over its reference time
    scale = REF_BLOCK_S / statistics.mean(ref_blocks)
    plain = [p for p in passes if not p["traced"]]
    raw = {"setup_s": statistics.median(setup_times),
           "wall_s": statistics.mean(p["wall"] for p in plain),
           "cpu_s": statistics.mean(p["cpu"] for p in plain),
           "fastest_setup_s": min(setup_times),
           "fastest_wall_s": min(p["wall"] for p in plain)}
    if trace:
        metrics = tracing.median_metrics(layer_rows)
        metrics["trace.overhead_s"] = (
            statistics.mean(p["wall"] for p in passes if p["traced"])
            - raw["wall_s"]) * scale
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["wall_s"] * scale,
            "cpu_s": raw["cpu_s"] * scale,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 0 only when no call got far enough to be compared
            "max_oracle_err": max((e for p in passes
                                   for e in p["oracle_errs"]), default=0.0),
            "max_solver_gap": max((g for p in passes
                                   for g in p["solver_gaps"]), default=0.0),
            "pass_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "provenance": prov,
              "setup_times": setup_times,
              "reference_blocks": ref_blocks,
              "scale": scale,
              "raw": raw,
              "passes": [{k: p[k] for k in ("wall", "cpu", "traced",
                                            "failed", "messages")}
                         for p in passes],
              "result": result}
    if trace:
        record["per_pass_layers"] = layer_rows
        record["span_summary"] = tracing.summarize(tracer.spans)
        record["span_summary_pass_cpu"] = passes[tracer.spans[0][0]]["cpu"]
        tracer.write(str(out / "spans.csv"))
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def report(record: Dict) -> None:
    """Print a run's failures, metrics and, when traced, its span table."""
    messages = [m for p in record["passes"] for m in p["messages"]]
    for msg in dict.fromkeys(messages):
        print(f"FAIL ({messages.count(msg)} passes) {msg}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, value in record["raw"].items():
        print(f"{'raw ' + name:34s} {value:>16.6g} s")
    blocks = record["reference_blocks"]
    print(f"{'reference block, mean':34s} {statistics.mean(blocks):>16.6g} "
          f"s over {len(blocks)} blocks (scaled to {REF_BLOCK_S:g} s)")
    if record["trace"]:
        pass_cpu = record["span_summary_pass_cpu"]
        print(f"self time per span, first traced pass ({pass_cpu:.3f} s "
              f"process CPU)")
        print(f"{'span':20s} {'calls':>7s} {'cpu_s':>8s} {'share':>6s} "
              f"{'cpu_self_s':>10s} {'share':>6s} {'wall_self_s':>11s}")
        rows = sorted(record["span_summary"].items(),
                      key=lambda kv: -kv[1]["cpu_self"])
        for name, r in rows:
            print(f"{name:20s} {r['calls']:7d} {r['cpu']:8.3f} "
                  f"{r['cpu'] / pass_cpu:6.1%} {r['cpu_self']:10.3f} "
                  f"{r['cpu_self'] / pass_cpu:6.1%} {r['wall_self']:11.3f}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the benchmark's own tests)")
    args = ap.parse_args(argv)
    # in workload order, so the Monte Carlo arrays of oracles-mc come last
    # and do not set peak_rss_mb of the others
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace),
                             args.tiny)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if len(names) > 1:
            print(f"== {name}")
        report(record)
        results[name] = record["result"]
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
