"""Benchmark runner for prefixsynth.

Run from the root of a checkout:

    python3 bench/run.py --workload synth --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with a single client: each
job calls ``prefixsynth.cli.main(argv)`` in-process with ``--out`` set to a
fresh directory, then the benchmark checks the job's artifacts with its own
oracles.  Passes over the job list repeat until ``--seconds`` have passed,
at least twice.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one untraced pass, then traces the library's layers and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_library(src: Path) -> types.SimpleNamespace:
    """Import prefixsynth afresh from ``src`` (never an installed copy)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "prefixsynth"]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("prefixsynth")
    if Path(package.__file__).resolve().parent != src / "prefixsynth":
        raise BenchError(f"prefixsynth was imported from {package.__file__}, not {src}")
    mods = {m: importlib.import_module(f"prefixsynth.{m}") for m in (*MODULES, "cli")}
    return types.SimpleNamespace(package=package, **mods)


def setup(workload: str, seed: int, workdir: str, tracer: Tracer | None = None,
          widths=None):
    """Import, generate the inputs and QoR baselines, run a warm-up job."""
    start = perf_counter()
    lib = import_library(ROOT / "src")
    if tracer is not None:
        tracer.job = "setup"
        tracer.install(lib)

    def prepare():
        plan = wl.PLANNERS[workload](lib, seed, workdir, widths or wl.WIDTHS[workload])
        warm = wl.run_job(lib, plan, plan.jobs[0], tracer)
        if warm.wrong:
            raise BenchError(f"warm-up job {plan.jobs[0].label} is wrong: {warm.reason}")
        return plan

    plan = tracer.span("setup", prepare) if tracer is not None else prepare()
    return lib, plan, perf_counter() - start


def measure(lib, plan, seconds: float, min_passes: int, tracer=None) -> list:
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(wl.run_pass(lib, plan, tracer, tag=f"p{len(passes)}"))
    return passes


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(min_jobs: int) -> float:
    """Highest whole percentile with at least TAIL_BEYOND of ``min_jobs``
    above it; fixed by the job list, not by how many passes fit."""
    if min_jobs < 2 * TAIL_BEYOND:
        return 0.5
    return math.floor(100 * (min_jobs - TAIL_BEYOND) / min_jobs) / 100


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


QUALITY = ("qor.delay_ratio", "qor.area_ratio", "qor.level_ratio", "qor.met_ratio",
           "yield_ratio", "fail_ratio")


def quality(outcomes: list) -> dict:
    """QoR (synth), yield (datagen) and failure figures of job outcomes."""
    rows = [row for o in outcomes for row in o.qor]
    requested = sum(o.requested for o in outcomes)
    figures = {"fail_ratio": sum(not o.done for o in outcomes) / len(outcomes)}
    if rows:
        figures["qor.delay_ratio"] = geomean([r[0] for r in rows])
        figures["qor.area_ratio"] = geomean([r[1] for r in rows])
        figures["qor.level_ratio"] = geomean([r[2] for r in rows])
        figures["qor.met_ratio"] = sum(r[3] for r in rows) / len(rows)
    if requested:
        figures["yield_ratio"] = sum(o.written for o in outcomes) / requested
    return figures


def pass_seconds(passes: list) -> float:
    """Time of one pass with each job at its median over the passes, which
    keeps a stall in one job of one pass out of the figure."""
    return sum(statistics.median(o.seconds for o in runs) for runs in zip(*passes))


def end_to_end(plan, setups: list, passes: list) -> tuple[dict, list]:
    jobs = [o for p in passes for o in p]
    times = [o.seconds for o in jobs]
    q = tail_quantile(len(plan.jobs) * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (pass_seconds(passes), "s"),
        "job_s.p50": (statistics.median_high(times), "s"),
        "job_s.tail": (nearest_rank(times, q), "s"),
        "done_ratio": (sum(o.done for o in jobs) / len(jobs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"jobs: {len(jobs)} over {len(passes)} passes of {len(plan.jobs)};"
        f" job_s.tail is p{round(q * 100)}",
    ]
    for name, value in quality(jobs).items():
        notes.append(f"{name} = {value:.6g} ratio")
    return metrics, notes


PER_LAYER_UNITS = {"s": "s", "calls": "count"}


def per_layer(plan, tracer: Tracer, passes: list, untraced_wall: float) -> dict:
    n = len(passes)
    totals = tracer.layer_totals(n)
    jobs = [o for p in passes for o in p]

    def get(key: str) -> float:
        return totals.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in (
        "esat.saturate.s", "esat.saturate.calls", "esat.extract.s", "esat.extract.calls",
        "esat.derive_trace.s", "esat.filter.s", "lang.convert.s",
        "backbone.regroup.s", "backbone.regroup.calls", "backbone.find_candidates.s",
        "backbone.complete.s", "backbone.to_timed_sexpr.s", "backbone.to_timed_sexpr.calls",
        "timing.backbone_cost.s", "timing.backbone_cost.calls",
        "timing.graph_arrivals.s", "timing.graph_arrivals.calls",
        "policy.run_phase1.s", "policy.run_phase2.s", "policy.decide.s", "policy.prompt.s",
        "refine.level_opt.s", "refine.level_opt.calls", "refine.fanout_opt.s",
        "refine.fanout_opt.calls", "refine.node_clone.calls",
        "epr.render_epr.s", "epr.render_epr.calls", "epr.critical_path.s", "epr.parse_epr.s",
        "graph.check.s", "graph.validate.s",
        "dataio.synthesize_samples.s", "dataio.emit_samples.s", "dataio.emit_verilog.s",
        "dataio.simulate_verilog.s", "structures.build.s",
    ):
        m[name] = (get(name), PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
    m["cli.self_s"] = (get("cli.s"), "s")
    for name in ("esat.enodes", "policy.phase1.iterations", "policy.phase2.iterations",
                 "policy.rejected", "graph.check.vectors", "graph.check.false_reject"):
        m[name] = (get(name), "count")
    m["dataio.simulate_verilog.vectors"] = (get("dataio.simulate_verilog.calls"), "count")
    m["policy.phase1.useful_ratio"] = (
        ratio(get("policy.phase1.applied"), get("policy.regroups_scored")), "ratio")
    m["refine.useful_ratio"] = (ratio(get("policy.phase2.applied"), get("refine.attempts")),
                                "ratio")
    m["graph.dead_nodes"] = (sum(o.dead_nodes for o in jobs) / n, "count")
    m["dataio.samples_bytes"] = (sum(o.samples_bytes for o in jobs) / n, "bytes")
    m["trace.spans"] = (get("trace.spans"), "count")
    m["trace.overhead_s"] = (pass_seconds(passes) - untraced_wall, "s")
    figures = quality(jobs)
    for name in QUALITY:
        m[name] = (figures.get(name, 0.0), "ratio")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        if not trace:
            setups = []
            for _ in range(SETUPS):
                shutil.rmtree(workdir)
                os.mkdir(workdir)
                lib, plan, secs = setup(workload, seed, workdir)
                setups.append(secs)
            passes = measure(lib, plan, seconds, MIN_PASSES)
            metrics, notes = end_to_end(plan, setups, passes)
        else:
            lib, plan, _ = setup(workload, seed, workdir)
            start = perf_counter()
            untraced = sum(o.seconds for o in wl.run_pass(lib, plan))
            tracer = Tracer()
            try:
                lib, plan, _ = setup(workload, seed, workdir, tracer)
                passes = measure(lib, plan, seconds - (perf_counter() - start), 1, tracer)
            finally:
                tracer.uninstall()
            tracer.write(out_dir / f"spans-{workload}-{seed}.csv")
            metrics = per_layer(plan, tracer, passes, untraced)
            notes = [f"jobs: {sum(map(len, passes))} over {len(passes)} traced passes;"
                     f" spans in {out_dir.name}/spans-{workload}-{seed}.csv"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs = [o for p in passes for o in p]
    for o in jobs[: len(plan.jobs)]:
        if not o.done:
            notes.append(f"failed {o.job.kind} {o.job.label}: {o.reason}")
    return {
        "correct": not any(o.wrong for o in jobs),
        "attempted": len(jobs),
        "failed": sum(not o.done for o in jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.PLANNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prefixsynth" / "cli.py").is_file():
        print(f"bench: no prefixsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        seed = args.seed % 2**32  # the CLI's numpy generator takes no negative seed
        result, notes = run(args.workload, seed, args.seconds, bool(args.trace), out_dir)
    except (BenchError, wl.orc.OracleError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
