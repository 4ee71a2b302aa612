"""Self-tests of the benchmark: tiny runs, oracle sensitivity, repeatability.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import oracle as orc
import run
import workloads as wl
from tracer import _HOOKS, Tracer

TINY = {"synth": (8, 16), "datagen": (8, 12), "verify": (8, 16)}


@pytest.fixture(scope="module")
def lib():
    return run.import_library(run.ROOT / "src")


def tiny_run(workload: str, seed: int, workdir, traced: bool):
    tracer = Tracer() if traced else None
    try:
        lib, plan, _ = run.setup(workload, seed, str(workdir), tracer, widths=TINY[workload])
        passes = [wl.run_pass(lib, plan, tracer)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return plan, passes, tracer


@pytest.mark.parametrize("workload", sorted(wl.PLANNERS))
def test_tiny_run_completes(workload, tmp_path) -> None:
    plan, passes, _ = tiny_run(workload, 3, tmp_path, traced=False)
    assert len(passes[0]) == len(plan.jobs) > 0
    assert [o.reason for o in passes[0] if not o.done] == []
    metrics, _ = run.end_to_end(plan, [0.1], passes)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(wl.PLANNERS))
def test_same_seed_repeats_qor_and_counts(workload, tmp_path) -> None:
    runs = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        plan, passes, tracer = tiny_run(workload, 5, tmp_path / str(k), traced=True)
        metrics = run.per_layer(plan, tracer, passes, untraced_wall=0.0)
        runs.append({name: value for name, (value, unit) in metrics.items() if unit != "s"})
    assert runs[0] == runs[1]
    assert runs[0]["trace.spans"] > 0


@pytest.mark.parametrize("workload", sorted(wl.PLANNERS))
def test_other_seed_gives_job_list_of_same_shape(workload, lib, tmp_path) -> None:
    shapes = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        plan = wl.PLANNERS[workload](lib, seed, str(tmp_path / str(seed)), TINY[workload])
        shapes.append([(job.kind, job.label) for job in plan.jobs])
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("width", [8, 65, 128, 256])
def test_oracle_accepts_textbook_adders(lib, width) -> None:
    vec = orc.make_vectors(width, 256, seed=width)
    for name in wl.TEXTBOOK:
        graph = getattr(lib.structures, name.replace("-", "_") + "_graph")(width)
        _, rc, errors = orc.check_epr(lib.epr.render_epr(graph), vec)
        assert errors == [] and rc.area == graph.size
        for style in ("plain", "inverting"):
            assert orc.netlist_bad_lanes(lib.dataio.emit_verilog(graph, style), vec) == 0


@pytest.mark.parametrize("width", [16, 128])
def test_oracle_flags_corrupted_adder(lib, width) -> None:
    graph = lib.structures.brent_kung_graph(width)
    vec = orc.make_vectors(width, 256, seed=1)
    parents = {tuple(n): (tuple(u), tuple(l)) for n, (u, l) in graph.parents.items()}
    node = (width - 1, 0, 0)
    up, lp = parents[node]
    parents[node] = (up, (lp[0] - 1, 0, 0))  # skips bit lp.msb in the carry
    assert orc.graph_bad_lanes(width, parents, vec) > 0
    assert orc.structure_errors(width, parents)
    text = lib.epr.render_epr(graph)
    token = f"({width - 1},0),lvl:"
    line = next(ln for ln in text.splitlines() if ln.startswith(token))
    corrupt = line.replace(f"lp:({lp[0]},0)", f"lp:({lp[0] - 1},0)")
    assert corrupt != line
    assert orc.check_epr(text.replace(line, corrupt), vec)[2]


@pytest.mark.parametrize("style", ["plain", "inverting"])
def test_oracle_flags_corrupted_netlist(lib, style) -> None:
    graph = lib.structures.kogge_stone_graph(128)
    vec = orc.make_vectors(128, 256, seed=2)
    text = lib.dataio.emit_verilog(graph, style)
    gate = next(ln for ln in text.splitlines() if ln.lstrip().startswith(("and u", "nand u")))
    flipped = gate.replace("and u", "or u", 1)
    assert orc.netlist_bad_lanes(text.replace(gate, flipped, 1), vec) > 0


def test_false_reject_hook_tells_true_from_false(lib) -> None:
    graph = lib.structures.sklansky_graph(100)
    tracer = Tracer()
    tracer.job = "j0"
    hook = _HOOKS["graph.random_addition_check"]
    hook(tracer, (graph,), {"count": 10}, [(2**99, 2**99)])
    assert tracer.job_counts["graph.check.false_reject"] == 1
    broken = lib.graph.PrefixGraph(graph.width, dict(graph.parents))
    node = lib.graph.Node(99, 0)
    up, lp = broken.parents[node]
    broken.parents[node] = (up, lib.graph.Node(lp.msb - 1, 0))
    k = lp.msb  # a carry generated at bit k reaches bit 99 through (99, k)
    hook(tracer, (broken,), {"count": 10}, [(((1 << 100) - 1) >> k << k, 1 << k)])
    assert tracer.job_counts["graph.check.false_reject"] == 1
    assert tracer.job_counts["graph.check.vectors"] == 20


def test_refuses_to_run_without_sources(tmp_path) -> None:
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
