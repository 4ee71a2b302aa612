"""Workload job lists, job execution and the per-job checks.

Each workload is a rule applied to a seed; another seed gives a job list of
the same shape.  The library only ever sees the generated inputs: command
lines, profile files and EPR files.

* ``synth``: per width 16/32/64/128 and profile uniform, lsb-first and a
  seeded random profile file, one ``synthesize`` job at a loose target
  (1.3x the profile's Sklansky delay), which smaller widths meet early, and
  one ``eval`` job at the tight target (the Sklansky delay itself), which
  uses up the iteration budget more often.  Exercises the two-phase loop;
  the ``eval`` rows decide QoR.
* ``datagen``: per width 16/32/48/64 and the same three profiles, one
  ``datagen`` job with 8 perturbed extractions and a threshold that lets
  most shapes through.  Dominated by e-graph saturation.
* ``verify``: per width 16/32/64/128, the Sklansky, Kogge-Stone and
  Brent-Kung adders and two seeded random completed backbones, each
  exported in plain and inverting style and verified from its EPR file.
  Every exported netlist also goes through ``simulate_verilog``.

A job is done only when the CLI succeeded and its artifacts pass the
independent checks in :mod:`oracle`.  A job is *wrong* when it delivered
an artifact or value that the oracles refute; a refusal of a correct design
is a failed job but not a wrong one.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import oracle as orc

WIDTHS = {
    "synth": (16, 32, 64, 128),
    "datagen": (16, 32, 48, 64),
    "verify": (16, 32, 64, 128),
}
PROFILES = ("uniform", "lsb-first", "random")
LOOSE, TIGHT = 1.3, 1.0  # synth targets as multiples of the Sklansky delay
DATAGEN_SAMPLES = 8
DATAGEN_EPS = 1.0
DATAGEN_THRESHOLD = 6  # completed depth may exceed the ridge by this much
TEXTBOOK = ("sklansky", "kogge-stone", "brent-kung")
RANDOM_DESIGNS = 2  # seeded random completed backbones per verify width
SIM_VECTORS = 8  # simulate_verilog calls per exported netlist
ORACLE_LANES = 1024  # random lanes on top of the carry-chain lanes


@dataclass(frozen=True)
class Baseline:
    """QoR yardsticks for one width and profile."""

    best_delay: float  # best of the three textbook adders under the profile
    bk_area: int


@dataclass
class Job:
    kind: str
    width: int
    label: str
    argv: list
    arrivals: tuple = ()
    target: str = ""
    baseline: Baseline | None = None
    sim_pairs: tuple = ()


@dataclass
class Outcome:
    job: Job
    seconds: float
    done: bool = False
    wrong: bool = False
    reason: str = ""
    qor: list = field(default_factory=list)  # (delay, area, level ratios, met)
    dead_nodes: int = 0
    samples_bytes: int = 0
    requested: int = 0
    written: int = 0


@dataclass
class Plan:
    workload: str
    seed: int
    workdir: str
    jobs: list
    vectors: dict  # width -> oracle.Vectors


# -- job lists -------------------------------------------------------------------


def _profile(name: str, width: int, rng: random.Random, workdir: str):
    """CLI profile argument and the arrival times it stands for."""
    if name != "random":
        return name, orc.preset_profile(name, width)
    high = width / 8 * orc.MODEL.step
    times = tuple(round(rng.uniform(0.0, high), 4) for _ in range(width))
    path = os.path.join(workdir, f"profile-{width}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}, {t}\n" for i, t in enumerate(times)))
    return path, times


def _checked_textbook(lib, width: int, vec: orc.Vectors) -> dict:
    """Textbook adders from the library, confirmed by the oracle."""
    graphs = {}
    for name in TEXTBOOK:
        graph = getattr(lib.structures, name.replace("-", "_") + "_graph")(width)
        parents = {tuple(n): (tuple(u), tuple(l)) for n, (u, l) in graph.parents.items()}
        if orc.structure_errors(width, parents) or orc.graph_bad_lanes(width, parents, vec):
            raise orc.OracleError(f"library {name} adder at {width} bits is wrong")
        graphs[name] = parents
    return graphs


def plan_synth(lib, seed: int, workdir: str, widths) -> Plan:
    rng = random.Random(seed)
    jobs, vectors = [], {}
    for w in widths:
        vectors[w] = orc.make_vectors(w, ORACLE_LANES, seed)
        textbook = _checked_textbook(lib, w, vectors[w])
        for prof in PROFILES:
            spec, arrivals = _profile(prof, w, rng, workdir)
            delays = {n: orc.graph_delay(w, p, arrivals) for n, p in textbook.items()}
            base = Baseline(min(delays.values()), len(textbook["brent-kung"]))
            common = ["--bits", str(w), "--profile", spec, "--seed", str(seed), "--target"]
            for kind, factor in (("synthesize", LOOSE), ("eval", TIGHT)):
                target = f"{delays['sklansky'] * factor:.4f}"
                jobs.append(Job(kind, w, f"{w}/{prof}", [kind, *common, target],
                                arrivals, target, base))
    return Plan("synth", seed, workdir, jobs, vectors)


def plan_datagen(lib, seed: int, workdir: str, widths) -> Plan:
    rng = random.Random(seed)
    jobs = []
    for w in widths:
        for prof in PROFILES:
            spec, arrivals = _profile(prof, w, rng, workdir)
            argv = [
                "datagen", "--bits", str(w), "--profile", spec, "--seed", str(seed),
                "--samples", str(DATAGEN_SAMPLES), "--eps-scale", str(DATAGEN_EPS),
                "--threshold", str(DATAGEN_THRESHOLD),
            ]
            jobs.append(Job("datagen", w, f"{w}/{prof}", argv, arrivals))
    return Plan("datagen", seed, workdir, jobs, {})


def random_backbone(width: int, rng: random.Random) -> dict:
    """A binary tree over bits 0..width-1 with uniformly drawn split points."""
    parents = {}

    def build(lo: int, hi: int) -> tuple:
        if lo == hi:
            return (hi, hi, 0)
        k = rng.randint(lo + 1, hi)
        parents[(hi, lo, 0)] = (build(k, hi), build(lo, k - 1))
        return (hi, lo, 0)

    build(0, width - 1)
    return parents


def plan_verify(lib, seed: int, workdir: str, widths) -> Plan:
    rng = random.Random(seed)
    Node = lib.graph.Node
    jobs, vectors = [], {}
    for w in widths:
        vec = vectors[w] = orc.make_vectors(w, ORACLE_LANES, seed)
        designs = [
            (name, getattr(lib.structures, name.replace("-", "_") + "_graph")(w))
            for name in TEXTBOOK
        ]
        for r in range(RANDOM_DESIGNS):
            tree = random_backbone(w, rng)
            bb = lib.backbone.Backbone.from_parents(
                w, {Node(*n): (Node(*u), Node(*l)) for n, (u, l) in tree.items()}
            )
            designs.append((f"random{r}", lib.backbone.complete(bb)))
        for name, graph in designs:
            text = lib.epr.render_epr(graph)
            errors = orc.check_epr(text, vec)[2]
            if errors:
                raise orc.OracleError(f"set-up EPR of {name} at {w} bits: {errors[0]}")
            path = os.path.join(workdir, f"{name}-{w}.epr")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            source = ["--structure", name] if name in TEXTBOOK else ["--input", path]
            for style in ("plain", "inverting"):
                pairs = (((1 << w) - 1, 1),) + tuple(
                    (rng.getrandbits(w), rng.getrandbits(w)) for _ in range(SIM_VECTORS - 1)
                )
                argv = ["export", "--bits", str(w), *source, "--style", style]
                jobs.append(Job("export", w, f"{w}/{name}/{style}", argv, sim_pairs=pairs))
            jobs.append(Job("verify", w, f"{w}/{name}", ["verify", path, "--seed", str(seed)]))
    return Plan("verify", seed, workdir, jobs, vectors)


PLANNERS = {"synth": plan_synth, "datagen": plan_datagen, "verify": plan_verify}


# -- running one job ---------------------------------------------------------------


def run_job(lib, plan: Plan, job: Job, tracer=None) -> Outcome:
    """Run one job in-process, time it, then check its artifacts untimed."""
    out_dir = tempfile.mkdtemp(dir=plan.workdir)
    argv = list(job.argv) if job.kind == "verify" else [*job.argv, "--out", out_dir]
    call = tracer.span if tracer is not None else (lambda name, fn, *a: fn(*a))
    sims: list = []

    def body() -> int:
        rc = call("cli.main", lib.cli.main, argv)
        if rc == 0 and job.sim_pairs:
            with open(os.path.join(out_dir, "design.v"), encoding="utf-8") as fh:
                text = fh.read()
            sims.extend(lib.dataio.simulate_verilog(text, a, b) for a, b in job.sim_pairs)
        return rc

    stdout, stderr = io.StringIO(), io.StringIO()
    crash = ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = call("job", body)
    except SystemExit as exc:  # argparse rejects an argument list
        rc = exc.code
    except Exception:  # a crashing job is a failed job, not a crashed run
        rc, crash = None, traceback.format_exc(limit=-3)
    outcome = Outcome(job, perf_counter() - start)
    try:
        if rc != 0:
            lines = (stderr.getvalue() or crash).strip().splitlines()
            outcome.reason = f"exit {rc}: {lines[-1][:160] if lines else ''}"
            if job.kind == "verify" and rc == 1:
                outcome.reason = "refused a design the oracle accepts; " + outcome.reason
        else:
            CHECKS[job.kind](plan, job, out_dir, stdout.getvalue(), sims, outcome)
            outcome.done = not outcome.reason
    except (orc.OracleError, OSError, ValueError, TypeError, KeyError, IndexError) as exc:
        outcome.wrong = True
        outcome.reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    return outcome


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return fh.read()


def _refute(outcome: Outcome, reason: str) -> None:
    outcome.wrong = True
    outcome.reason = outcome.reason or reason


_CSV_HEADER = "target,area,delay,slack,size,level,deficiency"


def _check_row(job: Job, line: str, outcome: Outcome) -> tuple:
    fields = line.split(",")
    if len(fields) != 7 or fields[0] != job.target:
        _refute(outcome, f"report row {line!r} does not match target {job.target}")
        return ()
    delay, slack = float(fields[2]), float(fields[3])
    area, size, level, deficiency = (int(x) for x in (fields[1], *fields[4:]))
    if area != size or deficiency != size + level - (2 * job.width - 2):
        _refute(outcome, f"report row {line!r} is inconsistent")
    if abs(float(job.target) - delay - slack) > 1.5e-4:
        _refute(outcome, f"report row {line!r}: slack != target - delay")
    return delay, area, level, slack


def check_synthesize(plan, job, out_dir, stdout, sims, outcome) -> None:
    vec = plan.vectors[job.width]
    epr, rc, errors = orc.check_epr(_read(out_dir, "design.epr"), vec)
    if errors:
        return _refute(outcome, f"design.epr: {errors[0]}")
    outcome.dead_nodes = rc.dead_nodes
    bad = orc.netlist_bad_lanes(_read(out_dir, "design.v"), vec)
    if bad:
        _refute(outcome, f"design.v: {bad} of {vec.lanes} vectors wrong")
    csv = _read(out_dir, "report.csv").splitlines()
    if len(csv) != 2 or csv[0] != _CSV_HEADER:
        return _refute(outcome, "report.csv is not one header and one row")
    row = _check_row(job, csv[1], outcome)
    if row:
        delay, area, level, _ = row
        if (area, level) != (rc.area, rc.level):
            _refute(outcome, f"report says area {area} level {level}, "
                             f"EPR recount {rc.area} {rc.level}")
        want = orc.graph_delay(job.width, epr.parents, job.arrivals)
        if abs(want - delay) > 6e-5:
            _refute(outcome, f"report delay {delay} != recomputed {want:.5f}")
    tree = orc.serial_backbone(job.width)
    for line in _read(out_dir, "trace.txt").splitlines():
        parts = line.split()
        if parts and parts[0] == "regroup":
            a0, a1, b0, b1 = (int(x) for x in parts[1:5])
            orc.rotate(tree, (a0, a1), (b0, b1))
    if any((m, l, 0) not in epr.parents for m, l in tree):
        _refute(outcome, "trace.txt replays to a backbone the design lacks")


def check_eval(plan, job, out_dir, stdout, sims, outcome) -> None:
    csv = _read(out_dir, "report.csv")
    if not stdout.startswith(csv):
        _refute(outcome, "report.csv differs from the CSV on stdout")
    lines = csv.splitlines()
    if len(lines) != 2 or lines[0] != _CSV_HEADER:
        return _refute(outcome, "report.csv is not one header and one row")
    row = _check_row(job, lines[1], outcome)
    if row:
        delay, area, level, slack = row
        base = job.baseline
        outcome.qor.append((delay / base.best_delay, area / base.bk_area,
                            level / orc.min_level(job.width), slack >= 0))


_TOKEN = re.compile(r"\((\d+),(\d+)\)")
_ROOT_ARRIVAL = re.compile(r"^\((\d+),0\) \[arrival=([0-9.]+)\]$", re.M)
_DATAGEN_OUT = re.compile(r"generated=(\d+) unique=(\d+) kept=(\d+) written=(\d+)")


def _pair(token: str) -> tuple:
    m = _TOKEN.fullmatch(token)
    if m is None:
        raise orc.OracleError(f"bad node token {token!r}")
    return int(m.group(1)), int(m.group(2))


def check_datagen(plan, job, out_dir, stdout, sims, outcome) -> None:
    m = _DATAGEN_OUT.search(stdout)
    if m is None:
        return _refute(outcome, "datagen printed no summary")
    outcome.requested = DATAGEN_SAMPLES
    outcome.written = int(m.group(4))
    path = os.path.join(out_dir, "samples.jsonl")
    outcome.samples_bytes = os.path.getsize(path)
    w = job.width
    shapes = set()
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:  # one sample per line; keeps the check's memory small
            count += 1
            sample = json.loads(line)
            turns = sample["turns"]
            if sample["width"] != w or not sample["system"] or not turns:
                return _refute(outcome, f"sample {count} is malformed")
            tree = orc.serial_backbone(w)
            for turn in turns[:-1]:
                call = turn["call"]
                if call["tool"] != "regroup":
                    return _refute(outcome, f"sample {count}: unexpected {call['tool']}")
                orc.rotate(tree, _pair(call["args"]["a"]), _pair(call["args"]["b"]))
            if turns[-1]["call"]["tool"] != "finish1" or \
                    sample["metadata"]["steps"] != len(turns) - 1:
                return _refute(outcome, f"sample {count} does not end in one finish1")
            if orc.completion_overshoot(tree, w) > DATAGEN_THRESHOLD:
                return _refute(outcome, f"sample {count} exceeds the threshold")
            shape = frozenset(tree.items())
            if shape in shapes:
                return _refute(outcome, f"sample {count} repeats an earlier shape")
            shapes.add(shape)
            stated = _ROOT_ARRIVAL.search(turns[-1]["state"])
            want = orc.backbone_cost(tree, w, job.arrivals)
            if stated is None or int(stated.group(1)) != w - 1 \
                    or abs(float(stated.group(2)) - want) > 6e-5:
                return _refute(outcome, f"sample {count}: root arrival is not {want:.4f}")
    if count != outcome.written:
        _refute(outcome, f"{count} samples in the file, {outcome.written} reported")


def check_export(plan, job, out_dir, stdout, sims, outcome) -> None:
    vec = plan.vectors[job.width]
    bad = orc.netlist_bad_lanes(_read(out_dir, "design.v"), vec)
    if bad:
        return _refute(outcome, f"design.v: {bad} of {vec.lanes} vectors wrong")
    if "--structure" in job.argv:
        _, rc, errors = orc.check_epr(_read(out_dir, "design.epr"), vec)
        if errors:
            return _refute(outcome, f"design.epr: {errors[0]}")
        outcome.dead_nodes = rc.dead_nodes
    top = (1 << job.width) - 1
    for (a, b), got in zip(job.sim_pairs, sims):
        if got != ((a + b) & top, (a + b) >> job.width):
            return _refute(outcome, f"simulate_verilog({a}, {b}) returned {got}")
    if len(sims) != len(job.sim_pairs):
        _refute(outcome, "simulate_verilog was not run on every vector")


def check_verify(plan, job, out_dir, stdout, sims, outcome) -> None:
    if not stdout.startswith("verify: ok"):
        _refute(outcome, "verify exited 0 without reporting ok")


CHECKS = {
    "synthesize": check_synthesize,
    "eval": check_eval,
    "datagen": check_datagen,
    "export": check_export,
    "verify": check_verify,
}


def run_pass(lib, plan: Plan, tracer=None, tag: str = "") -> list:
    """One closed-loop pass over the job list with a single client."""
    outcomes = []
    for i, job in enumerate(plan.jobs):
        if tracer is not None:
            tracer.job = f"{tag}j{i}"
        outcomes.append(run_job(lib, plan, job, tracer))
    return outcomes
