"""Span tracing of the library's layers from outside the library.

:meth:`Tracer.install` wraps the public functions of each traced module (and
the policies' ``decide`` methods) in every ``prefixsynth`` namespace that
holds them, since the modules import each other with ``from .x import f``.
Each call records a span ``(name, start, end, parent, job)`` in memory;
:meth:`Tracer.write` saves them when the run ends.  Per-layer self time is a
span's duration minus its children's; spans of public helpers that no
reported layer names fold their self time into the nearest reported caller.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter_ns

from oracle import graph_bad_lanes, vectors_from_pairs

MODULES = (
    "esat", "lang", "backbone", "timing", "policy",
    "refine", "epr", "graph", "dataio", "structures",
)

# Leaf helpers called once per token or per tree node: a span costs more
# than the call, so they stay unwrapped and count as their caller's time.
UNWRAPPED = {"graph.parse_node_token", "lang.expr_range", "lang.expr_width"}

# Reported layer -> the traced functions it is made of.
LAYERS = {
    "esat.saturate": ("esat.saturate",),
    "esat.extract": ("esat.extract_optimal", "esat.extract_perturbed"),
    "esat.derive_trace": ("esat.derive_trace",),
    "esat.filter": ("esat.filter_low_deficiency",),
    "lang.convert": (
        "lang.expr_to_backbone", "lang.backbone_to_expr",
        "lang.expr_to_text", "lang.text_to_expr",
    ),
    "backbone.regroup": ("backbone.regroup",),
    "backbone.find_candidates": ("backbone.find_candidates",),
    "backbone.complete": ("backbone.complete",),
    "backbone.to_timed_sexpr": ("backbone.to_timed_sexpr",),
    "timing.backbone_cost": ("timing.backbone_cost",),
    "timing.graph_arrivals": ("timing.graph_arrivals",),
    "policy.run_phase1": ("policy.run_phase1",),
    "policy.run_phase2": ("policy.run_phase2",),
    "policy.decide": ("policy.decide",),
    "policy.prompt": (
        "policy.build_phase1_prompt", "policy.build_phase2_prompt",
        "policy.candidates_text", "policy.system_prompt",
    ),
    "refine.level_opt": ("refine.level_opt",),
    "refine.fanout_opt": ("refine.fanout_opt",),
    "refine.node_clone": ("refine.node_clone",),
    "epr.render_epr": ("epr.render_epr",),
    "epr.parse_epr": ("epr.parse_epr",),
    "epr.critical_path": ("epr.critical_path",),
    "graph.check": (
        "graph.addition_mismatches", "graph.exhaustive_addition_check",
        "graph.random_addition_check",
    ),
    "graph.validate": ("graph.validate",),
    "dataio.synthesize_samples": ("dataio.synthesize_samples",),
    "dataio.emit_samples": ("dataio.emit_samples",),
    "dataio.emit_verilog": ("dataio.emit_verilog",),
    "dataio.simulate_verilog": ("dataio.simulate_verilog",),
    "structures.build": (
        "structures.serial_graph", "structures.sklansky_graph",
        "structures.kogge_stone_graph", "structures.brent_kung_graph",
    ),
    "cli": ("cli.main",),
}
LAYER_OF = {fn: layer for layer, fns in LAYERS.items() for fn in fns}
REFINE_TOOLS = ("refine.level_opt", "refine.fanout_opt", "refine.node_clone")


class Tracer:
    """Records spans and exact counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.setup_counts: Counter = Counter()
        self.job_counts: Counter = Counter()
        self.job = "setup"
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span; direct recursion folds into one span."""
        stack = self._stack
        if stack and self._names[stack[-1]] == name:
            return fn(*args, **kwargs)
        index = len(self._names)
        self._names.append(name)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, key: str, n: float = 1) -> None:
        (self.setup_counts if self.job == "setup" else self.job_counts)[key] += n

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                self.span("trace.hook", hook, self, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every public function of the traced modules, wherever bound."""
        namespaces = [lib.package, lib.cli] + [getattr(lib, m) for m in MODULES]
        for mod_name in MODULES:
            module = getattr(lib, mod_name)
            for attr in module.__all__:
                obj = getattr(module, attr)
                name = f"{mod_name}.{attr}"
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if "decide" in vars(obj):
                        self._patch(obj, "decide", self._wrap("policy.decide", obj.decide))
                    continue
                if not inspect.isfunction(obj) or name in UNWRAPPED:
                    continue
                traced = self._wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,job,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{parent},{job},{name},{start},{end}\n")

    # -- reporting ---------------------------------------------------------------

    def layer_totals(self, passes: int) -> dict[str, float]:
        """Self seconds and call counts per layer for one set-up plus one
        pass: set-up spans count once, job spans are averaged over passes."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_of: list[str] = []
        for name, _, _, parent, _ in spans:
            if name in LAYER_OF:
                layer_of.append(LAYER_OF[name])
            elif name.startswith("trace.") or parent < 0:
                layer_of.append(name)
            else:
                layer_of.append(layer_of[parent])
        # Integer totals, split into set-up and jobs, are divided only once,
        # so counts of identical passes stay exact.
        self_ns = {True: Counter(), False: Counter()}
        calls = {True: Counter(), False: Counter()}
        counts = {True: Counter(self.setup_counts), False: Counter(self.job_counts)}
        for i, (name, start, end, parent, job) in enumerate(spans):
            setup = job == "setup"
            self_ns[setup][layer_of[i]] += end - start - child_ns[i]
            calls[setup][name] += 1
            counts[setup]["trace.spans"] += 1
            if name == "backbone.regroup" and parent >= 0 and spans[parent][0] == "policy.decide":
                counts[setup]["policy.regroups_scored"] += 1

        def per_run(totals: dict, key: str) -> float:
            return totals[True][key] + totals[False][key] / passes

        out = {f"{layer}.s": per_run(self_ns, layer) / 1e9 for layer in set(layer_of)}
        for layer, fns in LAYERS.items():
            out[f"{layer}.calls"] = sum(per_run(calls, f) for f in fns)
        out["refine.attempts"] = sum(per_run(calls, f) for f in REFINE_TOOLS)
        for key in counts[True].keys() | counts[False].keys():
            out[key] = per_run(counts, key)
        return out


# -- hooks: exact counts read off call results ------------------------------------


def _saturate(tracer, args, kwargs, egraph) -> None:
    tracer.count("esat.enodes", egraph.n_enodes)


def _addition_check(vectors_of):
    def hook(tracer, args, kwargs, mismatches) -> None:
        graph = args[0]
        tracer.count("graph.check.vectors", vectors_of(graph, args, kwargs))
        if mismatches:
            vec = vectors_from_pairs(graph.width, list(mismatches))
            if graph_bad_lanes(graph.width, graph.parents, vec) == 0:
                tracer.count("graph.check.false_reject")

    return hook


def _random_count(graph, args, kwargs) -> int:
    return kwargs.get("count", args[1] if len(args) > 1 else 100_000)


def _phase(number: int):
    def hook(tracer, args, kwargs, result) -> None:
        tracer.count(f"policy.phase{number}.iterations", result.iterations)
        tracer.count("policy.rejected", len(result.notes))
        applied = len(result.trace.steps) if number == 1 else len(result.actions)
        tracer.count(f"policy.phase{number}.applied", applied)

    return hook


_HOOKS = {
    "esat.saturate": _saturate,
    "graph.random_addition_check": _addition_check(_random_count),
    "graph.exhaustive_addition_check": _addition_check(lambda g, a, k: 1 << (2 * g.width)),
    "policy.run_phase1": _phase(1),
    "policy.run_phase2": _phase(2),
}
