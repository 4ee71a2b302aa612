"""Command-line front end.

Five subcommands wire the pipeline together: ``synthesize`` runs the
two-phase loop and writes artifacts, ``datagen`` produces training samples
from e-graph extractions, ``eval`` sweeps a target schedule into a CSV
report, ``export`` emits Verilog for a stored or textbook design, and
``verify`` checks a stored design against integer addition.

Exit codes: 0 success, 1 invalid configuration or failed verification,
2 policy abort (partial trace written when an output directory is set).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .backbone import complete
from .dataio import emit_report, emit_samples, emit_verilog, synthesize_samples
from .epr import EprParseError, parse_epr, render_epr
from .esat import derive_trace, extract_perturbed, filter_low_deficiency, saturate
from .graph import (
    PrefixGraph,
    exhaustive_addition_check,
    random_addition_check,
    validate,
)
from .lang import backbone_to_expr
from .policy import (
    CriticalPathRefinePolicy,
    GreedyBackbonePolicy,
    Phase1Result,
    Phase2Result,
    Policy,
    PolicyAbort,
    PolicyError,
    RemoteEndpoint,
    RemoteLlmPolicy,
    ScriptedPolicy,
    run_phase1,
    run_phase2,
)
from .refine import parse_action_log
from .structures import (
    brent_kung_graph,
    kogge_stone_graph,
    serial_graph,
    sklansky_graph,
)
from .timing import ArrivalProfile, DelayModel, graph_arrivals, pareto_sweep
from .esat import RegroupTrace

__all__ = ["RunConfig", "ConfigError", "main"]

_EXHAUSTIVE_LIMIT = 10
_RANDOM_VECTORS = 100_000

_STRUCTURES = {
    "serial": serial_graph,
    "sklansky": sklansky_graph,
    "kogge-stone": kogge_stone_graph,
    "brent-kung": brent_kung_graph,
}


class ConfigError(Exception):
    """A run configuration the pipeline cannot act on."""


@dataclass
class RunConfig:
    """Validated knobs shared by the pipeline subcommands."""

    width: int
    profile: ArrivalProfile
    model: DelayModel
    seed: int
    target: float | None
    max_iters: int
    policy_spec: str
    out: str | None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> RunConfig:
        if not 2 <= args.bits <= 256:
            raise ConfigError(f"--bits must be in [2, 256], got {args.bits}")
        if args.max_iters < 1:
            raise ConfigError("--max-iters must be >= 1")
        try:
            model = DelayModel(
                node_delay=args.model_d,
                margin=args.model_lambda,
                fanout_penalty=args.model_beta,
                intercept=args.model_k,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        profile = _resolve_profile(args.profile, args.bits, model, args.seed)
        target = None
        if getattr(args, "target", None) is not None:
            target = _parse_target(args.target)
        return cls(
            width=args.bits,
            profile=profile,
            model=model,
            seed=args.seed,
            target=target,
            max_iters=args.max_iters,
            policy_spec=args.policy,
            out=args.out,
        )


def _parse_target(text: str) -> float:
    try:
        target = float(text)
    except ValueError as exc:
        raise ConfigError(f"--target must be a number: {text!r}") from exc
    if not math.isfinite(target) or target < 0:
        raise ConfigError(f"--target must be a finite delay >= 0, got {text!r}")
    return target


def _resolve_profile(
    spec: str, width: int, model: DelayModel, seed: int
) -> ArrivalProfile:
    if os.path.isfile(spec):
        with open(spec, encoding="utf-8") as fh:
            profile = ArrivalProfile.from_text(fh.read())
        if len(profile) != width:
            raise ConfigError(
                f"profile file has {len(profile)} arrivals for width {width}"
            )
        return profile
    try:
        return ArrivalProfile.preset(spec, width, model, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_policies(cfg: RunConfig) -> tuple[Policy, Policy]:
    spec = cfg.policy_spec
    if spec == "greedy":
        return GreedyBackbonePolicy(), CriticalPathRefinePolicy()
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read script {path}: {exc}") from exc
        phase1_text, phase2_text = _split_script(text)
        trace = RegroupTrace.from_text(cfg.width, phase1_text)
        actions = parse_action_log(phase2_text)
        return ScriptedPolicy.from_trace(trace), ScriptedPolicy.from_actions(actions)
    if spec == "remote" or spec.startswith("remote:"):
        try:
            endpoint = (
                RemoteEndpoint.from_config(spec.split(":", 1)[1])
                if ":" in spec
                else RemoteEndpoint.from_env()
            )
        except (PolicyError, OSError) as exc:
            raise ConfigError(str(exc)) from exc
        policy = RemoteLlmPolicy(endpoint)
        return policy, policy
    raise ConfigError(f"unknown policy {spec!r}")


def _split_script(text: str) -> tuple[str, str]:
    """Split a scripted-policy file at its finish1 line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip().split()[:1] == ["finish1"]:
            return "\n".join(lines[: i + 1]), "\n".join(lines[i + 1 :])
    return text, ""


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return path


def _check_addition(graph: PrefixGraph, seed: int) -> list[tuple[int, int]]:
    if graph.width <= _EXHAUSTIVE_LIMIT:
        return exhaustive_addition_check(graph)
    return random_addition_check(graph, count=_RANDOM_VECTORS, seed=seed)


def _trace_text(p1: Phase1Result, p2: Phase2Result | None) -> str:
    parts = [p1.trace.to_text()]
    if p1.finished:
        parts.append("finish1\n")
    if p2 is not None:
        parts.extend(a.render() + "\n" for a in p2.actions)
        if p2.finished:
            parts.append("finish2\n")
    return "".join(parts)


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    phase1_policy, phase2_policy = _resolve_policies(cfg)
    out = cfg.out or "."
    try:
        p1 = run_phase1(
            cfg.width, cfg.profile, cfg.target, cfg.max_iters, phase1_policy, cfg.model
        )
    except PolicyAbort as exc:
        partial: Phase1Result = exc.partial
        _write(out, "trace.txt", _trace_text(partial, None))
        print(f"synthesize: phase 1 aborted: {exc}", file=sys.stderr)
        return 2
    graph = complete(p1.backbone)
    try:
        p2 = run_phase2(
            graph, cfg.target, cfg.max_iters, phase2_policy, cfg.profile, cfg.model
        )
    except PolicyAbort as exc:
        partial2: Phase2Result = exc.partial
        _write(out, "trace.txt", _trace_text(p1, partial2))
        print(f"synthesize: phase 2 aborted: {exc}", file=sys.stderr)
        return 2
    graph = p2.graph

    report = validate(graph)
    if not report.ok:
        print("synthesize: produced an invalid graph:", file=sys.stderr)
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    mismatches = _check_addition(graph, cfg.seed)
    if mismatches:
        print(f"synthesize: addition check failed: {mismatches[:3]}", file=sys.stderr)
        return 1

    timing = graph_arrivals(graph, cfg.profile, cfg.model, cfg.target)
    from .graph import deficiency
    from .timing import SweepRow

    row = SweepRow(
        target=cfg.target if cfg.target is not None else timing.delay,
        area=timing.area,
        delay=timing.delay,
        slack=timing.slack if timing.slack is not None else 0.0,
        size=graph.size,
        level=graph.depth,
        deficiency=deficiency(graph),
    )
    _write(out, "design.epr", render_epr(graph))
    _write(out, "design.v", emit_verilog(graph, style="plain"))
    _write(out, "trace.txt", _trace_text(p1, p2))
    _write(out, "report.csv", emit_report([row]))
    slack_text = "n/a" if timing.slack is None else f"{timing.slack:.4f}"
    print(
        f"synthesize: width={cfg.width} delay={timing.delay:.4f} "
        f"slack={slack_text} size={graph.size} level={graph.depth}"
    )
    return 0


def cmd_datagen(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    if args.samples < 0:
        raise ConfigError("--samples must be >= 0")
    if args.eps_scale < 0:
        raise ConfigError("--eps-scale must be >= 0")
    if args.threshold < 0:
        raise ConfigError("--threshold must be >= 0")
    out = cfg.out or "."
    from .backbone import init_serial

    exprs = []
    if args.samples:
        egraph = saturate(backbone_to_expr(init_serial(cfg.width)))
        exprs = [
            extract_perturbed(egraph, cfg.profile, cfg.model, cfg.seed + i, args.eps_scale)
            for i in range(args.samples)
        ]
    unique = list(dict.fromkeys(exprs))
    kept = filter_low_deficiency(unique, args.threshold)
    traces = [derive_trace(e) for e in kept]
    samples, diagnostics = synthesize_samples(
        traces, cfg.width, cfg.profile, cfg.model, cfg.target
    )
    path = _write(out, "samples.jsonl", emit_samples(samples))
    for diag in diagnostics:
        print(f"datagen: skipped {diag}", file=sys.stderr)
    print(
        f"datagen: generated={len(exprs)} unique={len(unique)} "
        f"kept={len(kept)} written={len(samples)} -> {path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    raw_targets = args.target
    args.target = None
    cfg = RunConfig.from_args(args)
    if raw_targets is None:
        raise ConfigError("eval needs --target with one or more comma-separated delays")
    targets = [_parse_target(t) for t in str(raw_targets).split(",") if t.strip()]
    if not targets:
        raise ConfigError("empty --target list")
    out = cfg.out or "."

    def synthesize_at(target: float) -> PrefixGraph:
        p1 = run_phase1(
            cfg.width, cfg.profile, target, cfg.max_iters, GreedyBackbonePolicy(), cfg.model
        )
        graph = complete(p1.backbone)
        p2 = run_phase2(
            graph, target, cfg.max_iters, CriticalPathRefinePolicy(), cfg.profile, cfg.model
        )
        return p2.graph

    rows = pareto_sweep(synthesize_at, targets, cfg.profile, cfg.model)
    csv_text = emit_report(rows)
    path = _write(out, "report.csv", csv_text)
    sys.stdout.write(csv_text)
    print(f"eval: wrote {path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    out = cfg.out or "."
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            graph = parse_epr(fh.read())
    else:
        builder = _STRUCTURES.get(args.structure)
        if builder is None:
            raise ConfigError(f"unknown structure {args.structure!r}")
        graph = builder(cfg.width)
        _write(out, "design.epr", render_epr(graph))
    path = _write(out, "design.v", emit_verilog(graph, style=args.style))
    print(f"export: wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.design, encoding="utf-8") as fh:
        graph = parse_epr(fh.read())
    report = validate(graph)
    if not report.ok:
        for v in report.violations:
            print(f"verify: {v}", file=sys.stderr)
        return 1
    mismatches = _check_addition(graph, args.seed)
    if mismatches:
        print(f"verify: addition mismatches: {mismatches[:5]}", file=sys.stderr)
        return 1
    kind = (
        "exhaustive" if graph.width <= _EXHAUSTIVE_LIMIT else f"{_RANDOM_VECTORS} random"
    )
    print(f"verify: ok ({kind} vectors, width {graph.width})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=int, default=16, help="operand width N")
    common.add_argument(
        "--profile",
        default="uniform",
        help="arrival profile: uniform | lsb-first | random | path to a profile file",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for random choices")
    common.add_argument("--target", default=None, help="target delay (eval: comma list)")
    common.add_argument("--max-iters", type=int, default=64, help="decision budget per phase")
    common.add_argument(
        "--policy",
        default="greedy",
        help="greedy | scripted:FILE | remote[:CONFIG]",
    )
    common.add_argument("--model-d", type=float, default=0.030, help="node delay d")
    common.add_argument("--model-lambda", type=float, default=0.005, help="margin per level")
    common.add_argument("--model-beta", type=float, default=0.005, help="fanout penalty")
    common.add_argument("--model-k", type=float, default=0.0, help="delay intercept")
    common.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="prefixsynth", description="Prefix-adder synthesis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", parents=[common], help="run the two-phase loop")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("datagen", parents=[common], help="emit training samples")
    p.add_argument("--samples", type=int, default=10, help="number of extraction seeds")
    p.add_argument("--eps-scale", type=float, default=1.0, help="extraction noise scale")
    p.add_argument(
        "--threshold", type=int, default=0, help="allowed completed-level overshoot"
    )
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("eval", parents=[common], help="sweep targets into a CSV report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", parents=[common], help="emit Verilog for a design")
    p.add_argument("--input", default=None, help="stored design to export")
    p.add_argument(
        "--structure",
        default="sklansky",
        choices=sorted(_STRUCTURES),
        help="textbook structure to build when no --input is given",
    )
    p.add_argument("--style", default="plain", choices=["plain", "inverting"])
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="check a stored design against addition")
    p.add_argument("design", help="design file to verify")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EprParseError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
