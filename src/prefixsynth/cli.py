"""Command-line front end.

Five subcommands wire the pipeline together: ``synthesize`` runs the
two-phase loop and writes artifacts, ``datagen`` produces training samples
from e-graph extractions, ``eval`` sweeps a target schedule into a CSV
report, ``export`` emits Verilog for a stored or textbook design, and
``verify`` checks a stored design against integer addition.

Exit codes: 0 success, 1 invalid configuration or failed verification,
2 policy abort (the aborted run's partial ``trace.txt`` is written).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from .backbone import complete, init_serial
from .dataio import emit_report, emit_samples, emit_verilog, synthesize_samples
from .epr import EprParseError, parse_epr, render_epr
from .esat import (
    extract_optimal,
    extract_perturbed,
    filter_low_deficiency,
    saturate,
)
from .graph import (
    PrefixGraph,
    exhaustive_addition_check,
    random_addition_check,
    validate,
)
from .policy import (
    Action,
    BackboneWalkPolicy,
    CriticalPathRefinePolicy,
    Phase1Result,
    Phase2Result,
    Policy,
    PolicyAbort,
    PolicyError,
    RemoteEndpoint,
    RemoteLlmPolicy,
    ScriptedPolicy,
    parse_script,
    run_phase1,
    run_phase2,
)
from .structures import (
    brent_kung_graph,
    kogge_stone_graph,
    serial_graph,
    sklansky_graph,
)
from .timing import ArrivalProfile, DelayModel, SweepRow, graph_arrivals

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
        """``datagen`` parses neither ``--max-iters`` nor ``--policy``; its
        config carries their defaults, so it records its samples at the
        budget that serving uses by default."""
        _check_width(args.bits)
        max_iters = getattr(args, "max_iters", None)
        if max_iters is None:
            max_iters = max(64, args.bits)
        if max_iters < 1:
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
        target = None if args.target is None else _parse_target(args.target)
        return cls(
            width=args.bits,
            profile=profile,
            model=model,
            seed=args.seed,
            target=target,
            max_iters=max_iters,
            policy_spec=getattr(args, "policy", "offline"),
            out=args.out,
        )


def _check_width(bits: int) -> None:
    if not 2 <= bits <= 256:
        raise ConfigError(f"--bits must be in [2, 256], got {bits}")


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
        text = _read_input(spec, "profile")
        try:
            profile = ArrivalProfile.from_text(text)
        except ValueError as exc:
            raise _located(spec, exc) from exc
        if len(profile) != width:
            raise ConfigError(
                f"profile file has {len(profile)} arrivals for width {width}"
            )
        return profile
    try:
        return ArrivalProfile.preset(spec, width, model, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_policies(cfg: RunConfig) -> Callable[[], tuple[Policy, Policy]]:
    """Read the policy's inputs once and return a maker of fresh
    ``(phase 1, phase 2)`` policies, one pair per run: a scripted policy is
    used up as it replays."""
    spec = cfg.policy_spec
    if spec == "offline":
        optimum = extract_optimal(saturate(init_serial(cfg.width)), cfg.profile, cfg.model)
        return lambda: (BackboneWalkPolicy(optimum), CriticalPathRefinePolicy())
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        text = _read_input(path, "script")
        try:
            phase1, phase2 = parse_script(text)
        except PolicyError as exc:
            raise _located(path, exc) from exc
        return lambda: (ScriptedPolicy(phase1), ScriptedPolicy(phase2))
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
        return lambda: (policy, policy)
    raise ConfigError(f"unknown policy {spec!r}")


def _read_input(path: str, what: str) -> str:
    """Text of an input file; one that cannot be read or is not UTF-8 is a
    config error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _located(path: str, exc: Exception) -> ConfigError:
    """``FILE:LINE: message`` for a parser error reading ``line N: message``."""
    line, sep, message = str(exc).partition(": ")
    if sep and line.startswith("line ") and line[5:].isdigit():
        return ConfigError(f"{path}:{line[5:]}: {message}")
    return ConfigError(f"{path}: {exc}")


def _create(out_dir: str, name: str) -> TextIO:
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, name), "w", encoding="utf-8")


def _write(out_dir: str, name: str, content: str) -> str:
    with _create(out_dir, name) as fh:
        fh.write(content)
    return fh.name


def _check_addition(graph: PrefixGraph, seed: int) -> list[tuple[int, int]]:
    if graph.width <= _EXHAUSTIVE_LIMIT:
        return exhaustive_addition_check(graph)
    return random_addition_check(graph, count=_RANDOM_VECTORS, seed=seed)


def _trace_text(p1: Phase1Result, p2: Phase2Result | None) -> str:
    actions = list(p1.trace.steps)
    if p1.finished:
        actions.append(Action("finish1"))
    if p2 is not None:
        actions += p2.actions
        if p2.finished:
            actions.append(Action("finish2"))
    return "".join(action.to_line() + "\n" for action in actions)


def _synthesize(
    cfg: RunConfig,
    target: float | None,
    policies: Callable[[], tuple[Policy, Policy]],
) -> tuple[Phase1Result, Phase2Result]:
    """Phase 1, completion and phase 2 for one target.  When a phase aborts,
    the partial ``trace.txt`` is written to the output directory."""
    phase1, phase2 = policies()
    try:
        p1 = run_phase1(cfg.width, cfg.profile, target, cfg.max_iters, phase1, cfg.model)
        p2 = run_phase2(
            complete(p1.backbone), target, cfg.max_iters, phase2, cfg.profile, cfg.model
        )
    except PolicyAbort as exc:
        if exc.phase == 1:
            text = _trace_text(exc.partial, None)
        else:
            text = _trace_text(p1, exc.partial)
        _write(cfg.out or ".", "trace.txt", text)
        raise
    return p1, p2


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    p1, p2 = _synthesize(cfg, cfg.target, _resolve_policies(cfg))
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

    out = cfg.out or "."
    timing = graph_arrivals(graph, cfg.profile, cfg.model, cfg.target)
    row = SweepRow.from_report(graph, timing)
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
    shapes = []
    if args.samples:
        egraph = saturate(init_serial(cfg.width))
        shapes = [
            extract_perturbed(egraph, cfg.profile, cfg.model, cfg.seed + i, args.eps_scale)
            for i in range(args.samples)
        ]
    unique = list(dict.fromkeys(shapes))
    kept = filter_low_deficiency(unique, args.threshold)
    written = 0
    # One backbone at a time, so only one sample's text is held at once.
    with _create(out, "samples.jsonl") as fh:
        for bb in kept:
            samples = synthesize_samples(
                [bb], cfg.profile, cfg.model, cfg.target, max_iters=cfg.max_iters
            )
            fh.write(emit_samples(samples))
            written += len(samples)
    print(
        f"datagen: generated={len(shapes)} unique={len(unique)} "
        f"kept={len(kept)} written={written} -> {fh.name}"
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
    policies = _resolve_policies(cfg)
    rows = []
    for target in targets:
        graph = _synthesize(cfg, target, policies)[1].graph
        timing = graph_arrivals(graph, cfg.profile, cfg.model, target)
        rows.append(SweepRow.from_report(graph, timing))
    csv_text = emit_report(rows)
    path = _write(cfg.out or ".", "report.csv", csv_text)
    sys.stdout.write(csv_text)
    print(f"eval: wrote {path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    _check_width(args.bits)
    out = args.out or "."
    if args.input is not None:
        graph = parse_epr(_read_input(args.input, "design"))
    else:
        graph = _STRUCTURES[args.structure](args.bits)
        _write(out, "design.epr", render_epr(graph))
    path = _write(out, "design.v", emit_verilog(graph, style=args.style))
    print(f"export: wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    graph = parse_epr(_read_input(args.design, "design"))
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
    # Each subcommand takes only the options it reads: export a width and an
    # output directory, datagen also the timing setup, and synthesize and eval
    # also a policy and a decision budget.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--bits", type=int, default=16, help="operand width N")
    output.add_argument("--out", default=None, help="output directory")

    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument(
        "--profile",
        default="uniform",
        help="arrival profile: uniform | lsb-first | random | path to a profile file",
    )
    timed.add_argument("--seed", type=int, default=0, help="seed for random choices")
    timed.add_argument("--target", default=None, help="target delay (eval: comma list)")
    timed.add_argument("--model-d", type=float, default=0.030, help="node delay d")
    timed.add_argument("--model-lambda", type=float, default=0.005, help="margin per level")
    timed.add_argument("--model-beta", type=float, default=0.005, help="fanout penalty")
    timed.add_argument("--model-k", type=float, default=0.0, help="delay intercept")

    looped = argparse.ArgumentParser(add_help=False)
    looped.add_argument(
        "--max-iters",
        type=int,
        default=None,
        help="decision budget per phase (default: the larger of 64 and --bits)",
    )
    looped.add_argument(
        "--policy",
        default="offline",
        help="offline | scripted:FILE | remote[:CONFIG]",
    )

    parser = argparse.ArgumentParser(
        prog="prefixsynth", description="Prefix-adder synthesis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "synthesize", parents=[output, timed, looped], help="run the two-phase loop"
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("datagen", parents=[output, timed], help="emit training samples")
    p.add_argument("--samples", type=int, default=10, help="number of extraction seeds")
    p.add_argument("--eps-scale", type=float, default=1.0, help="extraction noise scale")
    p.add_argument(
        "--threshold", type=int, default=0, help="allowed completed-level overshoot"
    )
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser(
        "eval", parents=[output, timed, looped], help="sweep targets into a CSV report"
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", parents=[output], help="emit Verilog for a design")
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
    except PolicyAbort as exc:
        print(f"{args.command}: phase {exc.phase} aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
