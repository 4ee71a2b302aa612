"""Training-sample synthesis, structural Verilog export, and CSV reports.

Samples follow the tool-calling chat format: a system prompt plus one turn
per decision, each turn carrying the serialized state, an empty think slot
for external filling, the tool-call record, and the tool feedback.  The
Verilog emitters produce gate-level netlists in two styles; a small netlist
interpreter closes the loop so emitted designs can be checked against
integer addition without external tools.
"""
from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field, replace

from .backbone import RegroupError, init_serial, regroup
from .graph import IncompleteGraphError, Node, PrefixGraph
from .policy import (
    Action,
    DecisionContext,
    RegroupTrace,
    build_phase1_prompt,
    candidates_text,
    system_prompt,
)
from .timing import ArrivalProfile, DelayModel, SweepRow

__all__ = [
    "SampleTurn",
    "TrainingSample",
    "THINK_SLOT",
    "synthesize_samples",
    "emit_samples",
    "parse_samples",
    "SampleFormatError",
    "emit_verilog",
    "simulate_verilog",
    "VerilogError",
    "emit_report",
]

THINK_SLOT = "<think></think>"


class SampleFormatError(Exception):
    """A sample record that does not match the expected JSON shape."""


@dataclass(frozen=True, eq=True)
class SampleTurn:
    """One decision turn: state shown, think slot, tool call, feedback."""

    state: str
    call: dict
    feedback: str
    think: str = THINK_SLOT


@dataclass(frozen=True, eq=True)
class TrainingSample:
    """A full tool-calling conversation derived from one regroup trace."""

    system: str
    width: int
    turns: tuple[SampleTurn, ...]
    metadata: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "system": self.system,
            "width": self.width,
            "turns": [
                {
                    "state": t.state,
                    "think": t.think,
                    "call": t.call,
                    "feedback": t.feedback,
                }
                for t in self.turns
            ],
            "metadata": self.metadata,
        }

    @classmethod
    def from_record(cls, record: dict) -> TrainingSample:
        try:
            turns = tuple(
                SampleTurn(
                    state=t["state"],
                    think=t["think"],
                    call=t["call"],
                    feedback=t["feedback"],
                )
                for t in record["turns"]
            )
            return cls(
                system=record["system"],
                width=record["width"],
                turns=turns,
                metadata=record.get("metadata", {}),
            )
        except (KeyError, TypeError) as exc:
            raise SampleFormatError(f"malformed sample record: {exc}") from exc


def synthesize_samples(
    traces: list[RegroupTrace],
    width: int,
    profile: ArrivalProfile,
    model: DelayModel = DelayModel(),
    target: float | None = None,
) -> tuple[list[TrainingSample], list[str]]:
    """Turn regroup traces into chat-format samples.

    Each regroup step becomes one turn whose feedback is the post-step
    annotated s-expression plus the fresh candidate menu; a finishing turn
    closes every sample.  Traces that fail to replay are skipped, with one
    diagnostic string per skip.
    """
    samples: list[TrainingSample] = []
    diagnostics: list[str] = []
    system = system_prompt(1)
    for index, trace in enumerate(traces):
        if trace.width != width:
            diagnostics.append(
                f"trace {index}: width {trace.width} != expected {width}"
            )
            continue
        total = len(trace.steps) + 1
        ctx = DecisionContext(1, 1, total, profile, model, target, init_serial(width))
        turns: list[SampleTurn] = []
        try:
            for k, step in enumerate(trace.steps, 2):
                state = build_phase1_prompt(ctx)
                # The next turn's context also supplies this turn's feedback,
                # so each backbone renders once.
                ctx = replace(ctx, iteration=k, backbone=regroup(ctx.backbone, *step.args))
                feedback = "{}\n{}".format(
                    ctx.state_text.rstrip("\n"), candidates_text(ctx.candidates)
                )
                turns.append(SampleTurn(state=state, call=step.to_json(), feedback=feedback))
        except RegroupError as exc:
            diagnostics.append(f"trace {index}: {exc}")
            continue
        turns.append(
            SampleTurn(
                state=build_phase1_prompt(ctx),
                call=Action("finish1").to_json(),
                feedback="backbone accepted; phase 1 complete",
            )
        )
        samples.append(
            TrainingSample(
                system=system,
                width=width,
                turns=tuple(turns),
                metadata={"think_filled": False, "steps": len(trace.steps)},
            )
        )
    return samples, diagnostics


def emit_samples(samples: list[TrainingSample]) -> str:
    """One JSON object per line, byte-deterministic."""
    return "".join(
        json.dumps(s.to_record(), sort_keys=True, separators=(",", ":")) + "\n"
        for s in samples
    )


def parse_samples(text: str) -> list[TrainingSample]:
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SampleFormatError(f"line {lineno}: {exc}") from exc
        samples.append(TrainingSample.from_record(record))
    return samples


# -- Verilog -------------------------------------------------------------------


class VerilogError(Exception):
    """Netlist text the interpreter cannot evaluate."""


_GATE_OPS = {
    "and": lambda xs: int(all(xs)),
    "or": lambda xs: int(any(xs)),
    "xor": lambda xs: sum(xs) & 1,
    "nand": lambda xs: 1 - int(all(xs)),
    "nor": lambda xs: 1 - int(any(xs)),
    "xnor": lambda xs: 1 - (sum(xs) & 1),
    "not": lambda xs: 1 - xs[0],
    "buf": lambda xs: xs[0],
}


class _Netlist:
    """Accumulates wires and gate instances in emission order."""

    def __init__(self) -> None:
        self.wires: list[str] = []
        self.gates: list[tuple[str, str, list[str]]] = []
        self._n = 0

    def wire(self, name: str) -> str:
        self.wires.append(name)
        return name

    def gate(self, kind: str, out: str, *ins: str) -> str:
        self.gates.append((kind, f"u{self._n}", [out, *ins]))
        self._n += 1
        return out


def _sig(kind: str, node: Node) -> str:
    base = f"{kind}_{node.msb}_{node.lsb}"
    return base if node.instance == 0 else f"{base}_{node.instance}"


def _emit_inputs(net: _Netlist, width: int) -> None:
    for i in range(width):
        node = Node(i, i)
        net.gate("xor", net.wire(_sig("p", node)), f"a[{i}]", f"b[{i}]")
        net.gate("and", net.wire(_sig("g", node)), f"a[{i}]", f"b[{i}]")


def _emit_plain(net: _Netlist, graph: PrefixGraph) -> None:
    _emit_inputs(net, graph.width)
    for node in graph.internal_nodes:
        up, lp = graph.parents[node]
        t = net.wire(_sig("t", node))
        net.gate("and", t, _sig("p", up), _sig("g", lp))
        net.gate("or", net.wire(_sig("g", node)), _sig("g", up), t)
        net.gate("and", net.wire(_sig("p", node)), _sig("p", up), _sig("p", lp))
    for i in range(1, graph.width):
        net.gate("xor", f"s[{i}]", _sig("p", Node(i, i)), _sig("g", Node(i - 1, 0)))
    net.gate("buf", "s[0]", _sig("p", Node(0, 0)))
    net.gate("buf", "cout", _sig("g", Node(graph.width - 1, 0)))


def _emit_inverting(net: _Netlist, graph: PrefixGraph) -> None:
    """Alternate and-or-invert / or-and-invert levels.

    Odd-level nodes store inverted (g, p); even levels store them plain.
    Explicit inverters patch children whose stored polarity does not match
    what the level's cell expects.
    """
    _emit_inputs(net, graph.width)
    levels = graph.levels()
    inverted = {n: levels[n] % 2 == 1 for n in graph.nodes}
    fixed: dict[tuple[str, Node, bool], str] = {}

    def signal(kind: str, node: Node, want_inverted: bool) -> str:
        name = _sig("n" + kind if inverted[node] else kind, node)
        if inverted[node] == want_inverted:
            return name
        key = (kind, node, want_inverted)
        if key not in fixed:
            out = net.wire(("n" if want_inverted else "") + kind + "x_" + name)
            fixed[key] = net.gate("not", out, name)
        return fixed[key]

    for node in graph.internal_nodes:
        up, lp = graph.parents[node]
        if inverted[node]:
            # and-or-invert: ng = ~(g_up | (p_up & g_lp)), np = ~(p_up & p_lp)
            t = net.wire(_sig("t", node))
            net.gate("and", t, signal("p", up, False), signal("g", lp, False))
            net.gate("nor", net.wire(_sig("ng", node)), signal("g", up, False), t)
            net.gate(
                "nand",
                net.wire(_sig("np", node)),
                signal("p", up, False),
                signal("p", lp, False),
            )
        else:
            # or-and-invert: g = ~(ng_up & (np_up | ng_lp)), p = ~(np_up | np_lp)
            t = net.wire(_sig("t", node))
            net.gate("or", t, signal("p", up, True), signal("g", lp, True))
            net.gate("nand", net.wire(_sig("g", node)), signal("g", up, True), t)
            net.gate(
                "nor",
                net.wire(_sig("p", node)),
                signal("p", up, True),
                signal("p", lp, True),
            )
    for i in range(1, graph.width):
        carry = Node(i - 1, 0)
        p_in = _sig("p", Node(i, i))
        if inverted[carry]:
            net.gate("xnor", f"s[{i}]", p_in, _sig("ng", carry))
        else:
            net.gate("xor", f"s[{i}]", p_in, _sig("g", carry))
    net.gate("buf", "s[0]", _sig("p", Node(0, 0)))
    top = Node(graph.width - 1, 0)
    if inverted[top]:
        net.gate("not", "cout", _sig("ng", top))
    else:
        net.gate("buf", "cout", _sig("g", top))


def emit_verilog(graph: PrefixGraph, style: str = "plain") -> str:
    """Structural Verilog for a complete graph.

    ``plain`` uses and/or/xor cells directly; ``inverting`` alternates
    inverting cell levels with parity bookkeeping.  Both compute a + b.
    """
    if not graph.is_complete:
        raise IncompleteGraphError("cannot emit Verilog for an incomplete graph")
    net = _Netlist()
    if style == "plain":
        _emit_plain(net, graph)
    elif style == "inverting":
        _emit_inverting(net, graph)
    else:
        raise VerilogError(f"unknown style {style!r}")
    width = graph.width
    out = io.StringIO()
    out.write(f"// {width}-bit prefix adder, {style} style\n")
    out.write(f"module prefix_adder_{width} (a, b, s, cout);\n")
    out.write(f"  input [{width - 1}:0] a;\n")
    out.write(f"  input [{width - 1}:0] b;\n")
    out.write(f"  output [{width - 1}:0] s;\n")
    out.write("  output cout;\n\n")
    for wire in net.wires:
        out.write(f"  wire {wire};\n")
    out.write("\n")
    for kind, name, args in net.gates:
        out.write(f"  {kind} {name} ({', '.join(args)});\n")
    out.write("endmodule\n")
    return out.getvalue()


_GATE_RE = re.compile(r"^\s*(\w+)\s+(\w+)\s*\(([^)]*)\)\s*;\s*$")
_RANGE_RE = re.compile(r"^\s*(input|output)\s*\[(\d+):0\]\s*(\w+)\s*;\s*$")


def simulate_verilog(text: str, a: int, b: int) -> tuple[int, int]:
    """Evaluate an emitted netlist on one input pair; returns (sum, cout).

    Gates are evaluated in file order, which emission guarantees is
    dependency order.
    """
    width = None
    values: dict[str, int] = {}
    gates: list[tuple[str, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _RANGE_RE.match(line)
        if m and m.group(3) == "a":
            width = int(m.group(2)) + 1
        m = _GATE_RE.match(line)
        if not m or m.group(1) not in _GATE_OPS:
            continue
        args = [t.strip() for t in m.group(3).split(",")]
        if len(args) < 2:
            raise VerilogError(f"line {lineno}: gate needs an output and inputs")
        gates.append((m.group(1), args))
    if width is None:
        raise VerilogError("no input declaration for port a")
    for i in range(width):
        values[f"a[{i}]"] = (a >> i) & 1
        values[f"b[{i}]"] = (b >> i) & 1
    for kind, args in gates:
        try:
            ins = [values[s] for s in args[1:]]
        except KeyError as exc:
            raise VerilogError(f"gate input {exc} evaluated before assignment") from exc
        values[args[0]] = _GATE_OPS[kind](ins)
    try:
        total = sum(values[f"s[{i}]"] << i for i in range(width))
        return total, values["cout"]
    except KeyError as exc:
        raise VerilogError(f"netlist never assigned {exc}") from exc


# -- reports -------------------------------------------------------------------


def emit_report(rows: list[SweepRow]) -> str:
    """CSV with the fixed column order target, area, delay, slack, size,
    level, deficiency."""
    lines = ["target,area,delay,slack,size,level,deficiency"]
    for r in rows:
        lines.append(
            f"{r.target:.4f},{r.area},{r.delay:.4f},{r.slack:.4f},"
            f"{r.size},{r.level},{r.deficiency}"
        )
    return "\n".join(lines) + "\n"
