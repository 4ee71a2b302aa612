"""Enhanced prefix representation (EPR): the canonical text serialization of
a prefix graph, plus the critical-path listing rendered in the same dialect.

The format is line-oriented and intentionally rigid so that rendering and
parsing are exact inverses:

    Bitwidth: 4
    Non-input nodes: 3
    Max level: 3
    Max fanout: 1

    Input nodes:
    (0,0), tf: [], ntf: [(1,0)]
    ...

    Non-input nodes:
    (3,0),lvl:3,up:(3,3),lp:(2,0),tf:[],ntf: []
    ...

Input lines space their fields; non-input lines pack them except for a
single space after ``ntf:``.  Fanout lists distinguish trivial fanout
(``tf``, consumer shares the producer's msb) from non-trivial fanout
(``ntf``).  Clones carry a ``#k`` suffix everywhere they appear.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import GraphError, Node, PrefixGraph, parse_node_token, validate

__all__ = [
    "render_epr",
    "parse_epr",
    "EprParseError",
    "CriticalPath",
    "critical_path",
]


class EprParseError(GraphError):
    """Raised when EPR text deviates from the grammar."""


def _node_list(nodes: list[Node]) -> str:
    return "[" + ", ".join(n.token() for n in nodes) + "]"


def render_epr(graph: PrefixGraph) -> str:
    """Serialize a valid graph; inverse of :func:`parse_epr`."""
    lines = [
        f"Bitwidth: {graph.width}",
        f"Non-input nodes: {graph.size}",
        f"Max level: {graph.depth}",
        f"Max fanout: {graph.max_fanout()}",
        "",
        "Input nodes:",
    ]
    for n in graph.inputs:
        lines.append(
            f"{n.token()}, tf: {_node_list(graph.tf(n))}, ntf: {_node_list(graph.ntf(n))}"
        )
    lines.append("")
    lines.append("Non-input nodes:")
    order = sorted(
        (n for n in graph.nodes if not n.is_input),
        key=lambda n: (-n.msb, n.lsb, n.instance),
    )
    for n in order:
        up, lp = graph.parents[n]
        lines.append(
            f"{n.token()},lvl:{graph.level(n)},up:{up.token()},lp:{lp.token()},"
            f"tf:{_node_list(graph.tf(n))},ntf: {_node_list(graph.ntf(n))}"
        )
    return "\n".join(lines) + "\n"


_HEADER_RES = (
    re.compile(r"Bitwidth: (\d+)"),
    re.compile(r"Non-input nodes: (\d+)"),
    re.compile(r"Max level: (\d+)"),
    re.compile(r"Max fanout: (\d+)"),
)
_INPUT_RE = re.compile(
    r"(?P<node>\(\d+,\d+\)(?:#\d+)?), tf: (?P<tf>\[[^]]*\]), ntf: (?P<ntf>\[[^]]*\])"
)
_NONINPUT_RE = re.compile(
    r"(?P<node>\(\d+,\d+\)(?:#\d+)?),lvl:(?P<lvl>\d+),"
    r"up:(?P<up>\(\d+,\d+\)(?:#\d+)?),lp:(?P<lp>\(\d+,\d+\)(?:#\d+)?),"
    r"tf:(?P<tf>\[[^]]*\]),ntf: (?P<ntf>\[[^]]*\])"
)


def _parse_list(text: str, lineno: int) -> list[Node]:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    try:
        return [parse_node_token(tok) for tok in inner.split(", ")]
    except GraphError as exc:
        raise EprParseError(f"line {lineno}: {exc}") from exc


def parse_epr(text: str) -> PrefixGraph:
    """Rebuild a graph from EPR text, cross-checking every derived field."""
    lines = text.splitlines()

    def expect(lineno: int, what: str) -> str:
        if lineno >= len(lines):
            raise EprParseError(f"line {lineno + 1}: expected {what}, got end of text")
        return lines[lineno]

    header: list[int] = []
    for i, rx in enumerate(_HEADER_RES):
        m = rx.fullmatch(expect(i, rx.pattern))
        if m is None:
            raise EprParseError(f"line {i + 1}: expected {rx.pattern!r}")
        header.append(int(m.group(1)))
    width, n_internal, max_level, max_fanout = header

    if expect(4, "blank line") != "" or expect(5, "'Input nodes:'") != "Input nodes:":
        raise EprParseError("line 5-6: expected blank line then 'Input nodes:'")

    stated_fanout: dict[Node, tuple[list[Node], list[Node]]] = {}
    lineno = 6
    while lineno < len(lines) and lines[lineno] != "":
        m = _INPUT_RE.fullmatch(lines[lineno])
        if m is None:
            raise EprParseError(f"line {lineno + 1}: malformed input line")
        node = parse_node_token(m.group("node"))
        if not node.is_input:
            raise EprParseError(f"line {lineno + 1}: {node.token()} is not an input")
        if node.msb >= width:
            raise EprParseError(
                f"line {lineno + 1}: input {node.token()} is outside width {width}"
            )
        if node in stated_fanout:
            raise EprParseError(f"line {lineno + 1}: duplicate input {node.token()}")
        stated_fanout[node] = (
            _parse_list(m.group("tf"), lineno + 1),
            _parse_list(m.group("ntf"), lineno + 1),
        )
        lineno += 1
    if len(stated_fanout) != width:
        raise EprParseError(
            f"expected {width} input lines, found {len(stated_fanout)}"
        )

    if expect(lineno, "blank line") != "":
        raise EprParseError(f"line {lineno + 1}: expected blank line")
    if expect(lineno + 1, "'Non-input nodes:'") != "Non-input nodes:":
        raise EprParseError(f"line {lineno + 2}: expected 'Non-input nodes:'")
    lineno += 2

    parents: dict[Node, tuple[Node, Node]] = {}
    stated_level: dict[Node, int] = {}
    while lineno < len(lines):
        if lines[lineno] == "":
            lineno += 1
            continue
        m = _NONINPUT_RE.fullmatch(lines[lineno])
        if m is None:
            raise EprParseError(f"line {lineno + 1}: malformed non-input line")
        node = parse_node_token(m.group("node"))
        if node in parents:
            raise EprParseError(f"line {lineno + 1}: duplicate node {node.token()}")
        parents[node] = (
            parse_node_token(m.group("up")),
            parse_node_token(m.group("lp")),
        )
        stated_level[node] = int(m.group("lvl"))
        stated_fanout[node] = (
            _parse_list(m.group("tf"), lineno + 1),
            _parse_list(m.group("ntf"), lineno + 1),
        )
        lineno += 1

    if len(parents) != n_internal:
        raise EprParseError(
            f"header says {n_internal} non-input nodes, found {len(parents)}"
        )

    graph = PrefixGraph(width, parents)
    report = validate(graph)
    if not report.ok:
        raise EprParseError("; ".join(report.violations))

    for node, lvl in stated_level.items():
        if graph.level(node) != lvl:
            raise EprParseError(
                f"{node.token()}: stated lvl {lvl} != derived {graph.level(node)}"
            )
    for node, (tf, ntf) in stated_fanout.items():
        if graph.tf(node) != tf or graph.ntf(node) != ntf:
            raise EprParseError(f"{node.token()}: stated fanout lists do not match")
    if graph.depth != max_level:
        raise EprParseError(f"stated max level {max_level} != derived {graph.depth}")
    if graph.max_fanout() != max_fanout:
        raise EprParseError(
            f"stated max fanout {max_fanout} != derived {graph.max_fanout()}"
        )
    return graph


@dataclass(frozen=True)
class CriticalPath:
    """A start-to-end parent chain with everything needed to render it."""

    nodes: tuple[Node, ...]
    theoretical_min: int
    actual: int
    _lines: tuple[str, ...]

    def render(self) -> str:
        body = "\n".join(self._lines)
        eff = (
            f"- Lvl efficiency:{self.theoretical_min}/{self.actual}"
            f"(theoretical min:{self.theoretical_min}, actual:{self.actual})"
        )
        return f"{body}\n\n{eff}"


def critical_path(graph: PrefixGraph, nodes: tuple[Node, ...]) -> CriticalPath:
    """Render a parent chain, input first, such as
    :attr:`~prefixsynth.timing.TimingReport.critical`."""
    lines: list[str] = []
    for node in nodes:
        lvl = graph.level(node)
        tf, ntf = _node_list(graph.tf(node)), _node_list(graph.ntf(node))
        if node.is_input:
            lines.append(f"Lvl {lvl}: {node.token()}, [INPUT] tf: {tf}, ntf: {ntf}")
        else:
            up, lp = graph.parents[node]
            lines.append(
                f"Lvl {lvl}:{node.token()},up:{up.token()},lp:{lp.token()},"
                f" tf:{tf}, ntf:{ntf}"
            )
    end = nodes[-1]
    return CriticalPath(
        nodes=tuple(nodes),
        theoretical_min=(end.span - 1).bit_length(),
        actual=graph.level(end),
        _lines=tuple(lines),
    )
