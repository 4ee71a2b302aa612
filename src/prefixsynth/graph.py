"""Prefix-graph data model: node identity, structure, validation, and the
carry-computation semantics that make a graph an adder.

A prefix graph over ``width`` bits is a DAG of ``(msb, lsb)`` nodes.  The
span-1 nodes ``(i, i)`` are the inputs; every other node ``(i, j)`` combines
an *upper* parent ``(i, k)`` and a *lower* parent ``(k-1, j)`` with
``i >= k > j``.  A node carries the group terms

    G[i:j] = G[i:k] + P[i:k] * G[k-1:j]
    P[i:j] = P[i:k] * P[k-1:j]

seeded at the inputs by ``g_i = a_i * b_i`` and ``p_i = a_i ^ b_i``.  The
graph is *complete* when every bit ``i >= 1`` owns its output node
``(i, 0)``; then carry ``c_i = G[i:0]`` and sum ``s_i = p_i ^ c_{i-1}``.

Duplicated (cloned) nodes share coordinates and are told apart by an
``instance`` counter, rendered as a ``#k`` suffix in text formats.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Node",
    "PrefixGraph",
    "ValidationReport",
    "GraphError",
    "IncompleteGraphError",
    "parse_node_token",
    "validate",
    "simulate",
    "deficiency",
    "addition_mismatches",
    "exhaustive_addition_check",
    "random_addition_check",
]


class GraphError(Exception):
    """Structural problem that prevents interpreting a prefix graph."""


class IncompleteGraphError(GraphError):
    """The graph lacks an output node required to read out a carry."""


class Node(NamedTuple):
    """Identity of one prefix node: bit range plus clone counter."""

    msb: int
    lsb: int
    instance: int = 0

    @property
    def span(self) -> int:
        return self.msb - self.lsb + 1

    @property
    def is_input(self) -> bool:
        return self.msb == self.lsb and self.instance == 0

    def token(self) -> str:
        base = f"({self.msb},{self.lsb})"
        if self.instance:
            return f"{base}#{self.instance}"
        return base

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.token()


_NODE_RE = re.compile(r"\((\d+),(\d+)\)(?:#(\d+))?")


def parse_node_token(token: str) -> Node:
    """Parse ``(3,0)`` or ``(3,0)#2`` back into a :class:`Node`."""
    m = _NODE_RE.fullmatch(token.strip())
    if m is None:
        raise GraphError(f"malformed node token: {token!r}")
    return Node(int(m.group(1)), int(m.group(2)), int(m.group(3) or 0))


class PrefixGraph:
    """A prefix graph: node set plus the (up, lp) parent map.

    Instances are treated as immutable once built; editing passes construct a
    fresh graph.  Derived data (levels, consumer lists) is computed lazily
    and cached.
    """

    def __init__(
        self,
        width: int,
        parents: dict[Node, tuple[Node, Node]] | None = None,
        nodes: Iterable[Node] | None = None,
    ) -> None:
        self.width = width
        self.parents: dict[Node, tuple[Node, Node]] = dict(parents or {})
        if nodes is None:
            node_set = {Node(i, i) for i in range(width)}
            node_set.update(self.parents)
        else:
            node_set = set(nodes)
        self.nodes: frozenset[Node] = frozenset(node_set)
        self._levels: dict[Node, int] | None = None
        self._consumers: dict[Node, tuple[Node, ...]] | None = None

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixGraph):
            return NotImplemented
        return (
            self.width == other.width
            and self.nodes == other.nodes
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return hash((self.width, self.nodes, frozenset(self.parents.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixGraph(width={self.width}, size={self.size})"

    # -- structure --------------------------------------------------------

    @property
    def inputs(self) -> list[Node]:
        return [Node(i, i) for i in range(self.width)]

    @property
    def internal_nodes(self) -> list[Node]:
        """Non-input nodes in deterministic (span, msb, lsb, instance) order."""
        return sorted(
            (n for n in self.nodes if not n.is_input),
            key=lambda n: (n.span, n.msb, n.lsb, n.instance),
        )

    @property
    def size(self) -> int:
        """Non-input node count; doubles as the area proxy."""
        return sum(1 for n in self.nodes if not n.is_input)

    def topological(self) -> Iterator[Node]:
        """Nodes in dependency order (parents before consumers)."""
        yield from sorted(self.nodes, key=lambda n: (n.span, n.msb, n.lsb, n.instance))

    def levels(self) -> dict[Node, int]:
        if self._levels is None:
            levels: dict[Node, int] = {}
            for n in self.topological():
                if n.is_input:
                    levels[n] = 0
                else:
                    up, lp = self.parents[n]
                    levels[n] = max(levels[up], levels[lp]) + 1
            self._levels = levels
        return self._levels

    def level(self, node: Node) -> int:
        return self.levels()[node]

    @property
    def depth(self) -> int:
        """Maximum node level."""
        return max(self.levels().values())

    def consumers_map(self) -> dict[Node, tuple[Node, ...]]:
        if self._consumers is None:
            cons: dict[Node, list[Node]] = {n: [] for n in self.nodes}
            for child, (up, lp) in self.parents.items():
                cons[up].append(child)
                cons[lp].append(child)
            self._consumers = {
                n: tuple(sorted(v)) for n, v in cons.items()
            }
        return self._consumers

    def consumers(self, node: Node) -> tuple[Node, ...]:
        return self.consumers_map()[node]

    def fanout(self, node: Node) -> int:
        return len(self.consumers(node))

    def tf(self, node: Node) -> list[Node]:
        """Consumers sharing the producer's msb (trivial fanout)."""
        return [c for c in self.consumers(node) if c.msb == node.msb]

    def ntf(self, node: Node) -> list[Node]:
        """Consumers with a larger msb (non-trivial fanout)."""
        return [c for c in self.consumers(node) if c.msb != node.msb]

    def max_fanout(self) -> int:
        return max(len(self.consumers(n)) for n in self.nodes)

    # -- completeness -----------------------------------------------------

    def missing_outputs(self) -> list[int]:
        return [
            i for i in range(1, self.width) if Node(i, 0) not in self.nodes
        ]

    @property
    def is_complete(self) -> bool:
        return not self.missing_outputs()

    # -- editing helpers (return fresh graphs) -----------------------------

    def replace_parents(self, updates: dict[Node, tuple[Node, Node]]) -> PrefixGraph:
        parents = dict(self.parents)
        parents.update(updates)
        nodes = set(self.nodes) | set(updates)
        return PrefixGraph(self.width, parents, nodes)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: an ok flag plus human-readable findings."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate(graph: PrefixGraph) -> ValidationReport:
    """Check the structural rules; report every violation found."""
    v: list[str] = []
    if graph.width < 1:
        v.append(f"width must be >= 1, got {graph.width}")
        return ValidationReport(False, v)

    for i in range(graph.width):
        if Node(i, i) not in graph.nodes:
            v.append(f"missing input node ({i},{i})")

    for n in sorted(graph.nodes):
        if not (0 <= n.lsb <= n.msb < graph.width):
            v.append(f"{n.token()}: bit range out of bounds for width {graph.width}")
            continue
        if n.instance < 0:
            v.append(f"{n.token()}: negative instance")
        if n.msb == n.lsb:
            if n.instance != 0:
                v.append(f"{n.token()}: inputs cannot be cloned")
            if n in graph.parents:
                v.append(f"{n.token()}: input node must not have parents")
            continue
        if n not in graph.parents:
            v.append(f"{n.token()}: missing parent record")
            continue
        up, lp = graph.parents[n]
        for p, role in ((up, "upper"), (lp, "lower")):
            if p not in graph.nodes:
                v.append(f"{n.token()}: {role} parent {p.token()} is not a node")
        if up.msb != n.msb:
            v.append(f"{n.token()}: up.msb != msb")
        if not (n.lsb < up.lsb <= n.msb):
            v.append(f"{n.token()}: split {up.lsb} outside ({n.lsb}, {n.msb}]")
        if lp.msb != up.lsb - 1:
            v.append(f"{n.token()}: lp.msb != up.lsb-1")
        if lp.lsb != n.lsb:
            v.append(f"{n.token()}: lp.lsb != lsb")

    for n in graph.parents:
        if n not in graph.nodes:
            v.append(f"{n.token()}: parent record for unknown node")

    return ValidationReport(not v, v)


def _require_complete(graph: PrefixGraph) -> None:
    missing = graph.missing_outputs()
    if missing:
        raise IncompleteGraphError(
            f"missing output node ({missing[0]},0); cannot read carry {missing[0]}"
        )


def _group_values(
    graph: PrefixGraph, gen: list[int], prop: list[int]
) -> dict[Node, tuple[int, int]]:
    """Evaluate (G, P) at every node; works on packed bit masks."""
    values: dict[Node, tuple[int, int]] = {}
    for n in graph.topological():
        if n.msb == n.lsb:
            values[n] = (gen[n.msb], prop[n.msb])
        else:
            up, lp = graph.parents[n]
            g1, p1 = values[up]
            g0, p0 = values[lp]
            values[n] = (g1 | (p1 & g0), p1 & p0)
    return values


def simulate(graph: PrefixGraph, a: int, b: int) -> tuple[int, int]:
    """Interpret the graph as an adder: return ``(sum, carry_out)``.

    The graph must be complete; validity is assumed (see :func:`validate`).
    """
    _require_complete(graph)
    n = graph.width
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        raise ValueError(f"operands must fit in {n} bits")
    gen = [(a >> i) & (b >> i) & 1 for i in range(n)]
    prop = [((a >> i) ^ (b >> i)) & 1 for i in range(n)]
    values = _group_values(graph, gen, prop)
    carries = [values[Node(i, 0)][0] for i in range(n)]
    s = prop[0]
    for i in range(1, n):
        s |= (prop[i] ^ carries[i - 1]) << i
    return s, carries[n - 1]


def deficiency(graph: PrefixGraph) -> int:
    """Size + depth in excess of the structural lower bound ``2n - 2``."""
    return graph.size + graph.depth - (2 * graph.width - 2)


# -- batched functional checking -------------------------------------------
#
# Many vectors are evaluated at once by packing one bit per test vector into
# arbitrary-precision integers ("columns": column ``i`` holds bit ``i`` of the
# operand in every lane), so the whole batch moves through the graph with a
# handful of bitwise operations per node, at any width.


def _column_mismatches(
    graph: PrefixGraph, acols: list[int], bcols: list[int], limit: int
) -> list[tuple[int, int]]:
    """The ``(a, b)`` operands of the lowest ``limit`` lanes where the graph
    disagrees with a lane-parallel ripple-carry adder.

    The sum bits and the carry out agree with integer addition exactly when
    every carry ``G[i:0]`` equals the ripple carry out of bit ``i``.
    """
    _require_complete(graph)
    gen = [a & b for a, b in zip(acols, bcols)]
    prop = [a ^ b for a, b in zip(acols, bcols)]
    values = _group_values(graph, gen, prop)
    lanes = 0
    carry = 0
    for i in range(graph.width):
        carry = gen[i] | (prop[i] & carry)
        lanes |= carry ^ values[Node(i, 0)][0]
    pairs: list[tuple[int, int]] = []
    while lanes and len(pairs) < limit:
        lane = (lanes & -lanes).bit_length() - 1
        a = sum(((col >> lane) & 1) << i for i, col in enumerate(acols))
        b = sum(((col >> lane) & 1) << i for i, col in enumerate(bcols))
        pairs.append((a, b))
        lanes &= lanes - 1
    return pairs


def _to_columns(values: list[int], width: int) -> list[int]:
    """Transpose operands into columns; lane ``k`` holds ``values[k]``."""
    rows = [format(v, f"0{width}b") for v in reversed(values)]
    return [int("".join(bits), 2) for bits in reversed(list(zip(*rows)))]


def addition_mismatches(
    graph: PrefixGraph,
    pairs: Iterable[tuple[int, int]],
    limit: int = 10,
) -> list[tuple[int, int]]:
    """Compare the graph against integer addition on the given operand pairs.

    Returns up to ``limit`` failing ``(a, b)`` pairs, in input order; empty
    means agreement.
    """
    _require_complete(graph)
    n = graph.width
    pair_list = list(pairs)
    if not pair_list:
        return []
    if any(not (0 <= x < (1 << n)) for pair in pair_list for x in pair):
        raise ValueError(f"operands must fit in {n} bits")
    acols = _to_columns([a for a, _ in pair_list], n)
    bcols = _to_columns([b for _, b in pair_list], n)
    return _column_mismatches(graph, acols, bcols, limit)


def _block_column(bit: int, lanes: int) -> int:
    """Bit ``bit`` of the lane index, over ``lanes`` lanes (a power of two):
    a block of ``2**bit`` zeros then ``2**bit`` ones, doubled to length."""
    half = 1 << bit
    col = ((1 << half) - 1) << half
    length = 2 * half
    while length < lanes:
        col |= col << length
        length *= 2
    return col


def exhaustive_addition_check(graph: PrefixGraph) -> list[tuple[int, int]]:
    """All ``2^(2n)`` operand pairs; intended for widths up to about 10.

    Lane ``a * 2**n + b`` carries the pair ``(a, b)``.
    """
    n = graph.width
    if n > 12:
        raise ValueError("exhaustive check is impractical beyond width 12")
    lanes = 1 << (2 * n)
    bcols = [_block_column(i, lanes) for i in range(n)]
    acols = [_block_column(n + i, lanes) for i in range(n)]
    return _column_mismatches(graph, acols, bcols, 10)


def random_addition_check(
    graph: PrefixGraph, count: int = 100_000, seed: int = 0
) -> list[tuple[int, int]]:
    """Seeded random operand pairs for widths where exhaustion is infeasible.

    Each operand column is ``count`` random bits, ``a``'s columns drawn
    before ``b``'s.
    """
    rng = random.Random(seed)
    acols = [rng.getrandbits(count) for _ in range(graph.width)]
    bcols = [rng.getrandbits(count) for _ in range(graph.width)]
    return _column_mismatches(graph, acols, bcols, 10)
