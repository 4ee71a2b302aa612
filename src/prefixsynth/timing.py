"""Delay model, arrival profiles, and the lightweight timing views: tree
cost for backbones and levelized arrival propagation for full graphs.

The model is linear in logic depth: a path through ``x`` nodes costs
``step * x + intercept`` where ``step = node_delay + margin``.  Graph
propagation additionally charges ``fanout_penalty`` per extra consumer on
the driving node.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

from .backbone import Backbone
from .graph import Node, PrefixGraph, deficiency
from .lang import BackboneExpr, Group, Leaf

__all__ = [
    "DelayModel",
    "ArrivalProfile",
    "TimingReport",
    "SweepRow",
    "backbone_cost",
    "graph_arrivals",
    "pareto_sweep",
]


@dataclass(frozen=True)
class DelayModel:
    """Linear logic-depth delay model with a per-fanout load penalty (ns)."""

    node_delay: float = 0.030
    margin: float = 0.005
    fanout_penalty: float = 0.005
    intercept: float = 0.0

    def __post_init__(self) -> None:
        for name in ("node_delay", "margin", "fanout_penalty", "intercept"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def step(self) -> float:
        """Cost of one logic level."""
        return self.node_delay + self.margin


@dataclass(frozen=True)
class ArrivalProfile:
    """Per-bit input arrival times in nanoseconds."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times):
            raise ValueError("arrival times must be >= 0")

    def __getitem__(self, bit: int) -> float:
        return self.times[bit]

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def uniform(cls, width: int, value: float = 0.0) -> ArrivalProfile:
        return cls(tuple(value for _ in range(width)))

    @classmethod
    def lsb_first(cls, width: int, offset: float) -> ArrivalProfile:
        """Lower half arrives at 0, upper half ``offset`` late."""
        half = width // 2
        return cls(tuple(0.0 if i < half else offset for i in range(width)))

    @classmethod
    def randomized(cls, width: int, seed: int, high: float) -> ArrivalProfile:
        rng = random.Random(seed)
        return cls(tuple(rng.uniform(0.0, high) for _ in range(width)))

    @classmethod
    def preset(
        cls, name: str, width: int, model: DelayModel, seed: int = 0
    ) -> ArrivalProfile:
        if name == "uniform":
            return cls.uniform(width)
        if name == "lsb-first":
            return cls.lsb_first(width, 4 * model.step)
        if name == "random":
            return cls.randomized(width, seed, (width / 8) * model.step)
        raise ValueError(f"unknown profile preset {name!r}")

    def to_text(self) -> str:
        return "\n".join(f"{i}, {t:.4f}" for i, t in enumerate(self.times)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> ArrivalProfile:
        times: dict[int, float] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'bit, arrival'")
            try:
                bit, t = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if bit in times:
                raise ValueError(f"line {lineno}: duplicate bit {bit}")
            times[bit] = t
        if sorted(times) != list(range(len(times))):
            raise ValueError("bit indices must cover 0..n-1")
        return cls(tuple(times[i] for i in range(len(times))))


def backbone_cost(
    tree: Union[Backbone, BackboneExpr],
    profile: ArrivalProfile,
    model: DelayModel,
) -> float:
    """Arrival at the tree root: leaves cost their input arrival, every
    group adds one step."""
    if isinstance(tree, Backbone):
        parents = tree.parent_map
        cost: dict[Node, float] = {
            Node(i, i): profile[i] for i in range(tree.width)
        }
        for node in tree.walk():
            up, lp = parents[node]
            cost[node] = max(cost[up], cost[lp]) + model.step
        return cost[tree.root]
    if isinstance(tree, Leaf):
        return profile[tree.bit]
    if isinstance(tree, Group):
        return (
            max(
                backbone_cost(tree.low, profile, model),
                backbone_cost(tree.high, profile, model),
            )
            + model.step
        )
    raise TypeError(f"cannot cost {type(tree).__name__}")


@dataclass(frozen=True)
class TimingReport:
    """Arrival annotation of a complete graph against a target delay."""

    arrivals: dict[Node, float]
    delay: float
    target: float | None
    slack: float | None
    critical_start: Node
    critical_end: Node
    area: int

    def arrival(self, node: Node) -> float:
        return self.arrivals[node]


def graph_arrivals(
    graph: PrefixGraph,
    profile: ArrivalProfile,
    model: DelayModel,
    target: float | None = None,
) -> TimingReport:
    """Propagate arrivals through a complete graph.

    ``arrival(n) = max over parents p of arrival(p) + step +
    fanout_penalty * (fanout(p) - 1)``; the reported delay is the worst
    output arrival plus the model intercept.
    """
    if len(profile) != graph.width:
        raise ValueError(
            f"profile has {len(profile)} entries for width {graph.width}"
        )
    arrivals: dict[Node, float] = {}
    for node in graph.topological():
        if node.msb == node.lsb:
            arrivals[node] = profile[node.msb]
        else:
            up, lp = graph.parents[node]
            arrivals[node] = max(
                arrivals[p]
                + model.step
                + model.fanout_penalty * (graph.fanout(p) - 1)
                for p in (up, lp)
            )

    outputs = [Node(0, 0)] + [Node(i, 0) for i in range(1, graph.width)]
    outputs = [o for o in outputs if o in graph.nodes]
    end = max(outputs, key=lambda o: (arrivals[o], o))
    delay = arrivals[end] + model.intercept
    slack = None if target is None else target - delay

    start = end
    while not start.is_input:
        up, lp = graph.parents[start]
        start = max((up, lp), key=lambda p: (arrivals[p], p == up))
    return TimingReport(
        arrivals=arrivals,
        delay=delay,
        target=target,
        slack=slack,
        critical_start=start,
        critical_end=end,
        area=graph.size,
    )


@dataclass(frozen=True)
class SweepRow:
    """One synthesis outcome, ready for report emission."""

    target: float
    area: int
    delay: float
    slack: float
    size: int
    level: int
    deficiency: int


def pareto_sweep(
    synthesize: Callable[[float], PrefixGraph],
    targets: Iterable[float],
    profile: ArrivalProfile,
    model: DelayModel,
) -> list[SweepRow]:
    """Run the synthesis callback over a target-delay schedule."""
    target_list = list(targets)
    if not target_list:
        raise ValueError("no targets given")
    rows: list[SweepRow] = []
    for t in target_list:
        graph = synthesize(t)
        report = graph_arrivals(graph, profile, model, target=t)
        rows.append(
            SweepRow(
                target=t,
                area=report.area,
                delay=report.delay,
                slack=report.slack if report.slack is not None else 0.0,
                size=graph.size,
                level=graph.depth,
                deficiency=deficiency(graph),
            )
        )
    return rows
