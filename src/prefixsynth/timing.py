"""Delay model, arrival profiles, and arrival propagation.

The model is linear in logic depth: a path through ``x`` nodes costs
``step * x + intercept`` where ``step = node_delay + margin``, plus
``fanout_penalty`` per extra consumer on each driving node.  One loop,
:func:`graph_arrivals`, times backbones and graphs alike: it reads only a
structure's ``width`` and ``parents``, and a tree, whose nodes each drive
one consumer, pays no fanout penalty.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import Node, PrefixGraph, deficiency

if TYPE_CHECKING:  # pragma: no cover
    from .backbone import Backbone

__all__ = [
    "DelayModel",
    "ArrivalProfile",
    "TimingReport",
    "SweepRow",
    "backbone_cost",
    "graph_arrivals",
    "SLACK_TOLERANCE",
]

SLACK_TOLERANCE = 1e-9


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
        if not all(math.isfinite(t) and t >= 0 for t in self.times):
            raise ValueError("arrival times must be finite and >= 0")

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
            if not math.isfinite(t) or t < 0:
                raise ValueError(f"line {lineno}: arrival must be finite and >= 0")
            times[bit] = t
        if sorted(times) != list(range(len(times))):
            raise ValueError("bit indices must cover 0..n-1")
        return cls(tuple(times[i] for i in range(len(times))))


def backbone_cost(
    bb: Backbone, profile: ArrivalProfile, model: DelayModel
) -> float:
    """Arrival at the tree root: leaves cost their input arrival, every
    group adds one step."""
    return graph_arrivals(bb, profile, model).arrivals[bb.root]


@dataclass(frozen=True)
class TimingReport:
    """Arrival annotation of a graph or backbone against a target delay.

    ``critical`` is the worst path, input first: from the latest output,
    each step back takes the parent with the larger arrival, the upper
    parent on ties.
    """

    arrivals: dict[Node, float]
    delay: float
    target: float | None
    slack: float | None
    critical: tuple[Node, ...]


def graph_arrivals(
    graph: PrefixGraph | Backbone,
    profile: ArrivalProfile,
    model: DelayModel,
    target: float | None = None,
) -> TimingReport:
    """Propagate arrivals through a graph or a backbone.

    ``arrival(n) = max over parents p of arrival(p) + step +
    fanout_penalty * (fanout(p) - 1)``; the reported delay is the worst
    output arrival plus the model intercept.

    ``slack`` is ``target - delay``, read as exactly ``0.0`` when it is
    within ``SLACK_TOLERANCE`` (1e-9 ns) of zero: a target and a delay
    summed in different orders may differ in the last bit, and such a
    design meets its target.
    """
    width, parents = graph.width, graph.parents
    if len(profile) != width:
        raise ValueError(f"profile has {len(profile)} entries for width {width}")
    fanout: dict[Node, int] = {}
    for up, lp in parents.values():
        fanout[up] = fanout.get(up, 0) + 1
        fanout[lp] = fanout.get(lp, 0) + 1
    step, penalty = model.step, model.fanout_penalty
    arrivals = {Node(i, i): profile[i] for i in range(width)}
    # A parent spans fewer bits than its consumers: ascending span is a
    # dependency order.
    for node in sorted(parents, key=lambda n: (n.msb - n.lsb, n.lsb, n.instance)):
        up, lp = parents[node]
        a = arrivals[up] + step + penalty * (fanout[up] - 1)
        b = arrivals[lp] + step + penalty * (fanout[lp] - 1)
        arrivals[node] = a if a >= b else b

    end = max(
        (n for n in arrivals if n.lsb == 0 and n.instance == 0),
        key=lambda o: (arrivals[o], o),
    )
    delay = arrivals[end] + model.intercept
    slack = None if target is None else target - delay
    if slack is not None and abs(slack) <= SLACK_TOLERANCE:
        slack = 0.0

    chain = [end]
    while not chain[-1].is_input:
        up, lp = parents[chain[-1]]
        chain.append(up if arrivals[up] >= arrivals[lp] else lp)
    return TimingReport(
        arrivals=arrivals,
        delay=delay,
        target=target,
        slack=slack,
        critical=tuple(reversed(chain)),
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

    @classmethod
    def from_report(cls, graph: PrefixGraph, report: TimingReport) -> SweepRow:
        """The row of ``graph`` timed by ``report``; with no target, the
        delay stands in for it."""
        return cls(
            target=report.target if report.target is not None else report.delay,
            area=graph.size,
            delay=report.delay,
            slack=report.slack if report.slack is not None else 0.0,
            size=graph.size,
            level=graph.depth,
            deficiency=deficiency(graph),
        )

