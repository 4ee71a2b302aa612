"""Equality saturation over backbone shapes, in closed form.

The single rewrite is associativity of the group operator,

    (o (o x y) z)  <=>  (o x (o y z)),

which preserves the bit range of every term.  Every tree over bits
``0..n-1`` reaches every other by these rewrites, so the saturated e-graph
of an n-bit backbone is known without running the rewrites: one e-class per
bit range ``[lo, hi]``, holding a leaf when ``lo == hi`` and otherwise one
e-node per split point ``k = lo+1..hi`` (operands ``[lo, k-1]`` and
``[k, hi]``).  That is n(n+1)/2 classes and C(n+1, 3) + n e-nodes, and it
compactly encodes all Catalan(n-1) tree shapes.  Extraction runs a
bottom-up dynamic program over the ranges under the tree cost model; a
seeded perturbed variant draws diverse low-cost shapes from the same
e-graph.
"""
from __future__ import annotations

import math
from random import Random
from typing import Iterable, Iterator

from .backbone import Backbone, complete, find_candidates, init_serial, regroup
from .graph import Node
from .policy import Action, RegroupTrace
from .timing import ArrivalProfile, DelayModel

__all__ = [
    "EGraph",
    "TraceError",
    "saturate",
    "count_trees",
    "extract_optimal",
    "extract_perturbed",
    "derive_trace",
    "filter_low_deficiency",
    "catalan",
    "design_space_log10",
]


class EGraph:
    """The saturated e-graph of an n-bit backbone.

    A class is a bit range ``(lo, hi)``; its group e-nodes are the split
    points ``k`` in :meth:`splits`.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.root = (0, width - 1)

    @property
    def n_classes(self) -> int:
        return self.width * (self.width + 1) // 2

    @property
    def n_enodes(self) -> int:
        """One leaf per bit plus one group per split point of every range."""
        return self.width + math.comb(self.width + 1, 3)

    def classes(self) -> Iterator[tuple[int, int]]:
        """Every range ``(lo, hi)``, ordered by (span, lsb)."""
        for span in range(self.width):
            for lo in range(self.width - span):
                yield lo, lo + span

    @staticmethod
    def splits(lo: int, hi: int) -> range:
        """Split points of ``[lo, hi]``: the lsb of the high operand."""
        return range(lo + 1, hi + 1)


def saturate(bb: Backbone) -> EGraph:
    """The e-graph of ``bb`` closed under associativity.

    Every tree over the same bits has the same closure, so only the width
    of ``bb`` matters.
    """
    return EGraph(bb.width)


def count_trees(eg: EGraph) -> int:
    """Number of distinct trees extractable from the root class."""
    count: dict[tuple[int, int], int] = {}
    for lo, hi in eg.classes():
        count[lo, hi] = 1 if lo == hi else sum(
            count[lo, k - 1] * count[k, hi] for k in eg.splits(lo, hi)
        )
    return count[eg.root]


def _extract(
    eg: EGraph,
    profile: ArrivalProfile,
    model: DelayModel,
    noise: Iterator[float] | None,
) -> Backbone:
    """Min-cost DP over the ranges.  ``noise`` supplies one value per
    e-node, in class order and then split order, added to that e-node's
    cost.  Ties prefer the cheaper high operand, then the smaller split."""
    step = model.step
    best_cost: dict[tuple[int, int], float] = {}
    best_split: dict[tuple[int, int], int] = {}
    for lo, hi in eg.classes():
        if lo == hi:
            cost = profile[lo]
            if noise is not None:
                cost += next(noise)
            best_cost[lo, hi] = cost
            continue
        chosen: tuple[float, float, int] | None = None
        for k in eg.splits(lo, hi):
            high = best_cost[k, hi]
            cost = max(best_cost[lo, k - 1], high) + step
            if noise is not None:
                cost += next(noise)
            if chosen is None or (cost, high, k) < chosen:
                chosen = (cost, high, k)
        best_cost[lo, hi], _, best_split[lo, hi] = chosen

    parents: dict[Node, tuple[Node, Node]] = {}

    def build(lo: int, hi: int) -> Node:
        if lo < hi:
            k = best_split[lo, hi]
            parents[Node(hi, lo)] = (build(k, hi), build(lo, k - 1))
        return Node(hi, lo)

    build(*eg.root)
    return Backbone(eg.width, parents)


def extract_optimal(
    eg: EGraph, profile: ArrivalProfile, model: DelayModel
) -> Backbone:
    """Minimum-cost tree under the backbone cost model.

    Ties prefer the candidate whose higher-significance operand is cheaper,
    then the smaller split point.
    """
    return _extract(eg, profile, model, noise=None)


def extract_perturbed(
    eg: EGraph,
    profile: ArrivalProfile,
    model: DelayModel,
    seed: int,
    eps_scale: float = 1.0,
) -> Backbone:
    """Extraction with seeded per-e-node noise in ``[0, eps_scale * step]``.

    ``eps_scale=0`` reproduces :func:`extract_optimal` exactly.
    """
    if eps_scale < 0:
        raise ValueError("eps_scale must be >= 0")
    rng = Random(seed)
    bound = eps_scale * model.step
    noise = (rng.uniform(0.0, bound) for _ in range(eg.n_enodes))
    return _extract(eg, profile, model, noise)


class TraceError(Exception):
    """No regroup schedule reaches the requested backbone."""


def derive_trace(target: Backbone) -> RegroupTrace:
    """Compute a regroup schedule that rebuilds ``target`` from the serial
    backbone.

    Greedy: at every step apply the lowest-column candidate whose created
    node belongs to the target and whose removed ridge node does not.
    """
    wanted = target.nodes
    bb = init_serial(target.width)
    steps: list[Action] = []
    limit = len(wanted - bb.nodes)
    while bb != target:
        applicable = [
            (a, b)
            for a, b in find_candidates(bb)
            if Node(a.msb, b.lsb) in wanted and Node(b.msb, 0) not in wanted
        ]
        if not applicable or len(steps) >= limit:
            raise TraceError(
                "internal error: no applicable regroup towards target"
            )
        a, b = min(applicable, key=lambda ab: (ab[0].msb, ab[1].msb))
        bb = regroup(bb, a, b)
        steps.append(Action("regroup", (a, b)))
    return RegroupTrace(target.width, tuple(steps))


def filter_low_deficiency(
    candidates: Iterable[Backbone], threshold: int = 0
) -> list[Backbone]:
    """Keep shapes whose completed adder stays within ``threshold`` levels
    of the backbone level (threshold 0 keeps exactly the zero-deficiency
    completions)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return [
        bb for bb in candidates if complete(bb).depth - bb.level <= threshold
    ]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def design_space_log10(width: int) -> tuple[float, float]:
    """log10 sizes of the full design space (product of Catalan numbers over
    all group sizes) and of the backbone shape space alone."""
    product = 1
    for i in range(1, width):
        product *= catalan(i)
    return (math.log10(product), math.log10(catalan(width - 1)))
