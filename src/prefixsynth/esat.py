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
e-graph.  Phase 1 reaches an extracted tree with ``BackboneWalkPolicy``.

Both extractions share one DP over a row table ``ready[lo][hi]`` and a
column table ``ready_by_hi[hi][lo]`` of range costs plus one step.  A range
costs no less than a range inside it, so a class's e-node costs form a
valley over its split points: optimal extraction binary-searches it, in
O(n^2 log n), and picks the tree a full scan picks.  Per-e-node noise
breaks that order, so perturbed extraction scans each class's splits as
two list slices, in O(n^3).  It visits classes in (span, lsb) order and
splits in ascending order, and every e-node costs ``max(low, high) + step``
plus one noise value in that order; the seeded noise stream and the
tie-break make the perturbed samples, and so the datagen goldens, depend
on exactly this order.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import add, mul, neg
from random import Random
from typing import Iterable, Iterator

from .backbone import Backbone, complete
from .graph import Node
from .timing import ArrivalProfile, DelayModel

__all__ = [
    "EGraph",
    "saturate",
    "count_trees",
    "extract_optimal",
    "extract_perturbed",
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
    """Min-cost DP over the ranges.

    An e-node costs ``max(low, high) + step`` plus its ``noise`` value.
    Rounded float addition is monotone, so that sum equals
    ``max(low + step, high + step)``: the row table ``ready[lo][hi]`` and
    its transpose ``ready_by_hi[hi][lo]`` hold ``cost + step``, and the
    splits of ``[lo, hi]`` read the slices ``ready[lo][lo:hi]`` (low
    operands) and ``ready_by_hi[hi][lo+1:hi+1]`` (high operands).
    ``cost_by_hi`` keeps the unrounded costs for the tie-break, since two
    high operands one ulp apart can round to one ``cost + step``: ties
    prefer the cheaper high operand, then the smaller split.  ``noise``
    supplies one value per e-node, leaves first, then classes in (span,
    lsb) order and splits in ascending order, and is scanned in full.
    Without it, low operands rise and high operands fall with the split
    (exactly so in floats: ``max`` and rounded ``+ step`` are monotone), so
    binary searches find the first split ``k0`` whose low operand is at
    least its high one, the minimum at ``k0 - 1`` or ``k0`` (the class's
    own cells are ``inf``), the last split that ties it, and the scan's
    pick: the first split whose unrounded high cost equals that last one's,
    which lies on the tie plateau because high costs fall too."""
    step = model.step
    width = eg.width
    ready = [[math.inf] * width for _ in range(width)]
    ready_by_hi = [[math.inf] * width for _ in range(width)]
    cost_by_hi = [[0.0] * width for _ in range(width)]
    best_split = [[0] * width for _ in range(width)]
    for lo, hi in eg.classes():
        if lo == hi:
            best = profile[lo]
            if noise is not None:
                best += next(noise)
        elif noise is None:
            lows, highs, high_costs = ready[lo], ready_by_hi[hi], cost_by_hi[hi]
            k0 = bisect_left(
                range(hi + 1), True, lo + 1, hi + 1,
                key=lambda k: lows[k - 1] >= highs[k],
            )
            best = min(highs[k0 - 1], lows[k0 - 1])
            last = bisect_right(lows, best, k0 - 1, hi)
            best_split[lo][hi] = bisect_left(
                high_costs, -high_costs[last], lo + 1, last, key=neg
            )
        else:
            scan = map(max, ready[lo][lo:hi], ready_by_hi[hi][lo + 1 : hi + 1])
            costs = list(map(add, scan, islice(noise, hi - lo)))
            best = min(costs)
            if costs.count(best) == 1:
                best_split[lo][hi] = lo + 1 + costs.index(best)
            else:
                highs = cost_by_hi[hi][lo + 1 : hi + 1]
                best, _, best_split[lo][hi] = min(
                    zip(costs, highs, eg.splits(lo, hi))
                )
        cost_by_hi[hi][lo] = best
        ready[lo][hi] = ready_by_hi[hi][lo] = best + step

    parents: dict[Node, tuple[Node, Node]] = {}

    def build(lo: int, hi: int) -> Node:
        if lo < hi:
            k = best_split[lo][hi]
            parents[Node(hi, lo)] = (build(k, hi), build(lo, k - 1))
        return Node(hi, lo)

    build(*eg.root)
    return Backbone(width, parents)


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
    """Extraction with seeded per-e-node noise in ``[0, eps_scale * step)``.

    The interval is half-open: each draw is ``eps_scale * step * r`` for a
    ``Random(seed).random()`` value ``r``, which is never 1.
    ``eps_scale=0`` reproduces :func:`extract_optimal` exactly.
    """
    if eps_scale < 0:
        raise ValueError("eps_scale must be >= 0")
    bound = eps_scale * model.step
    # Random.uniform(0.0, bound) is 0.0 + bound * random(): the same draws.
    noise = map(mul, repeat(bound), iter(Random(seed).random, None))
    return _extract(eg, profile, model, noise)


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
