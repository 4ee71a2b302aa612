"""Independent oracles used by the test suite.

Everything here is implemented from first principles (textbook ripple-carry
addition, nested-tuple binary tree enumeration, direct recursions) rather
than by calling back into :mod:`prefixsynth`, so the tests compare two
independent derivations of each fact.

Trees are nested tuples: a leaf is an ``int`` bit index, an internal node is
``(high_subtree, low_subtree)`` where the high subtree covers the more
significant bits.  Bit-parallel test vectors are "columns": one Python int
per bit position whose binary digits hold that bit across all test lanes.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterator, Sequence

from prefixsynth.backbone import Backbone
from prefixsynth.graph import Node, PrefixGraph

Shape = "int | tuple"


def catalan_ref(n: int) -> int:
    """Catalan numbers via the closed form C(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Binary tree shapes over a bit range
# ---------------------------------------------------------------------------


def all_shapes(hi: int, lo: int) -> Iterator[tuple | int]:
    """Yield every binary tree shape whose leaves are bits ``hi .. lo``."""
    if hi == lo:
        yield hi
        return
    for k in range(lo, hi):
        for high in all_shapes(hi, k + 1):
            for low in all_shapes(k, lo):
                yield (high, low)


def random_shape(hi: int, lo: int, rng: random.Random) -> tuple | int:
    """Sample one tree shape over bits ``hi .. lo`` (uniform over splits)."""
    if hi == lo:
        return hi
    k = rng.randint(lo, hi - 1)
    return (random_shape(hi, k + 1, rng), random_shape(k, lo, rng))


def shape_level(shape: tuple | int) -> int:
    if isinstance(shape, int):
        return 0
    return 1 + max(shape_level(shape[0]), shape_level(shape[1]))


def shape_cost(shape: tuple | int, arrivals: list[float], step: float) -> float:
    """Root arrival time of a tree: leaves start at their input arrival,
    every internal node adds one ``step``."""
    if isinstance(shape, int):
        return arrivals[shape]
    return max(shape_cost(s, arrivals, step) for s in shape) + step


def shape_to_backbone(shape: tuple | int) -> Backbone:
    """Convert a nested-tuple shape over bits ``msb .. 0`` into a
    :class:`Backbone`; both put the high subtree first."""
    parents: dict[Node, tuple[Node, Node]] = {}

    def build(s: tuple | int) -> Node:
        if isinstance(s, int):
            return Node(s, s)
        high, low = build(s[0]), build(s[1])
        node = Node(high.msb, low.lsb)
        parents[node] = (high, low)
        return node

    root = build(shape)
    return Backbone.from_parents(root.msb + 1, parents)


def walk_ref(target: Backbone) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Regroup steps ``((a.msb, a.lsb), (b.msb, b.lsb))`` from the serial
    chain to ``target``, by a plain-dict greedy: at each step rotate at the
    lowest ridge node whose rotation creates a target node and removes a
    ridge node the target does not have."""
    width = target.width
    wanted = {(n.msb, n.lsb) for n in target.parents}
    tree = {(m, 0): ((m, m), (m - 1, 0)) for m in range(1, width)}
    steps = []
    while set(tree) != wanted:
        applicable = []
        for i in range(2, width):
            if (i, 0) not in tree:
                continue
            a, lower = tree[(i, 0)]
            if lower[0] == lower[1]:
                continue
            b = tree[lower][0]
            created = (a[0], b[1])
            if created not in tree and created in wanted and (b[0], 0) not in wanted:
                applicable.append((a, b))
        assert applicable, "no regroup leads towards the target"
        a, b = min(applicable, key=lambda ab: (ab[0][0], ab[1][0]))
        rest = tree.pop((b[0], 0))[1]
        tree[(a[0], b[1])] = (a, b)
        tree[(a[0], 0)] = ((a[0], b[1]), rest)
        steps.append((a, b))
    return steps


def shape_range(shape: tuple | int) -> tuple[int, int]:
    """(lsb, msb) of the bits a shape covers."""
    if isinstance(shape, int):
        return (shape, shape)
    return (shape_range(shape[1])[0], shape_range(shape[0])[1])


def extract_ref(
    times: Sequence[float],
    step: float,
    seed: int | None = None,
    bound: float = 0.0,
) -> Backbone:
    """Min-cost tree by the plain O(n^3) range DP, one e-node at a time.

    A range ``[lo, hi]`` split at ``k`` (the lsb of the high operand) costs
    ``max(cost[lo, k-1], cost[k, hi]) + step``; ties prefer the cheaper
    high operand, then the smaller split.  With a ``seed``, every e-node's
    cost gains one ``Random(seed).uniform(0.0, bound)`` draw, taken leaves
    first, then ranges in (span, lsb) order and splits in ascending order.
    """
    width = len(times)
    rng = random.Random(seed) if seed is not None else None
    best_cost: dict[tuple[int, int], float] = {}
    best_split: dict[tuple[int, int], int] = {}
    for span in range(width):
        for lo in range(width - span):
            hi = lo + span
            if span == 0:
                cost = times[lo]
                if rng is not None:
                    cost += rng.uniform(0.0, bound)
                best_cost[lo, hi] = cost
                continue
            chosen: tuple[float, float, int] | None = None
            for k in range(lo + 1, hi + 1):
                high = best_cost[k, hi]
                cost = max(best_cost[lo, k - 1], high) + step
                if rng is not None:
                    cost += rng.uniform(0.0, bound)
                if chosen is None or (cost, high, k) < chosen:
                    chosen = (cost, high, k)
            best_cost[lo, hi], _, best_split[lo, hi] = chosen

    def shape(lo: int, hi: int) -> tuple | int:
        if lo == hi:
            return lo
        k = best_split[lo, hi]
        return (shape(k, hi), shape(lo, k - 1))

    return shape_to_backbone(shape(0, width - 1))


# ---------------------------------------------------------------------------
# Generic saturation under associativity
# ---------------------------------------------------------------------------


def _rewrites(shape: tuple | int) -> Iterator[tuple | int]:
    """Every tree one associativity rewrite away from ``shape``."""
    if isinstance(shape, int):
        return
    high, low = shape
    if not isinstance(low, int):  # (o (o x y) z) => (o x (o y z))
        yield ((high, low[0]), low[1])
    if not isinstance(high, int):  # (o x (o y z)) => (o (o x y) z)
        yield (high[0], (high[1], low))
    for h in _rewrites(high):
        yield (h, low)
    for lo in _rewrites(low):
        yield (high, lo)


def saturate_ref(width: int) -> tuple[set, set[tuple[int, int, int]]]:
    """Close the serial tree over ``width`` bits under both associativity
    rewrites by brute force.

    Returns every reachable tree and the ``(lo, hi, split)`` group e-nodes
    of all their subtrees, ``split`` being the lsb of the high operand.
    """
    serial: tuple | int = 0
    for bit in range(1, width):
        serial = (bit, serial)
    trees = {serial}
    frontier = [serial]
    while frontier:
        frontier = {t for tree in frontier for t in _rewrites(tree)} - trees
        trees |= frontier

    enodes: set[tuple[int, int, int]] = set()

    def collect(shape: tuple | int) -> None:
        if isinstance(shape, int):
            return
        lo, hi = shape_range(shape)
        enodes.add((lo, hi, shape_range(shape[0])[0]))
        collect(shape[0])
        collect(shape[1])

    for tree in trees:
        collect(tree)
    return trees, enodes


# ---------------------------------------------------------------------------
# Bit-parallel addition oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def exhaustive_columns(width: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Input columns covering every (a, b) pair for ``width`` bits.

    Lane ``a * 2**width + b`` carries operand pair (a, b); returns
    (a_columns, b_columns, lane_count).
    """
    lanes = 1 << (2 * width)
    acols = [0] * width
    bcols = [0] * width
    for lane in range(lanes):
        a, b = lane >> width, lane & ((1 << width) - 1)
        for i in range(width):
            if (a >> i) & 1:
                acols[i] |= 1 << lane
            if (b >> i) & 1:
                bcols[i] |= 1 << lane
    return tuple(acols), tuple(bcols), lanes


def random_columns(
    width: int, lanes: int, seed: int
) -> tuple[list[int], list[int], int]:
    """Seeded random input columns with ``lanes`` test vectors."""
    rng = random.Random(seed)
    acols = [rng.getrandbits(lanes) for _ in range(width)]
    bcols = [rng.getrandbits(lanes) for _ in range(width)]
    return acols, bcols, lanes


def ripple_add_columns(
    acols: Sequence[int], bcols: Sequence[int], lanes: int
) -> tuple[list[int], int]:
    """Textbook ripple-carry addition applied lane-parallel over columns."""
    mask = (1 << lanes) - 1
    carry = 0
    scols: list[int] = []
    for ai, bi in zip(acols, bcols):
        scols.append((ai ^ bi ^ carry) & mask)
        carry = ((ai & bi) | (carry & (ai ^ bi))) & mask
    return scols, carry


def graph_output_columns(
    graph: PrefixGraph, acols: Sequence[int], bcols: Sequence[int], lanes: int
) -> tuple[list[int], int]:
    """Evaluate a prefix graph lane-parallel, independent of the package's
    scalar simulator.

    Walks the parent map directly: inputs get (g, p) = (a & b, a ^ b), every
    internal node combines as G = G_hi | (P_hi & G_lo), P = P_hi & P_lo.
    Sum bit i is p_i xor the carry out of bits [i-1 .. 0].
    """
    mask = (1 << lanes) - 1
    gp: dict[Node, tuple[int, int]] = {}

    def value(node: Node) -> tuple[int, int]:
        if node in gp:
            return gp[node]
        if node.is_input:
            g = acols[node.msb] & bcols[node.msb] & mask
            p = (acols[node.msb] ^ bcols[node.msb]) & mask
        else:
            up, lp = graph.parents[node]
            g_hi, p_hi = value(up)
            g_lo, p_lo = value(lp)
            g = (g_hi | (p_hi & g_lo)) & mask
            p = p_hi & p_lo & mask
        gp[node] = (g, p)
        return g, p

    width = graph.width
    scols: list[int] = []
    for i in range(width):
        _, p_i = value(Node(i, i))
        carry_in = 0 if i == 0 else value(Node(i - 1, 0))[0]
        scols.append((p_i ^ carry_in) & mask)
    cout = value(Node(width - 1, 0))[0]
    return scols, cout


def count_addition_mismatch_lanes(
    graph: PrefixGraph, acols: Sequence[int], bcols: Sequence[int], lanes: int
) -> int:
    """Number of test lanes where the graph disagrees with ripple-carry."""
    want_s, want_c = ripple_add_columns(acols, bcols, lanes)
    got_s, got_c = graph_output_columns(graph, acols, bcols, lanes)
    bad = want_c ^ got_c
    for w, g in zip(want_s, got_s):
        bad |= w ^ g
    return bin(bad).count("1")


def assert_graph_adds_exhaustive(graph: PrefixGraph) -> None:
    acols, bcols, lanes = exhaustive_columns(graph.width)
    bad = count_addition_mismatch_lanes(graph, acols, bcols, lanes)
    assert bad == 0, f"{bad} of {lanes} exhaustive vectors disagree"


def assert_graph_adds_random(graph: PrefixGraph, lanes: int, seed: int) -> None:
    acols, bcols, got = random_columns(graph.width, lanes, seed)
    bad = count_addition_mismatch_lanes(graph, acols, bcols, got)
    assert bad == 0, f"{bad} of {lanes} random vectors disagree"
