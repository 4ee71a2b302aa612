"""Independent correctness oracles for the benchmark.

Nothing here calls prefixsynth: every fact the benchmark checks about a job's
artifacts is derived again from first principles, so a library defect cannot
hide behind the library's own checker.

Nodes are plain ``(msb, lsb, instance)`` tuples (the library's ``Node`` is a
tuple of the same shape, so its graphs can be fed in directly).  Test
vectors are lane-packed: one Python int per bit position whose binary digits
hold that bit across all test lanes, so any width works.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

Node = tuple  # (msb, lsb, instance)
Parents = dict  # Node -> (up, lp)


class OracleError(Exception):
    """An artifact that the oracle cannot interpret or that is wrong."""


# -- lane-packed ripple-carry addition ----------------------------------------


@dataclass(frozen=True)
class Vectors:
    """Lane-packed operand columns for one width."""

    width: int
    lanes: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def mask(self) -> int:
        return (1 << self.lanes) - 1


def make_vectors(width: int, random_lanes: int, seed: int) -> Vectors:
    """Two blocks of carry-chain lanes, then seeded random operands.

    Lane ``k`` of the first block generates a carry at bit ``k`` that every
    higher bit propagates; lane ``k`` of the second generates at bit 0,
    propagates up to bit ``k`` and kills it there.  Together they expose any
    prefix node whose bit range has a gap, which random operands reach only
    with probability about ``2**-span``.
    """
    rng = random.Random(seed)
    lanes = 2 * width + random_lanes
    a = [rng.getrandbits(lanes) & ~((1 << 2 * width) - 1) for _ in range(width)]
    b = [rng.getrandbits(lanes) & ~((1 << 2 * width) - 1) for _ in range(width)]
    block = (1 << width) - 1
    for i in range(width):
        a[i] |= ((1 << (i + 1)) - 1) | ((block ^ (1 << i)) << width)
        b[i] |= 1 << i
    b[0] |= block << width
    return Vectors(width, lanes, tuple(a), tuple(b))


def vectors_from_pairs(width: int, pairs: list[tuple[int, int]]) -> Vectors:
    a = [0] * width
    b = [0] * width
    for lane, (x, y) in enumerate(pairs):
        for i in range(width):
            a[i] |= ((x >> i) & 1) << lane
            b[i] |= ((y >> i) & 1) << lane
    return Vectors(width, len(pairs), tuple(a), tuple(b))


def ripple_add(vec: Vectors) -> tuple[list[int], int]:
    """Textbook ripple-carry addition, lane-parallel: (sum columns, cout)."""
    mask = vec.mask
    carry = 0
    sums = []
    for ai, bi in zip(vec.a, vec.b):
        sums.append((ai ^ bi ^ carry) & mask)
        carry = ((ai & bi) | (carry & (ai ^ bi))) & mask
    return sums, carry


def bad_lanes(vec: Vectors, sums: list[int], cout: int) -> int:
    """Number of lanes where (sums, cout) differ from ripple-carry."""
    want, want_c = ripple_add(vec)
    diff = want_c ^ cout
    for w, g in zip(want, sums):
        diff |= w ^ g
    return bin(diff & vec.mask).count("1")


# -- prefix graphs -------------------------------------------------------------


def structure_errors(width: int, parents: Parents) -> list[str]:
    """Split-rule and completeness violations of a prefix graph."""
    errors = []
    nodes = set(parents) | {(i, i, 0) for i in range(width)}
    for node, (up, lp) in parents.items():
        m, l, _ = node
        if not 0 <= l < m < width:
            errors.append(f"{node}: bad bit range")
            continue
        if up[0] != m or not l < up[1] <= m or lp[0] != up[1] - 1 or lp[1] != l:
            errors.append(f"{node}: parents {up} {lp} break the split rule")
        for p in (up, lp):
            if p not in nodes:
                errors.append(f"{node}: parent {p} is not a node")
    for i in range(1, width):
        if (i, 0, 0) not in nodes:
            errors.append(f"missing output ({i},0)")
    return errors


def graph_outputs(width: int, parents: Parents, vec: Vectors) -> tuple[list[int], int]:
    """Evaluate the graph literally through its parent pointers."""
    mask = vec.mask
    gp: dict[Node, tuple[int, int]] = {}
    for i in range(width):
        gp[(i, i, 0)] = (vec.a[i] & vec.b[i], vec.a[i] ^ vec.b[i])

    def value(node: Node, depth: int = 0) -> tuple[int, int]:
        got = gp.get(node)
        if got is not None:
            return got
        if node not in parents or depth > 4 * width:
            raise OracleError(f"cannot evaluate node {node}")
        up, lp = parents[node]
        g_hi, p_hi = value(up, depth + 1)
        g_lo, p_lo = value(lp, depth + 1)
        gp[node] = ((g_hi | (p_hi & g_lo)) & mask, p_hi & p_lo)
        return gp[node]

    sums = [gp[(0, 0, 0)][1]]
    for i in range(1, width):
        sums.append(gp[(i, i, 0)][1] ^ value((i - 1, 0, 0))[0])
    return sums, value((width - 1, 0, 0))[0]


def graph_bad_lanes(width: int, parents: Parents, vec: Vectors) -> int:
    sums, cout = graph_outputs(width, parents, vec)
    return bad_lanes(vec, sums, cout)


@dataclass(frozen=True)
class Recount:
    """Structure figures recomputed from a parent map."""

    area: int
    level: int
    max_fanout: int
    dead_nodes: int
    levels: dict


def recount(width: int, parents: Parents) -> Recount:
    levels = {(i, i, 0): 0 for i in range(width)}
    for node in sorted(parents, key=lambda n: (n[0] - n[1], n)):
        up, lp = parents[node]
        levels[node] = max(levels[up], levels[lp]) + 1
    fanout = dict.fromkeys(levels, 0)
    for up, lp in parents.values():
        fanout[up] += 1
        fanout[lp] += 1
    dead = sum(
        1 for n in parents if fanout[n] == 0 and not (n[1] == 0 and n[2] == 0)
    )
    return Recount(len(parents), max(levels.values()), max(fanout.values()), dead, levels)


@dataclass(frozen=True)
class Model:
    """The CLI's default linear delay model (ns)."""

    node_delay: float = 0.030
    margin: float = 0.005
    fanout_penalty: float = 0.005
    intercept: float = 0.0

    @property
    def step(self) -> float:
        return self.node_delay + self.margin


MODEL = Model()


def preset_profile(name: str, width: int) -> tuple[float, ...]:
    """Arrival times of the seed-independent CLI presets."""
    if name == "uniform":
        return (0.0,) * width
    if name == "lsb-first":
        return tuple(0.0 if i < width // 2 else 4 * MODEL.step for i in range(width))
    raise ValueError(name)


def graph_delay(width: int, parents: Parents, arrivals: tuple[float, ...]) -> float:
    """Worst output arrival: every hop costs a step plus a fanout penalty
    per extra consumer of the driving node."""
    fanout = {(i, i, 0): 0 for i in range(width)}
    for node in parents:
        fanout.setdefault(node, 0)
    for up, lp in parents.values():
        fanout[up] += 1
        fanout[lp] += 1
    at = {(i, i, 0): arrivals[i] for i in range(width)}
    for node in sorted(parents, key=lambda n: (n[0] - n[1], n)):
        at[node] = max(
            at[p] + MODEL.step + MODEL.fanout_penalty * (fanout[p] - 1)
            for p in parents[node]
        )
    outputs = [(0, 0, 0)] + [(i, 0, 0) for i in range(1, width)]
    return max(at[o] for o in outputs) + MODEL.intercept


def min_level(width: int) -> int:
    return max(1, math.ceil(math.log2(width)))


# -- EPR text -------------------------------------------------------------------

_TOKEN = r"\((\d+),(\d+)\)(?:#(\d+))?"
_NONINPUT = re.compile(rf"{_TOKEN},lvl:(\d+),up:{_TOKEN},lp:{_TOKEN},tf:\[.*\],ntf: \[.*\]")
_HEADER = ("Bitwidth", "Non-input nodes", "Max level", "Max fanout")


@dataclass(frozen=True)
class Epr:
    width: int
    header: dict
    parents: dict
    stated_levels: dict


def _node(groups: tuple) -> Node:
    msb, lsb, inst = groups
    return (int(msb), int(lsb), int(inst or 0))


def parse_epr(text: str) -> Epr:
    """Read the header and the non-input lines of an EPR file."""
    lines = text.splitlines()
    header = {}
    for i, key in enumerate(_HEADER):
        if i >= len(lines) or not lines[i].startswith(key + ": "):
            raise OracleError(f"EPR line {i + 1}: expected '{key}: N'")
        header[key] = int(lines[i].split(": ", 1)[1])
    width = header["Bitwidth"]
    try:
        start = lines.index("Non-input nodes:") + 1
    except ValueError as exc:
        raise OracleError("EPR has no 'Non-input nodes:' section") from exc
    parents: dict = {}
    stated: dict = {}
    for lineno, line in enumerate(lines[start:], start + 1):
        if not line:
            continue
        m = _NONINPUT.fullmatch(line)
        if m is None:
            raise OracleError(f"EPR line {lineno}: malformed node line")
        g = m.groups()
        node = _node(g[0:3])
        if node in parents:
            raise OracleError(f"EPR line {lineno}: duplicate node {node}")
        parents[node] = (_node(g[4:7]), _node(g[7:10]))
        stated[node] = int(g[3])
    return Epr(width, header, parents, stated)


def check_epr(text: str, vec: Vectors) -> tuple[Epr, Recount, list[str]]:
    """Parse, check structure, addition and the stated figures of an EPR."""
    epr = parse_epr(text)
    if vec.width != epr.width:
        raise OracleError(f"vectors are {vec.width} bits, EPR is {epr.width}")
    errors = structure_errors(epr.width, epr.parents)
    if errors:
        return epr, None, errors[:3]
    rc = recount(epr.width, epr.parents)
    bad = graph_bad_lanes(epr.width, epr.parents, vec)
    if bad:
        errors.append(f"{bad} of {vec.lanes} vectors disagree with ripple-carry")
    stated = (epr.header["Non-input nodes"], epr.header["Max level"], epr.header["Max fanout"])
    if stated != (rc.area, rc.level, rc.max_fanout):
        errors.append(f"header {stated} != recount {(rc.area, rc.level, rc.max_fanout)}")
    if any(rc.levels[n] != lvl for n, lvl in epr.stated_levels.items()):
        errors.append("a stated node level differs from the recount")
    return epr, rc, errors


# -- structural Verilog ----------------------------------------------------------

_GATE = re.compile(r"\s*(\w+)\s+\w+\s*\(([^)]*)\)\s*;\s*")
_PORT = re.compile(r"\s*input\s*\[(\d+):0\]\s*a\s*;\s*")


def netlist_bad_lanes(text: str, vec: Vectors) -> int:
    """Evaluate a gate-level netlist lane-parallel; count wrong lanes."""
    mask = vec.mask
    width = None
    values: dict[str, int] = {}
    for i in range(vec.width):
        values[f"a[{i}]"] = vec.a[i]
        values[f"b[{i}]"] = vec.b[i]
    for lineno, line in enumerate(text.splitlines(), 1):
        port = _PORT.fullmatch(line)
        if port:
            width = int(port.group(1)) + 1
            continue
        gate = _GATE.fullmatch(line)
        if gate is None or gate.group(1) in ("module", "input", "output", "wire"):
            continue
        kind = gate.group(1)
        out, *ins = [t.strip() for t in gate.group(2).split(",")]
        try:
            xs = [values[s] for s in ins]
        except KeyError as exc:
            raise OracleError(f"netlist line {lineno}: {exc} read before assignment") from exc
        if kind in ("and", "nand"):
            v = mask
            for x in xs:
                v &= x
        elif kind in ("or", "nor"):
            v = 0
            for x in xs:
                v |= x
        elif kind in ("xor", "xnor"):
            v = 0
            for x in xs:
                v ^= x
        elif kind in ("buf", "not"):
            v = xs[0]
        else:
            raise OracleError(f"netlist line {lineno}: unknown gate {kind!r}")
        if kind in ("nand", "nor", "xnor", "not"):
            v ^= mask
        values[out] = v
    if width != vec.width:
        raise OracleError(f"netlist is {width} bits, vectors are {vec.width}")
    try:
        sums = [values[f"s[{i}]"] for i in range(width)]
        cout = values["cout"]
    except KeyError as exc:
        raise OracleError(f"netlist never drives {exc}") from exc
    return bad_lanes(vec, sums, cout)


# -- backbones (trace replay) -------------------------------------------------------


def serial_backbone(width: int) -> dict:
    return {(m, 0): ((m, m), (m - 1, 0)) for m in range(1, width)}


def rotate(tree: dict, a: tuple, b: tuple) -> None:
    """Apply one regroup in place: create ``(a.msb, b.lsb)`` from ``a`` and
    ``b`` and drop the ridge node ``(b.msb, 0)``."""
    site, removed, created = (a[0], 0), (b[0], 0), (a[0], b[1])
    if (
        b[0] != a[1] - 1
        or b[1] <= 0
        or tree.get(site, (None,))[0] != a
        or tree.get(removed, (None,))[0] != b
        or created in tree
    ):
        raise OracleError(f"regroup {a} {b} is not a legal rotation")
    rest = tree.pop(removed)[1]
    tree[created] = (a, b)
    tree[site] = (created, rest)


def backbone_cost(tree: dict, width: int, arrivals: tuple[float, ...]) -> float:
    at = {(i, i): arrivals[i] for i in range(width)}
    for node in sorted(tree, key=lambda n: n[0] - n[1]):
        at[node] = max(at[p] for p in tree[node]) + MODEL.step
    return at[(width - 1, 0)]


def completion_overshoot(tree: dict, width: int) -> int:
    """Depth of the completed adder minus the ridge length: what the
    datagen threshold bounds."""
    top = {i: (i, i) for i in range(width)}
    for node in tree:
        if node[1] < top[node[0]][1]:
            top[node[0]] = node
    parents = dict(tree)
    for i in range(1, width):
        if (i, 0) not in parents:
            a = top[i]
            parents[(i, 0)] = (a, (a[1] - 1, 0))
    level = {(i, i): 0 for i in range(width)}
    for node in sorted(parents, key=lambda n: n[0] - n[1]):
        level[node] = max(level[p] for p in parents[node]) + 1
    ridge, node = 0, (width - 1, 0)
    while node[0] != node[1]:
        ridge += 1
        node = tree[node][1]
    return max(level.values()) - ridge
