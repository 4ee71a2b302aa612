"""BackboneLang: the text form of backbone shapes.

Terms are ``i<k>`` leaves and the binary ``o`` operator, written lower
significance first, e.g. the serial 4-bit backbone is::

    (o (o (o i0 i1) i2) i3)

The text converts losslessly to and from :class:`~prefixsynth.backbone.Backbone`
(which stores the same tree with higher-significance operands first).
"""
from __future__ import annotations

import re

from .backbone import Backbone, BackboneError
from .graph import Node

__all__ = ["LangError", "backbone_to_text", "text_to_backbone"]


class LangError(ValueError):
    """Malformed BackboneLang text or an ill-formed expression."""


def backbone_to_text(bb: Backbone) -> str:
    def emit(node: Node) -> str:
        if node.span == 1:
            return f"i{node.msb}"
        up, lp = bb.parents[node]
        return f"(o {emit(lp)} {emit(up)})"

    return emit(bb.root)


_TOKEN_RE = re.compile(r"\(|\)|o\b|i\d+")


def text_to_backbone(text: str) -> Backbone:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens).replace("(", "").replace(")", "") != re.sub(
        r"[\s()]", "", text
    ):
        raise LangError(f"unrecognized characters in {text!r}")
    pos = 0
    parents: dict[Node, tuple[Node, Node]] = {}

    def parse() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise LangError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok.startswith("i"):
            bit = int(tok[1:])
            return Node(bit, bit)
        if tok != "(":
            raise LangError(f"unexpected token {tok!r}")
        if pos >= len(tokens) or tokens[pos] != "o":
            raise LangError("expected operator 'o' after '('")
        pos += 1
        low = parse()
        high = parse()
        if pos >= len(tokens) or tokens[pos] != ")":
            raise LangError("expected ')'")
        pos += 1
        if low.msb + 1 != high.lsb:
            raise LangError(
                f"operands [{low.lsb}..{low.msb}] and [{high.lsb}..{high.msb}]"
                " are not adjacent"
            )
        node = Node(high.msb, low.lsb)
        parents[node] = (high, low)
        return node

    root = parse()
    if pos != len(tokens):
        raise LangError("trailing tokens after expression")
    if root.lsb != 0:
        raise LangError(f"expression must start at bit 0, starts at {root.lsb}")
    try:
        return Backbone.from_parents(root.msb + 1, parents)
    except BackboneError as exc:
        raise LangError(str(exc)) from exc
