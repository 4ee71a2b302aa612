"""Enumerate the backbone design space with an e-graph and extract the best.

Regroup moves generate exactly the Catalan-many binary associations of the
carry cone.  The e-graph saturated under the associativity rewrite captures
them all compactly and has a closed form: one e-class per bit range and one
e-node per split point.  Dynamic-programming extraction over the ranges then
finds the minimum-cost tree for a given arrival profile, and a regroup trace
to reach it is derived.
"""

from __future__ import annotations

from prefixsynth.backbone import init_serial
from prefixsynth.esat import (
    catalan,
    count_trees,
    derive_trace,
    design_space_log10,
    extract_optimal,
    saturate,
)
from prefixsynth.lang import backbone_to_expr
from prefixsynth.timing import ArrivalProfile, DelayModel, backbone_cost


def main() -> None:
    model = DelayModel()

    print("Trees reachable by regrouping an N-bit serial backbone:")
    for width in range(3, 9):
        eg = saturate(backbone_to_expr(init_serial(width)))
        print(
            f"  N={width}: {count_trees(eg)} trees "
            f"(Catalan({width - 1}) = {catalan(width - 1)})"
        )

    total, single = design_space_log10(16)
    print(
        f"\nWhole design space up to width 16: 10^{total:.2f} compositions; "
        f"width 16 alone contributes 10^{single:.2f} backbones."
    )

    width = 12
    profile = ArrivalProfile.randomized(width, seed=3, high=0.15)
    eg = saturate(backbone_to_expr(init_serial(width)))
    best = extract_optimal(eg, profile, model)
    print(
        f"\nWidth {width}, skewed random arrivals:\n"
        f"  serial cost    {backbone_cost(init_serial(width), profile, model):.4f}\n"
        f"  extracted cost {backbone_cost(best, profile, model):.4f}"
    )

    trace = derive_trace(best)
    print(f"\nRegroup trace reaching the optimum ({len(trace.steps)} steps):")
    print(trace.to_text())


if __name__ == "__main__":
    main()
