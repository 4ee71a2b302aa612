"""Two-phase synthesis: backbone walk, completion, structural refinement.

Phase 1 walks from the serial chain to the e-graph's min-cost backbone,
completion fills in the remaining sum outputs, and phase 2 applies
level/fanout refinements to the full graph until the delay target is met.
Running that flow once per target and timing each design gives one report
row per target: an area-delay trade-off curve.
"""

from __future__ import annotations

from prefixsynth.backbone import complete, init_serial
from prefixsynth.dataio import emit_report
from prefixsynth.esat import extract_optimal, saturate
from prefixsynth.policy import (
    BackboneWalkPolicy,
    CriticalPathRefinePolicy,
    run_phase1,
    run_phase2,
)
from prefixsynth.structures import sklansky_graph
from prefixsynth.timing import ArrivalProfile, DelayModel, SweepRow, graph_arrivals

WIDTH = 32


def main() -> None:
    model = DelayModel()
    profile = ArrivalProfile.preset("random", WIDTH, model, seed=WIDTH)

    fast = graph_arrivals(sklansky_graph(WIDTH), profile, model).delay
    slow = graph_arrivals(complete(init_serial(WIDTH)), profile, model).delay
    targets = [fast + (slow - fast) * i / 3 for i in range(4)]
    optimum = extract_optimal(saturate(init_serial(WIDTH)), profile, model)

    print(f"Synthesizing width {WIDTH} across {len(targets)} targets:")
    rows = []
    for target in targets:
        walk = BackboneWalkPolicy(optimum)
        phase1 = run_phase1(WIDTH, profile, target, 64, walk, model)
        graph = complete(phase1.backbone)
        phase2 = run_phase2(
            graph, target, 64, CriticalPathRefinePolicy(), profile, model
        )
        print(
            f"  target {target:.4f}: phase1 {phase1.iterations} iters, "
            f"phase2 {phase2.iterations} iters, "
            f"size {phase2.graph.size}, depth {phase2.graph.depth}"
        )
        report = graph_arrivals(phase2.graph, profile, model, target)
        rows.append(SweepRow.from_report(phase2.graph, report))

    print("\nSweep report (CSV):")
    print(emit_report(rows))

    sklansky = sklansky_graph(WIDTH)
    baseline = graph_arrivals(sklansky, profile, model)
    print(
        f"Sklansky baseline: delay {baseline.delay:.4f}, area {sklansky.size} -- "
        f"the tightest synthesized point should be competitive at lower area."
    )


if __name__ == "__main__":
    main()
