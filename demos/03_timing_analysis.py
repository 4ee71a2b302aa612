"""Static timing on prefix graphs: arrival profiles, slack, critical paths.

Arrival profiles model when each input bit becomes valid; the linear delay
model charges a fixed step per logic level plus a fanout penalty.  The demo
prints a full node report for a small adder and the critical path through it.
"""

from __future__ import annotations

from prefixsynth.backbone import complete, init_serial
from prefixsynth.epr import critical_path, render_epr
from prefixsynth.structures import sklansky_graph
from prefixsynth.timing import ArrivalProfile, DelayModel, graph_arrivals


def main() -> None:
    model = DelayModel()

    print("Sklansky width 16 under three arrival profiles:")
    graph = sklansky_graph(16)
    for name in ("uniform", "lsb-first", "random"):
        profile = ArrivalProfile.preset(name, 16, model, seed=7)
        report = graph_arrivals(graph, profile, model, target=0.5)
        print(
            f"  {name:<10} delay {report.delay:.4f}  area {report.area}  "
            f"slack {report.slack:+.4f}"
        )

    print("\nNode report for the completed serial 4-bit adder:")
    small = complete(init_serial(4))
    print(render_epr(small))

    profile = ArrivalProfile.uniform(4)
    report = graph_arrivals(small, profile, model)
    start, end = report.critical[0], report.critical[-1]
    print(f"Critical path from {start.token()} to {end.token()}:")
    print(critical_path(small, report.critical).render())


if __name__ == "__main__":
    main()
