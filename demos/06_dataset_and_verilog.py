"""Generate training samples from optimization traces and export Verilog.

Perturbed extraction draws diverse near-optimal backbones from the interval
e-graph (one e-class per bit range, one e-node per split point); the
deficiency filter keeps those whose completion adds no extra
depth.  Each survivor becomes a sample of single-turn tool calls, recorded
from a phase-1 run that walks the serial chain to it at the serving budget.
Finally a refined design is emitted as structural Verilog and re-simulated.
"""

from __future__ import annotations

import random

from prefixsynth.backbone import complete, init_serial
from prefixsynth.dataio import (
    emit_samples,
    emit_verilog,
    simulate_verilog,
    synthesize_samples,
)
from prefixsynth.esat import (
    extract_perturbed,
    filter_low_deficiency,
    saturate,
)
from prefixsynth.structures import brent_kung_graph
from prefixsynth.timing import ArrivalProfile, DelayModel

WIDTH = 6


def main() -> None:
    model = DelayModel()
    profile = ArrivalProfile.uniform(WIDTH)

    eg = saturate(init_serial(WIDTH))
    drawn = [
        extract_perturbed(eg, profile, model, seed=i, eps_scale=1.0)
        for i in range(16)
    ]
    unique = list(dict.fromkeys(drawn))
    kept = filter_low_deficiency(unique, threshold=0)
    print(
        f"width {WIDTH}: drew {len(drawn)} perturbed extractions, "
        f"{len(unique)} unique, {len(kept)} pass the deficiency filter"
    )

    samples = synthesize_samples(kept, profile, model, max_iters=64)
    turns = sum(len(sample.turns) for sample in samples)
    print(f"synthesized {len(samples)} samples, {turns} turns")

    text = emit_samples(samples)
    first_line = text.splitlines()[0]
    print(f"first sample (truncated): {first_line[:120]}...")

    graph = brent_kung_graph(8)
    verilog = emit_verilog(graph, style="plain")
    print(f"\nVerilog export: {len(verilog.splitlines())} lines")
    rng = random.Random(1)
    for _ in range(3):
        a, b = rng.getrandbits(8), rng.getrandbits(8)
        s, cout = simulate_verilog(verilog, a, b)
        assert (cout << 8) | s == a + b
        print(f"  {a:3d} + {b:3d} = {(cout << 8) | s:3d}  (simulated netlist)")


if __name__ == "__main__":
    main()
