"""prefixsynth: parallel prefix adder synthesis toolkit.

Build and edit prefix graphs, drive the two-phase (backbone, then
refinement) synthesis loop with pluggable decision policies, enumerate
backbone shapes from the closed-form e-graph of the associativity rewrite,
and export designs as EPR text or structural Verilog.

The package root exports nothing: import from the submodules
(``prefixsynth.graph``, ``prefixsynth.policy``, ...), each of which lists
its public names in ``__all__``.
"""
