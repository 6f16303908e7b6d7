"""One driver per table/figure of the paper's Section VIII.

Every module exposes ``run(...) -> dict`` returning the figure's series
and a ``main()`` that prints rows next to the paper's reported values.
The benchmark suite under ``benchmarks/`` calls these same drivers, so
``pytest benchmarks/ --benchmark-only`` regenerates the entire
evaluation.
"""
