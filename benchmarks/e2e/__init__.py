"""The repo's end-to-end benchmark: one tick -> verdict round, attributed per layer.

Run ``python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
from the repository root (see ``README.md`` beside this file and the root
``BENCHMARK.json``).  Nothing here is imported by ``src/``; every layer is
measured from outside, through its public functions.
"""
