"""The repo's end-to-end benchmark (see README.md and the root BENCHMARK.json).

One closed-loop load generator drives four paper-scale SkNN deployments,
checks every answer against the plaintext oracle and reports the metrics
BENCHMARK.json names.  A traced pass adds in-memory spans recorded around
the program's public functions, harvests its public reports and runs
per-layer drills.  Nothing here is imported by ``repro``.
"""
