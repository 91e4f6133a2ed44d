"""The repo's perf benchmark: named workloads, named metrics, one command.

``BENCHMARK.json`` at the repo root names the command, the workloads and
every metric; ``README.md`` in this directory is the glossary.  Nothing
here is imported by ``src/`` — layers are timed from outside, around
calls into their public functions.
"""
