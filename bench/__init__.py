"""The repo benchmark: four served workloads, measured outside-in.

Run ``python3 bench/run.py --help``; ``bench/README.md`` explains the
workloads, the metrics and how to read them.
"""
