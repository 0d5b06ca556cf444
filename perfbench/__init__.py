"""Benchmark of the vartau CLI on seeded synthetic inputs; see run.py."""
