"""Benchmark harness for the segdyn pipeline; see bench/README.md."""
