"""Benchmark harness for meshlite; see README.md in this directory."""
