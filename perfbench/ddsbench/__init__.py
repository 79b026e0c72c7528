"""Benchmark harness for the directed densest-subgraph program (see ``perfbench/README.md``)."""
