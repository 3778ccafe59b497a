"""Benchmark harness for fdrelay: workloads, checks and run-time tracing."""
