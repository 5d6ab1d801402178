"""Layered benchmark for the unidesign CLI: workloads, output checks and tracing."""
