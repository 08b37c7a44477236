"""Benchmark of the Tiger reproduction; see README.md and run.py."""
