"""Experiment harness: grids, caching, and paper-style tables/figures."""
