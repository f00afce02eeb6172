"""Experiment harness: cost-axis measurement, recorded overhead sweeps, table/figure generators."""
