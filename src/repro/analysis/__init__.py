"""Reporting, metrics, and timeline analysis for the experiment harness."""
