"""Experiment drivers: one module per paper table/figure/finding.

Import a driver from its module; :mod:`repro.experiments.registry` names
every artefact the CLI and the campaign service run.
"""
