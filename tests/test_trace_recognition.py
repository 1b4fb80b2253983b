"""The recognition-accuracy experiment."""

from __future__ import annotations

from repro.experiments.recognition import run_recognition


class TestRecognitionExperiment:
    def test_small_home_perfect_accuracy(self):
        report = run_recognition(homes=(("P2", "HS1", "C1"),), seed=153)
        assert report.accuracy == 1.0

    def test_rows_labelled(self):
        report = run_recognition(homes=(("HS3",),), seed=155)
        assert report.rows[0].expected_label == "HS3"
        assert report.rows[0].recognised_label == "HS3"

    def test_hub_child_recognised_via_event_length(self):
        report = run_recognition(homes=(("C1",),), seed=157)
        by_label = {r.expected_label: r for r in report.rows}
        assert by_label["C1"].correct
