"""Breaking-point ladder regression: ordering, attribution, rendering.

A miniature 4 -> 8 -> 16 step-load run with tiny budgets, checking that the
ladder is monotone, that the stop condition is attributed *in the tripping
step's manifest* (not just in the in-process report), and that
``observe report`` renders that manifest.
"""

from __future__ import annotations

from repro.analysis.reporting import render_manifest
from repro.cli import main
from repro.experiments.breaking_point import (
    REASON_EVENT_BUDGET,
    REASON_MAX_STEPS,
    REASON_SUCCESS_FLOOR,
    REASON_WALL_CLOCK,
    run_breaking_point,
    step_campaign,
)
from repro.obs.manifest import RunManifest
from repro.parallel.runner import CampaignRunner


def metric(manifest: RunManifest, name: str, **labels) -> float | None:
    for record in manifest.metrics:
        if (record["component"] == "breaking_point"
                and record["name"] == name
                and record.get("labels", {}) == labels):
            return record["value"]
    return None


class TestMiniatureLadder:
    def test_event_budget_trips_at_sixteen_homes(self):
        report = run_breaking_point(
            start_homes=4, max_steps=3, seed=0,
            step_event_limit=2500, runner=CampaignRunner(jobs=1),
        )
        assert [s.homes for s in report.steps] == [4, 8, 16]
        assert [s.step for s in report.steps] == [0, 1, 2]
        # Monotone: populations strictly double, events grow with them.
        homes = [s.homes for s in report.steps]
        assert homes == sorted(homes)
        assert all(b == 2 * a for a, b in zip(homes, homes[1:]))
        events = [s.events for s in report.steps]
        assert events == sorted(events)
        assert [s.stop_reason for s in report.steps] == [
            None, None, REASON_EVENT_BUDGET,
        ]
        assert report.stop_reason == REASON_EVENT_BUDGET
        assert report.breaking_point == 16
        assert report.max_sustained == 8

    def test_one_manifest_per_step_with_attribution(self):
        report = run_breaking_point(
            start_homes=4, max_steps=3, seed=0,
            step_event_limit=2500, runner=CampaignRunner(jobs=1),
        )
        paths = [s.manifest_path for s in report.steps]
        assert all(p is not None and p.exists() for p in paths)
        assert len(set(paths)) == 3
        assert paths[0].name == step_campaign("breaking-point", 4) + ".jsonl"

        # Passing steps are attributed as such...
        passing = RunManifest.load(paths[0])
        assert metric(passing, "stopped", reason="pass") == 1
        assert metric(passing, "homes") == 4
        assert metric(passing, "step") == 0
        # ...and the tripping step carries the stop condition.
        tripped = RunManifest.load(paths[-1])
        assert metric(tripped, "stopped", reason=REASON_EVENT_BUDGET) == 1
        assert metric(tripped, "stopped", reason="pass") is None
        assert metric(tripped, "homes") == 16
        assert metric(tripped, "homes_completed") == 16
        assert metric(tripped, "step") == 2

    def test_explicit_manifest_path_holds_the_first_step(self, tmp_path):
        explicit = tmp_path / "ladder.jsonl"
        report = run_breaking_point(
            start_homes=2, max_steps=2, seed=0,
            runner=CampaignRunner(jobs=1, manifest=explicit),
        )
        first, second = (s.manifest_path for s in report.steps)
        assert first == explicit
        assert second.name == step_campaign("breaking-point", 4) + ".jsonl"
        assert metric(RunManifest.load(first), "homes") == 2
        assert metric(RunManifest.load(second), "homes") == 4

    def test_success_floor_attribution(self):
        report = run_breaking_point(
            start_homes=4, max_steps=3, seed=0,
            home_event_budget=400, success_floor=0.95,
            runner=CampaignRunner(jobs=1),
        )
        assert report.stop_reason == REASON_SUCCESS_FLOOR
        assert report.breaking_point == 8
        tripped = report.steps[-1]
        assert tripped.homes == 8
        assert tripped.success_rate < 0.95
        manifest = RunManifest.load(tripped.manifest_path)
        assert metric(manifest, "stopped", reason=REASON_SUCCESS_FLOOR) == 1
        assert metric(manifest, "homes_failed") == 2

    def test_wall_clock_trips_immediately(self):
        report = run_breaking_point(
            start_homes=4, max_steps=3, seed=0,
            wall_limit=0.0, runner=CampaignRunner(jobs=1, manifest=False),
        )
        assert report.stop_reason == REASON_WALL_CLOCK
        assert len(report.steps) == 1
        assert report.steps[0].manifest_path is None

    def test_ladder_exhaustion_is_not_a_breaking_point(self):
        report = run_breaking_point(
            start_homes=4, max_steps=2, seed=0, runner=CampaignRunner(jobs=1),
        )
        assert report.stop_reason == REASON_MAX_STEPS
        assert report.breaking_point is None
        assert report.max_sustained == 8
        assert all(s.passed for s in report.steps)

    def test_ladder_is_deterministic(self):
        kwargs = dict(start_homes=4, max_steps=2, seed=5,
                      runner=CampaignRunner(jobs=1, manifest=False))
        a = run_breaking_point(**kwargs)
        b = run_breaking_point(**kwargs)
        assert [s.fleet_digest for s in a.steps] == [s.fleet_digest for s in b.steps]
        assert [s.events for s in a.steps] == [s.events for s in b.steps]


class TestRendering:
    def test_report_renders_outcomes(self):
        report = run_breaking_point(
            start_homes=4, max_steps=3, seed=0,
            step_event_limit=2500,
            runner=CampaignRunner(jobs=1, manifest=False),
        )
        text = report.render()
        assert "breaking point: 16 homes (event-budget)" in text
        assert "max sustained: 8 homes" in text
        assert text.count("pass") == 2

    def test_observe_report_renders_step_manifest(self, capsys):
        report = run_breaking_point(
            start_homes=4, max_steps=1, seed=0,
            wall_limit=0.0, runner=CampaignRunner(jobs=1),
        )
        path = report.steps[0].manifest_path
        assert main(["observe", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "breaking_point/stopped[reason=wall-clock]" in out
        assert "fleet/homes" in out

    def test_render_manifest_helper_directly(self):
        report = run_breaking_point(
            start_homes=4, max_steps=1, seed=0, runner=CampaignRunner(jobs=1),
        )
        text = render_manifest(RunManifest.load(report.steps[0].manifest_path))
        assert "breaking_point" in text

    def test_cli_breaking_point_subcommand(self, capsys):
        assert main([
            "--seed", "0", "--no-cache", "fleet", "breaking-point",
            "--start-homes", "4", "--max-steps", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "no breaking point within 2 step(s)" in out
        assert out.count("manifest:") == 2
