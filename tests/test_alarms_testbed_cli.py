"""Alarm log, testbed assembly, reporting helpers, and the CLI."""

from __future__ import annotations

import math

import pytest

from repro.alarms import AlarmLog
from repro.analysis.reporting import TextTable, fmt_bool, fmt_seconds, fmt_window
from repro.cli import build_parser, main
from repro.simnet.scheduler import Simulator
from repro.testbed import SmartHomeTestbed


class TestAlarmLog:
    def _log(self):
        sim = Simulator(seed=1)
        return sim, AlarmLog(sim)

    def test_silent_initially(self):
        _, log = self._log()
        assert log.silent and log.count() == 0

    def test_raise_records_time_and_detail(self):
        sim, log = self._log()
        sim.run_until(5.0)
        alarm = log.raise_alarm("device-offline", "cloud", "hub gone")
        assert alarm.ts == 5.0
        assert not log.silent

    def test_filters(self):
        sim, log = self._log()
        log.raise_alarm("a", "s1")
        sim.run_until(10.0)
        log.raise_alarm("b", "s2")
        assert [a.source for a in log.of_kind("a")] == ["s1"]
        assert [a.ts for a in log.of_kind("b")] == [10.0]

    def test_summary(self):
        _, log = self._log()
        log.raise_alarm("a", "s")
        log.raise_alarm("a", "s")
        log.raise_alarm("b", "s")
        assert log.summary() == {"a": 2, "b": 1}

    def test_count_by_kind(self):
        _, log = self._log()
        log.raise_alarm("a", "s")
        assert log.count("a") == 1 and log.count("b") == 0


class TestReporting:
    def test_fmt_seconds(self):
        assert fmt_seconds(None) == "∞"
        assert fmt_seconds(math.inf) == "∞"
        assert fmt_seconds(1.25, 1) == "1.2s"

    def test_fmt_window(self):
        assert fmt_window(None) == "-"
        assert fmt_window((16.0, 47.0)) == "[16s, 47s]"
        assert fmt_window((21.0, 21.0)) == "21s"
        assert fmt_window((10.0, math.inf)) == "∞"

    def test_fmt_bool(self):
        assert fmt_bool(True) == "yes" and fmt_bool(False) == "no" and fmt_bool(None) == "-"

    def test_table_renders_aligned(self):
        table = TextTable(["A", "Long header"], title="T")
        table.add_row("x", 1)
        out = table.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # header/sep/rows aligned

    def test_table_row_arity_checked(self):
        table = TextTable(["A", "B"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestTestbed:
    def test_add_device_idempotent(self):
        tb = SmartHomeTestbed(seed=1)
        a = tb.add_device("C2")
        b = tb.add_device("C2")
        assert a is b

    def test_hub_pulled_in_automatically(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C1")
        assert "hs1" in tb.devices
        assert "ring" in tb.endpoints

    def test_unique_lan_ips(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C5")
        tb.add_device("P2")
        tb.add_device("M7")
        ips = [d.host.ip for d in tb.devices.values()]
        assert len(ips) == len(set(ips))

    def test_local_and_cloud_variants_coexist(self):
        tb = SmartHomeTestbed(seed=1)
        cloud = tb.add_device("L2")
        local = tb.add_device("L2", table=2)
        assert cloud is not local
        assert "l2" in tb.devices and "l2-hk" in tb.devices

    def test_endpoint_created_on_demand_and_cached(self):
        tb = SmartHomeTestbed(seed=1)
        e1 = tb.endpoint("ring")
        e2 = tb.endpoint("ring")
        assert e1 is e2

    def test_attacker_host_is_promiscuous(self):
        tb = SmartHomeTestbed(seed=1)
        host = tb.add_attacker_host()
        assert host.nic.promiscuous

    def test_long_stability_no_alarms(self):
        tb = SmartHomeTestbed(seed=1)
        tb.add_device("C2")
        tb.add_device("L2")
        tb.add_device("HS1")
        tb.add_device("M9", table=2)
        tb.settle(8.0)
        tb.run(2000.0)
        assert tb.alarms.silent


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        args = parser.parse_args(["catalogue"])
        assert args.command == "catalogue"

    def test_catalogue_command(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "50 devices" in out
        assert "SmartThings Hub v3" in out

    def test_table1_single_label(self, capsys):
        assert main(["--labels", "HS3", "--trials", "1", "table1"]) == 0
        out = capsys.readouterr().out
        assert "SimpliSafe Keypad" in out and "20s" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
