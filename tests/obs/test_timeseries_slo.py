"""Windowed time series, SLO burn-rate detection, and their scenario wiring."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, NicStall
from repro.obs.export import dumps_deterministic
from repro.obs.metrics import Metrics, Reservoir
from repro.obs.slo import BurnRateDetector, SloSpec, evaluate_slos, window_counts
from repro.obs.timeseries import TimeSeriesBank
from repro.simkernel import Environment
from repro.workloads.presets import PRESETS
from repro.workloads.runner import run_scenario

STALL = NicStall(node=1, start_ns=200_000, end_ns=800_000, extra_ns=400_000)


def drive(schedule) -> TimeSeriesBank:
    """Run ``(t_ns, callable)`` pairs against a fresh bank at interval 100."""
    env = Environment()
    bank = TimeSeriesBank(env, 100)

    def proc(env):
        now = 0
        for at, record in schedule:
            if at > now:
                yield env.timeout(at - now)
                now = at
            record(bank)

    env.process(proc(env))
    env.run()
    return bank


class TestTimeSeriesBank:
    def test_rate_buckets_by_window(self):
        bank = drive([
            (0, lambda b: b.rate("sent").observe()),
            (50, lambda b: b.rate("sent").observe(2)),
            (250, lambda b: b.rate("sent").observe()),
        ])
        series = bank.rate("sent")
        assert series.windows() == [0, 2]
        assert series.window_sum(0) == 3
        assert series.window_sum(1) == 0     # untouched window reads zero
        assert series.window_sum(2) == 1
        assert series.total == 4
        assert series.points() == [[0, 3], [200, 1]]

    def test_gauge_tracks_last_and_max(self):
        bank = drive([
            (10, lambda b: b.gauge("depth").observe(3)),
            (20, lambda b: b.gauge("depth").observe(7)),
            (30, lambda b: b.gauge("depth").observe(2)),
        ])
        assert bank.gauge("depth").points() == [[0, 2, 7]]

    def test_quantile_windows_keep_raw_samples(self):
        bank = drive([
            (0, lambda b: b.quantile("lat").observe(10)),
            (10, lambda b: b.quantile("lat").observe(30)),
            (20, lambda b: b.quantile("lat").observe(20)),
            (110, lambda b: b.quantile("lat").observe(5)),
        ])
        series = bank.quantile("lat")
        assert series.window_values(0) == [10, 30, 20]
        # [t, count, p50, p99, max]
        assert series.points() == [[0, 3, 20, 30, 30], [100, 1, 5, 5, 5]]

    def test_labels_separate_series(self):
        bank = drive([
            (0, lambda b: b.rate("sent").observe()),
            (0, lambda b: b.rate("sent", shard="1").observe(5)),
        ])
        assert bank.rate("sent").total == 1
        assert bank.rate("sent", shard="1").total == 5
        doc = bank.as_dict()
        assert set(doc["series"]) == {"sent", "sent{shard=1}"}
        assert doc["interval_ns"] == 100

    def test_label_values_key_as_str(self):
        """``shard=1`` and ``shard="1"`` are one series, exported once."""
        bank = drive([
            (0, lambda b: b.rate("x", shard=1).observe()),
            (0, lambda b: b.rate("x", shard="1").observe()),
        ])
        assert bank.as_dict()["series"]["x{shard=1}"]["points"] == [[0, 2]]
        assert bank.rate("x", shard=1) is bank.rate("x", shard="1")
        assert bank.rate("x", shard=1).labels == {"shard": "1"}

    def test_window_range_spans_all_series(self):
        bank = drive([
            (150, lambda b: b.rate("a").observe()),
            (520, lambda b: b.gauge("b").observe(1)),
        ])
        assert bank.window_range() == (1, 5)
        assert TimeSeriesBank(Environment(), 100).window_range() is None

    def test_as_dict_deterministic(self):
        def doc():
            return dumps_deterministic(drive([
                (0, lambda b: b.rate("x").observe()),
                (120, lambda b: b.quantile("y", shard="0").observe(9)),
            ]).as_dict())
        assert doc() == doc()

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_ns"):
            TimeSeriesBank(Environment(), 0)


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec("x", "throughput", 0.9)
        with pytest.raises(ValueError, match="target"):
            SloSpec("x", "availability", 1.0)
        with pytest.raises(ValueError, match="threshold_ns"):
            SloSpec("x", "latency", 0.99)
        assert SloSpec("x", "availability", 0.99).budget == pytest.approx(0.01)


class TestBurnRateDetector:
    def spec(self):
        return SloSpec("avail", "availability", 0.9)   # budget = 0.1

    def test_within_budget_no_events(self):
        detector = BurnRateDetector(self.spec())
        assert detector.feed(0, good=19, bad=1) == []   # burn 0.5
        assert not detector.in_breach
        assert detector.max_burn_rate == pytest.approx(0.5)

    def test_breach_start_and_end_edges(self):
        detector = BurnRateDetector(self.spec())
        events = detector.feed(0, good=5, bad=5)        # burn 5.0
        assert [e.kind for e in events] == ["breach_start"]
        assert events[0].t_ns == 0
        assert detector.feed(100, good=4, bad=6) == []  # still breached: no edge
        events = detector.feed(200, good=20, bad=0)
        assert [e.kind for e in events] == ["breach_end"]
        assert detector.breached_windows == 2
        assert not detector.in_breach

    def test_empty_window_carries_state(self):
        detector = BurnRateDetector(self.spec())
        detector.feed(0, good=0, bad=10)
        assert detector.feed(100, good=0, bad=0) == []  # no evidence either way
        assert detector.in_breach
        result = detector.result()
        assert result["in_breach_at_end"] is True
        assert result["windows"] == 2

    def test_budget_consumed(self):
        detector = BurnRateDetector(self.spec())
        detector.feed(0, good=90, bad=10)               # exactly the budget
        assert detector.budget_consumed() == pytest.approx(1.0)

    def test_result_round_trips_to_json(self):
        detector = BurnRateDetector(self.spec())
        detector.feed(0, good=1, bad=9)
        text = dumps_deterministic(detector.result())
        assert '"breach_start"' in text


class TestWindowCounts:
    def test_availability_reads_completed_and_drops(self):
        bank = drive([
            (0, lambda b: b.rate("completed").observe(4)),
            (50, lambda b: b.rate("drops").observe(1)),
            (250, lambda b: b.rate("completed").observe(2)),
        ])
        rows = window_counts(bank, SloSpec("a", "availability", 0.9))
        # Dense walk: the quiet middle window appears with zero counts.
        assert rows == [(0, 4, 1), (100, 0, 0), (200, 2, 0)]

    def test_latency_thresholds_samples(self):
        bank = drive([
            (0, lambda b: b.quantile("latency_ns").observe(80)),
            (10, lambda b: b.quantile("latency_ns").observe(120)),
            (120, lambda b: b.quantile("latency_ns").observe(90)),
        ])
        rows = window_counts(
            bank, SloSpec("l", "latency", 0.99, threshold_ns=100))
        assert rows == [(0, 1, 1), (100, 1, 0)]

    def test_explicit_window_range(self):
        """A reader that has consumed some windows asks for the rest; a
        range past the data reads zeros, an empty range reads nothing."""
        bank = drive([
            (0, lambda b: b.rate("completed", shard=2).observe(4)),
            (250, lambda b: b.rate("drops", shard="2").observe(3)),
        ])
        spec = SloSpec("a", "availability", 0.9, shard=2)
        assert window_counts(bank, spec) == [
            (0, 4, 0), (100, 0, 0), (200, 0, 3)]
        assert window_counts(bank, spec, range(1, 4)) == [
            (100, 0, 0), (200, 0, 3), (300, 0, 0)]
        assert window_counts(bank, spec, range(3, 3)) == []

    def test_evaluate_slos_report_shape(self):
        bank = drive([(0, lambda b: b.rate("completed").observe(10))])
        doc = evaluate_slos(bank, (SloSpec("a", "availability", 0.99),))
        assert doc["interval_ns"] == 100
        assert doc["slos"]["a"]["good"] == 10
        assert doc["slos"]["a"]["events"] == []


class TestPercentileAgreement:
    """A registry histogram, a stats reservoir, and a QuantileSeries share
    one quantile rule."""

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 199])
    def test_three_implementations_agree(self, n):
        values = [(i * 7919) % 1000 for i in range(n)]
        hist = Metrics().histogram("h")
        reservoir = Reservoir("r")
        for v in values:
            hist.record(v)
            reservoir.record(v)
        bank = drive([(0, lambda b, v=v: b.quantile("q").observe(v))
                      for v in values])
        series = bank.quantile("q")
        (point,) = series.points()
        _t, count, p50, p99, peak = point
        assert count == n
        for p in (50, 95, 99):
            assert hist.percentile(p) == reservoir.percentile(p)
        assert p50 == hist.percentile(50) == reservoir.percentile(50)
        assert p99 == hist.percentile(99) == reservoir.percentile(99)
        assert peak == max(values)


class TestScenarioSlo:
    def test_healthy_preset_stays_inside_budget(self):
        report = run_scenario(PRESETS["rpc-sharded-slo"])
        slo = report["slo"]
        assert set(slo["slos"]) == {
            "availability", "latency_p99",
            *(f"availability.shard{i}" for i in range(4)),
            *(f"latency_p99.shard{i}" for i in range(4)),
        }
        for result in slo["slos"].values():
            assert result["events"] == []
            assert result["breached_windows"] == 0
        ts = report["results"]["timeseries"]
        assert ts["interval_ns"] == 200_000
        assert "completed" in ts["series"]
        assert "latency_ns{shard=0}" in ts["series"]

    def test_nic_stall_burns_error_budget_in_window(self):
        """Acceptance criterion: a NicStall on a server node fires a
        deterministic burn-rate breach inside (or right at the tail of)
        the fault window, localised to the stalled shard."""
        scenario = PRESETS["rpc-sharded-slo"]
        plan = FaultPlan(seed=scenario.seed, episodes=(STALL,))
        report = run_scenario(scenario, plan=plan)
        slos = report["slo"]["slos"]
        stalled = slos["latency_p99.shard1"]
        starts = [e for e in stalled["events"] if e["kind"] == "breach_start"]
        assert starts, "stalled shard never breached"
        interval = report["slo"]["interval_ns"]
        assert STALL.start_ns <= starts[0]["t_ns"] < STALL.end_ns + interval
        assert stalled["max_burn_rate"] > 1.0
        # The aggregate latency SLO sees it too; an unstalled shard stays
        # clean through the stall window itself.
        assert slos["latency_p99"]["breached_windows"] >= 1
        clean = slos["latency_p99.shard3"]
        for event in clean["events"]:
            assert not (STALL.start_ns <= event["t_ns"] < STALL.end_ns)
        # Availability burns too: the stall pushes clients past abandonment.
        assert report["results"]["drops"]["abandoned"] >= 1
        assert slos["availability"]["bad"] >= 1

    def test_fault_run_byte_identical(self):
        scenario = PRESETS["rpc-sharded-slo"]
        plan = FaultPlan(seed=scenario.seed, episodes=(STALL,))
        first = dumps_deterministic(run_scenario(scenario, plan=plan))
        second = dumps_deterministic(run_scenario(scenario, plan=plan))
        assert first == second

    def test_slo_absent_without_targets(self):
        report = run_scenario(PRESETS["rpc-sharded"])
        assert "slo" not in report
        assert "timeseries" not in report["results"]
