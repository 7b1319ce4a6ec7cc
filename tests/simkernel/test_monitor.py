"""Counters."""

from repro.simkernel.monitor import Counters


class TestCounters:
    def test_default_zero(self):
        assert Counters()["never-touched"] == 0

    def test_add_accumulates(self):
        counters = Counters()
        counters.add("packets")
        counters.add("packets", 4)
        assert counters["packets"] == 5

    def test_as_dict_and_reset(self):
        counters = Counters()
        counters.add("a", 2)
        assert counters.as_dict() == {"a": 2}
        counters.reset()
        assert counters["a"] == 0

    def test_as_dict_is_isolated_snapshot(self):
        """Mutating the exported dict must not leak back into the bag."""
        counters = Counters()
        counters.add("a", 2)
        snapshot = counters.as_dict()
        snapshot["a"] = 99
        snapshot["b"] = 1
        assert counters["a"] == 2
        assert counters["b"] == 0
        assert counters.as_dict() == {"a": 2}

    def test_reset_after_snapshot_keeps_snapshot(self):
        counters = Counters()
        counters.add("x", 7)
        snapshot = counters.as_dict()
        counters.reset()
        assert snapshot == {"x": 7}
