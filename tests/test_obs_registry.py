"""Tests for the virtual-time metrics registry and the Stats bags it reads."""

from repro.obs.registry import MetricsRegistry, Series
from repro.util import Stats


class TestSeries:
    def test_append_and_views(self):
        s = Series("q")
        s.append(1.0, 10)
        s.append(2.0, 20)
        assert s.times() == [1.0, 2.0]
        assert s.values() == [10.0, 20.0]
        assert s.last() == 20.0
        assert len(s) == 2

    def test_empty_last_is_none(self):
        assert Series("q").last() is None


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.timeseries("d") is reg.timeseries("d")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.add_source(lambda: [("sent", 4)])
        reg.timeseries("q").append(0.0, 9)
        snap = reg.snapshot()
        assert snap == {"counters": {"sent": 4.0}, "series": {"q": [(0.0, 9.0)]}}

    def test_sources_are_read_when_the_snapshot_is_taken(self):
        """Pull, not push: a source reports where the counts already live,
        so a bag created after the source was registered is read too and
        there is no copy to fall out of step."""
        bags = {"r0.n0": Stats()}
        reg = MetricsRegistry()
        reg.add_source(lambda: ((f"{host}.{name}", value)
                                for host, bag in bags.items()
                                for name, value in bag.counters.items()))
        bags["r0.n0"].inc("executed", 5)
        assert reg.counter_values() == {"r0.n0.executed": 5.0}
        bags["r0.g0"] = Stats()  # provisioned mid-run
        bags["r0.g0"].inc("executed")
        bags["r0.n0"].inc("executed")
        values = reg.snapshot()["counters"]
        assert values == {"r0.g0.executed": 1.0, "r0.n0.executed": 6.0}
        assert list(values) == sorted(values)
        assert all(isinstance(v, float) for v in values.values())


class TestStats:
    def test_is_a_plain_bag(self):
        stats = Stats()
        stats.inc("executed")
        stats.inc("executed", 2)
        assert stats.get("executed") == 3
        assert stats.get("missing") == 0
        assert stats.counters == {"executed": 3}
        assert Stats.__slots__ == ("counters",)
