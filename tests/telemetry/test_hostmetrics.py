"""Host metrics registry: event-time feeds and scrape-time publishing."""

from repro.telemetry import hostmetrics
from repro.telemetry.hostmetrics import (
    host_registry,
    host_snapshot,
    publish_executor_stats,
    publish_pool_stats,
    publish_serve_status,
)


class TestEventTimeFeeds:
    def test_inc_and_snapshot(self):
        hostmetrics.inc("host.test.events")
        hostmetrics.inc("host.test.events", 2)
        assert host_snapshot()["host.test.events"] == 3

    def test_observe_seconds_buckets(self):
        hostmetrics.observe_seconds("host.serve.op_latency_s", 0.002)
        hist = host_registry().histogram(
            "host.serve.op_latency_s", hostmetrics.LATENCY_BUCKETS_S)
        assert hist.count == 1

    def test_set_gauge_tracks_high_water(self):
        hostmetrics.set_gauge("host.executor.in_flight", 5)
        hostmetrics.set_gauge("host.executor.in_flight", 2)
        gauge = host_registry().gauge("host.executor.in_flight")
        assert gauge.value == 2 and gauge.max == 5


class TestPublishing:
    def test_pool_stats_become_counters_and_gauges(self):
        publish_pool_stats({"size": 4, "alive": 3, "spawned": 7,
                            "respawns": 2, "stall_kills": 1,
                            "tasks": 40, "batches": 5})
        snap = host_snapshot()
        assert snap["host.pool.spawned"] == 7
        assert snap["host.pool.tasks"] == 40
        assert snap["host.pool.size"]["value"] == 4.0
        assert snap["host.pool.alive"]["value"] == 3.0

    def test_publishing_is_monotone_not_additive(self):
        # Publish-at-read must be idempotent: scraping twice (status
        # then metrics op) cannot double-count.
        for _ in range(3):
            publish_pool_stats({"spawned": 7})
        assert host_snapshot()["host.pool.spawned"] == 7

    def test_stale_publish_never_regresses(self):
        publish_pool_stats({"spawned": 7})
        publish_pool_stats({"spawned": 3})   # fresh pool, reset source
        assert host_snapshot()["host.pool.spawned"] == 7

    def test_executor_stats_recurse_into_pool(self):
        publish_executor_stats({
            "jobs": 4, "submitted": 10, "completed": 8,
            "in_flight": 2, "queued": 1,
            "pool": {"spawned": 4},
            "scheduler": {"steals": 2},
        })
        snap = host_snapshot()
        assert snap["host.executor.submitted"] == 10
        assert snap["host.executor.queued"]["value"] == 1.0
        assert snap["host.pool.spawned"] == 4
        # Dispatch is first-in first-out: a stray scheduler block from
        # an older source publishes nothing.
        assert not any(name.startswith("host.steal.") for name in snap)

    def test_serve_status_per_state_gauges(self):
        publish_serve_status({
            "created_total": 6, "rejected_total": 1,
            "active": 2, "peak_active": 3,
            "sessions": {"created": 1, "running": 1, "finished": 4},
        })
        snap = host_snapshot()
        assert snap["host.serve.sessions_created_total"] == 6
        assert snap["host.serve.sessions_rejected_total"] == 1
        assert snap["host.serve.sessions_running"]["value"] == 1.0
        assert snap["host.serve.sessions_peak_active"]["max"] == 3.0

    def test_publish_tolerates_none_and_empty(self):
        publish_pool_stats(None)
        publish_executor_stats({})
        publish_serve_status(None)
        assert host_snapshot() == {}


class TestSingleSource:
    def test_pool_stats_read_publishes(self):
        from repro.par.pool import WorkerPool

        pool = WorkerPool(2)
        try:
            stats = pool.stats()
            assert stats["spawned"] == 0
            assert host_snapshot()["host.pool.size"]["value"] == 2.0
        finally:
            pool.shutdown()
