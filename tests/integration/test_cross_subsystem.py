"""Integration tests spanning several subsystems at once."""


from repro.core.mvee import MVEE, run_mvee
from repro.perf.costs import CostModel

FAST = CostModel(monitor_syscall_overhead=2_000.0)


class TestAsmToMVEEPipeline:
    """Disassembly listing -> analysis -> instrumentation -> clean MVEE:
    the complete Section 4 workflow over the textual front end."""

    NGINX_LIKE_ASM = """
    .module customsrv
    .func spin_lock
    .loc srv.c 10
    .fact lk = &srvlock
    lock cmpxchg %eax, (lk)       ; site=srv.spinlock.lock.cmpxchg
    .func spin_unlock
    .loc srv.c 15
    .fact lk2 = &srvlock
    mov $0, (lk2)                 ; site=srv.spinlock.unlock.store
    .func bump_stat
    .fact st = &requests
    lock xadd %eax, (st)          ; site=srv.stats.xadd
    """

    def _server_like_program(self):
        from repro.guest.program import GuestProgram

        class CustomSyncProgram(GuestProgram):
            """Uses exactly the custom primitives the listing models."""

            static_vars = ("srvlock", "requests")

            def main(self, ctx):
                tids = yield from ctx.spawn_all(
                    self.worker, [() for _ in range(3)])
                witnesses = yield from ctx.join_all(tids)
                total = ctx.mem_load(ctx.static_addr("requests"))
                digest = hash(tuple(witnesses)) & 0xFFFF
                yield from ctx.printf(
                    f"requests={total} order={digest}\n")
                return total

            def worker(self, ctx):
                lock_addr = ctx.static_addr("srvlock")
                witness = 0
                for _ in range(40):
                    yield from ctx.compute(900)
                    while True:
                        old = yield from ctx.cas(
                            lock_addr, 0, 1,
                            site="srv.spinlock.lock.cmpxchg")
                        if old == 0:
                            break
                        yield from ctx.sched_yield()
                    observed = yield from ctx.fetch_add(
                        ctx.static_addr("requests"), 1,
                        site="srv.stats.xadd")
                    witness = hash((witness, observed)) & 0xFFFFFFFF
                    yield from ctx.atomic_store(
                        lock_addr, 0,
                        site="srv.spinlock.unlock.store")
                return witness

        return CustomSyncProgram()

    def test_analysis_output_makes_custom_sync_safe(self):
        from repro.analysis.asmtext import parse_asm
        from repro.analysis.identify import identify_sync_ops
        from repro.core.injection import instrument_sites

        module = parse_asm(self.NGINX_LIKE_ASM)
        report = identify_sync_ops(module)
        assert report.counts == (2, 0, 1)
        outcome = run_mvee(self._server_like_program(), variants=2,
                           agent="wall_of_clocks", seed=4, costs=FAST,
                           instrument=instrument_sites(report.sites()))
        assert outcome.verdict == "clean"
        assert "requests=120" in outcome.stdout

    def test_without_the_analysis_it_diverges(self):
        outcome = run_mvee(self._server_like_program(), variants=2,
                           agent="wall_of_clocks", seed=4, costs=FAST,
                           instrument=lambda site: False,
                           max_cycles=5e8)
        assert outcome.verdict != "clean"


class TestRecPlayOnBenchmarkTwin:
    def test_record_replay_a_parsec_twin(self):
        from repro.baselines.recplay import (
            record_execution,
            replay_execution,
        )
        from repro.workloads.synthetic import make_benchmark

        log, recorded = record_execution(
            make_benchmark("bodytrack", scale=0.05), seed=0)
        assert log.total > 0
        _, replayed = replay_execution(
            make_benchmark("bodytrack", scale=0.05), log, seed=6)
        assert replayed.stdout == recorded.stdout


class TestTimelineOnBenchmark:
    def test_slave_timeline_renders(self):
        from repro.perf.timeline import (
            VariantTraces,
            render_timeline,
            summarize_trace,
        )
        from repro.workloads.synthetic import make_benchmark

        traces = VariantTraces()
        mvee = MVEE(make_benchmark("volrend", scale=0.05), variants=2,
                    agent="wall_of_clocks", seed=2, costs=FAST,
                    consumers=(traces,))
        outcome = mvee.run()
        assert outcome.verdict == "clean"
        trace = traces.sync_ops(outcome.vms[1])
        text = render_timeline(trace, label="volrend slave")
        assert "volrend slave" in text
        stats = summarize_trace(trace)
        assert sum(s["ops"] for s in stats.values()) == len(trace)


class TestPersistedGridRoundTrip:
    def test_grid_to_disk_to_table(self, tmp_path):
        from repro.experiments.persist import load_results, save_results
        from repro.experiments.runner import run_benchmark_grid
        from repro.experiments.tables import table1

        results = run_benchmark_grid(benchmarks=["x264"],
                                     variant_counts=(2,), scale=0.1)
        path = tmp_path / "grid.json"
        save_results(results, path, metadata={"scale": 0.1})
        reloaded = load_results(path)
        assert table1(results) == table1(reloaded)


class TestCovertChannelUnderRelaxedMonitor:
    def test_trylock_channel_still_works(self):
        """The §5.4 channels abuse replication itself; they are monitor-
        agnostic (VARAN replicates results just the same)."""
        from repro.diversity.spec import DiversitySpec
        from repro.workloads.attacks import TrylockCovertChannel

        outcome = run_mvee(TrylockCovertChannel(), variants=2,
                           agent="wall_of_clocks", seed=7, costs=FAST,
                           monitor_kind="relaxed",
                           diversity=DiversitySpec(aslr=True, seed=2))
        assert outcome.verdict == "clean"
        master = outcome.vms[0].threads["main"].result
        slave = outcome.vms[1].threads["main"].result
        assert slave["decoded"] == master["my_secret"]
