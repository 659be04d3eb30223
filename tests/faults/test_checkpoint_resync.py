"""Checkpoint resync: restart recovery from the nearest checkpoint.

Under ``resync_mode="checkpoint"`` the restart policy freezes a
fast-forward frontier from the latest checkpoint's per-thread call
counts and replays master history *up to* that frontier at zero cost;
only the suffix past the checkpoint is re-executed at full price.  The
recovered run must reach the same verdict and guest output as plain
history resync — with strictly fewer full-cost re-executed steps, and
a smaller fault-recovery cycle bucket in the profiler.

Cycle counts legitimately differ between the two modes (the resynced
variant rejoins at a different simulated time), so outcome identity is
pinned on verdict + stdout, never cycles.
"""

import pytest

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import run_mvee
from repro.faults.plan import FaultPlan, FaultSpec
from repro.prof.accounting import CycleProfiler
from tests.guestlib import MutexCounterProgram

AGENTS = ["total_order", "partial_order", "wall_of_clocks"]

#: Crash late enough that several checkpoints precede it at the test
#: cadence, so the frontier has history to fast-forward past.
CRASH_V1 = FaultPlan((FaultSpec(kind="crash", variant=1, at=12),))

CHECKPOINT_EVERY = 30_000.0


def _run(agent, resync_mode, costs, consumers=()):
    return run_mvee(
        MutexCounterProgram(workers=3, iters=25),
        variants=3, agent=agent, seed=7, costs=costs,
        faults=CRASH_V1,
        policy=MonitorPolicy(degradation="restart",
                             resync_mode=resync_mode),
        checkpoints=(CHECKPOINT_EVERY
                     if resync_mode == "checkpoint" else None),
        consumers=consumers)


class TestCheckpointResync:
    @pytest.mark.parametrize("agent", AGENTS)
    def test_outcome_identical_with_fewer_reexecuted_steps(
            self, agent, fast_costs):
        history = _run(agent, "history", fast_costs)
        checkpoint = _run(agent, "checkpoint", fast_costs)
        # Outcome identity: same verdict, same guest output.
        assert checkpoint.verdict == history.verdict == "degraded"
        assert checkpoint.stdout == history.stdout
        # Both resynced variant 1 through a restart.
        h_stats = history.monitor.resync_stats[1]
        c_stats = checkpoint.monitor.resync_stats[1]
        assert h_stats["mode"] == "history"
        assert c_stats["mode"] == "checkpoint"
        assert h_stats["restarts"] == c_stats["restarts"] == 1
        assert h_stats["fast_forwarded"] == 0
        # The acceptance bar: strictly fewer steps re-executed at full
        # cost, the rest served for free from the checkpoint frontier.
        assert c_stats["fast_forwarded"] > 0
        assert c_stats["resynced"] < h_stats["resynced"]
        assert (c_stats["fast_forwarded"] + c_stats["resynced"]
                == h_stats["resynced"])

    @pytest.mark.parametrize("agent", AGENTS)
    def test_checkpoint_resync_matches_clean_guest_output(
            self, agent, fast_costs):
        clean = run_mvee(MutexCounterProgram(workers=3, iters=25),
                         variants=3, agent=agent, seed=7,
                         costs=fast_costs)
        recovered = _run(agent, "checkpoint", fast_costs)
        assert recovered.stdout == clean.stdout

    def test_profiler_fault_recovery_bucket_shrinks(self, fast_costs):
        def recovery_cycles(resync_mode):
            profiler = CycleProfiler()
            outcome = _run("wall_of_clocks", resync_mode, fast_costs,
                           consumers=(profiler,))
            profiler.finalize(outcome.machine.now)
            per_category = profiler.snapshot().per_category()
            return per_category.get("fault-recovery", 0.0)

        fr_history = recovery_cycles("history")
        fr_checkpoint = recovery_cycles("checkpoint")
        assert fr_checkpoint < fr_history

    def test_crash_before_first_checkpoint_falls_back_to_history_cost(
            self, fast_costs):
        early = FaultPlan((FaultSpec(kind="crash", variant=1, at=4),))
        outcome = run_mvee(
            MutexCounterProgram(workers=3, iters=25),
            variants=3, agent="wall_of_clocks", seed=7,
            costs=fast_costs, faults=early,
            policy=MonitorPolicy(degradation="restart",
                                 resync_mode="checkpoint"),
            checkpoints=10_000_000.0)
        assert outcome.verdict == "degraded"
        stats = outcome.monitor.resync_stats[1]
        # No checkpoint preceded the crash: the frontier is empty and
        # every recorded step is re-executed, exactly like history mode.
        assert stats["fast_forwarded"] == 0
        assert stats["resynced"] > 0
