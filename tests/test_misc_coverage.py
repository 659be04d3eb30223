"""Edge-path tests across modules (error formats, small helpers)."""

import pytest

from repro.core.divergence import DivergenceKind, DivergenceReport
from repro.errors import (
    DeadlockError,
    DivergenceError,
    GuestFault,
    SyscallError,
)
from repro.kernel.net import Network
from repro.perf.timeline import TraceEntry


class TestErrorTypes:
    def test_guest_fault_carries_location(self):
        fault = GuestFault("boom", variant=1, thread="main/2")
        assert fault.variant == 1 and fault.thread == "main/2"

    def test_syscall_error_default_errno(self):
        assert SyscallError("x").errno_name == "EINVAL"

    def test_deadlock_error_blocked_list(self):
        err = DeadlockError("stuck", blocked=["a", "b"])
        assert err.blocked == ["a", "b"]

    def test_divergence_error_wraps_report(self):
        report = DivergenceReport(
            kind=DivergenceKind.SYSCALL_MISMATCH, thread="main",
            syscall_seq=3, detail="args differ",
            observations={0: ("write", (1, "a")), 1: ("write", (1, "b"))})
        err = DivergenceError(report)
        assert err.report is report
        text = str(err)
        assert "syscall_mismatch" in text
        assert "thread=main" in text and "seq=3" in text
        assert "v0" in text and "v1" in text


class TestTraceEntry:
    def test_key_excludes_result_and_time(self):
        first = TraceEntry(thread="t", kind="syscall", name="write",
                           detail=(1, "x"), result=1, time=5.0)
        second = TraceEntry(thread="t", kind="syscall", name="write",
                            detail=(1, "x"), result=2, time=9.0)
        assert first.key() == second.key()


class TestNetworkEdges:
    def test_send_after_client_close_is_epipe(self):
        net = Network()
        net.listen(80)
        conn = net.client_connect(80)
        net.client_close(conn)
        with pytest.raises(SyscallError) as excinfo:
            net.server_send(conn, b"late")
        assert excinfo.value.errno_name == "EPIPE"

    def test_client_recv_eof_after_server_close(self):
        net = Network()
        net.listen(80)
        conn = net.client_connect(80)
        net.server_close(conn)
        assert net.client_recv(conn) == b""

    def test_double_listen_rejected(self):
        net = Network()
        net.listen(80)
        with pytest.raises(SyscallError):
            net.listen(80)

    def test_connect_refused_without_listener(self):
        with pytest.raises(SyscallError):
            Network().client_connect(9999)

    def test_unknown_connection_rejected(self):
        with pytest.raises(SyscallError):
            Network().server_recv(42, 10)


class TestGuestLibcEdges:
    def test_free_is_lock_round_trip(self):
        from repro.guest.libc import GuestLibc
        from repro.guest.program import GuestProgram
        from repro.run import run_native

        class P(GuestProgram):
            def main(self, ctx):
                libc = yield from GuestLibc.setup(ctx)
                block = yield from libc.malloc(ctx, 16)
                yield from libc.free(ctx, block)
                return "freed"

        result = run_native(P(), seed=0)
        assert result.vm.threads["main"].result == "freed"
        assert result.report.total_sync_ops >= 4  # two lock round trips

    def test_fprintf_writes_to_fd(self):
        from repro.guest.libc import GuestLibc
        from repro.guest.program import GuestProgram
        from repro.run import run_native

        class P(GuestProgram):
            def main(self, ctx):
                libc = yield from GuestLibc.setup(ctx)
                yield from libc.fprintf(ctx, 2, "oops\n")

        result = run_native(P(), seed=0)
        assert result.disk.stream_text("stderr") == "oops\n"


class TestAgentSiteChecks:
    @pytest.mark.parametrize("agent", ["total_order", "partial_order",
                                       "wall_of_clocks"])
    def test_check_sites_flags_mismatched_programs(self, agent,
                                                   fast_costs):
        """With check_sites on, a program whose variants execute
        different sync sites (role-dependent!) trips the debugging
        check instead of wedging silently."""
        from repro.core.mvee import MVEE
        from repro.guest.program import GuestProgram

        class RoleDependent(GuestProgram):
            static_vars = ("a", "b")

            def main(self, ctx):
                role = yield from ctx.mvee_get_role()
                # Different *sites* per variant: diversity that changes
                # synchronization behaviour (§4.5.1: unsupported).
                if role == 0:
                    yield from ctx.fetch_add(ctx.static_addr("a"), 1,
                                             site="app.master.xadd")
                else:
                    yield from ctx.fetch_add(ctx.static_addr("b"), 1,
                                             site="app.slave.xadd")
                yield from ctx.printf("done\n")

        mvee = MVEE(RoleDependent(), variants=2, agent=agent, seed=1,
                    costs=fast_costs, max_cycles=1e9)
        mvee.agent_shared.check_sites = True
        with pytest.raises(RuntimeError, match="replay mismatch"):
            mvee.run()


class TestRecPlayEdges:
    def test_replay_agent_detects_log_overrun(self):
        from repro.baselines.recplay import SyncLog, replay_execution
        from tests.guestlib import ScheduleWitnessProgram

        empty = SyncLog()
        with pytest.raises(RuntimeError, match="ran past the log"):
            replay_execution(ScheduleWitnessProgram(workers=2, iters=2),
                             empty, seed=0)


class TestDivergenceExplain:
    def test_explain_covers_all_kinds(self):
        for kind in DivergenceKind:
            report = DivergenceReport(kind=kind, thread="main",
                                      syscall_seq=1, detail="d",
                                      observations={0: "x", 1: "y"})
            text = report.explain()
            assert "logical thread : main" in text
            assert "variant 0" in text and "variant 1" in text

    def test_cli_prints_explanation(self, capsys):
        from repro.cli import main
        code = main(["run", "radiosity", "--agent", "none",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "logical thread" in out
