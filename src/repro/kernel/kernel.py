"""Per-variant virtual kernel: state + syscall execution.

One :class:`VirtualKernel` instance exists per variant (plus one for native
runs).  The kernel owns the variant-private state — address space, FD
table, futex queues, pipes — and executes syscalls against it.  Shared
state (the disk and the network) is passed in and shared across variants,
which is what makes "all variants receive the same inputs" physically true
in the simulation.

The kernel knows its *role*:

* ``"native"`` — a plain run outside any MVEE; everything executes locally.
* ``"master"`` — the leader variant inside an MVEE; wired to the disk's
  output streams and to the network.
* ``"slave"`` — a follower; executes state-establishing calls locally but
  receives I/O results via :meth:`apply_replicated` (Section 2: inputs are
  duplicated to each variant, outputs performed only once).

Blocking calls return a :class:`Blocked` marker instead of a result; the
simulator parks the calling thread on ``Blocked.wait_key`` and either
retries the call when woken (``retry=True``) or delivers
``Blocked.wake_result`` directly (futex-style, ``retry=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SyscallError
from repro.kernel.fdtable import FDTable
from repro.kernel.fs import Pipe, VirtualDisk
from repro.kernel.futex import FutexTable
from repro.kernel.net import (
    WOULD_BLOCK,
    ConnSocket,
    ListenSocket,
    Network,
    accept_wait_key,
    recv_wait_key,
)
from repro.kernel.signals import SignalState
from repro.kernel.vmem import AddressSpace, LayoutBases, Protection
from repro.kernel.vtime import VirtualClock, seconds_to_cycles

#: Conventional negative errno results guests may check for.
ENOENT = -2
EAGAIN = -11
ENOSYS = -38


@dataclass
class Blocked:
    """Marker: the syscall would block.

    ``wait_key`` is the simulator-level key the thread parks on.
    ``retry`` selects re-execution on wake (I/O) vs. direct result delivery
    (futex).  ``timeout_cycles`` (nanosleep) asks for a timed wake.
    """

    wait_key: tuple
    retry: bool = True
    wake_result: Any = None
    timeout_cycles: float | None = None


@dataclass
class ExecRecord:
    """A successful ``execve`` — i.e. a compromise, in the attack demos."""

    path: str
    argv: tuple
    thread_id: str


class VirtualKernel:
    """All variant-private kernel state plus the syscall interpreter."""

    def __init__(self, disk: VirtualDisk, network: Network | None = None,
                 bases: LayoutBases | None = None, role: str = "native",
                 variant_index: int = 0):
        self.disk = disk
        self.network = network
        self.role = role
        self.variant_index = variant_index
        self.addr_space = AddressSpace(bases)
        self.fdt = FDTable()
        self.futexes = FutexTable(variant_index)
        self.signals = SignalState()
        self.clock = VirtualClock()
        self.pid = 4242  # replicated by the monitor; equal in all variants
        self.exec_log: list[ExecRecord] = []
        #: Threads a just-executed syscall made runnable (futex wakes);
        #: drained by the simulator after each call.
        self.pending_wakeups: list[str] = []
        self._next_pipe_id = 1
        self._sleep_serial = 0

    # -- helpers -------------------------------------------------------------

    @property
    def executes_io(self) -> bool:
        """Whether this kernel performs real I/O (native or master role)."""
        return self.role in ("native", "master")

    # -- dispatch ----------------------------------------------------------

    def execute(self, name: str, args: tuple, thread_id: str):
        """Execute one syscall locally.  Returns a result or ``Blocked``."""
        handler = getattr(self, f"_sys_{name}", None)
        if handler is None:
            # Unknown syscalls: real kernels return -ENOSYS; the monitor
            # may still have intercepted and answered them (MVEE_GET_ROLE).
            return ENOSYS
        return handler(thread_id, *args)

    def apply_replicated(self, name: str, args: tuple, result) -> None:
        """Update slave-local state to mirror a master-executed I/O call."""
        handler = getattr(self, f"_replicate_{name}", None)
        if handler is not None:
            handler(args, result)

    # -- files ---------------------------------------------------------------

    def _sys_open(self, thread_id: str, path: str, mode: str = "r"):
        if mode == "r":
            vfile = self.disk.lookup(path)
            if vfile is None:
                return ENOENT
        else:
            vfile = self.disk.create(path)
        entry = self.fdt.install("file", vfile, flags=frozenset({mode}))
        return entry.fd

    def _sys_close(self, thread_id: str, fd: int):
        entry = self.fdt.close(fd)
        if entry.kind == "pipe_w":
            pipe: Pipe = entry.obj
            pipe.write_ends -= 1
            if pipe.writers_closed:
                # EOF becomes observable; wake blocked readers.
                self.pending_wakeups.append(("key", ("pipe", self.variant_index,
                                                     pipe.pipe_id)))
        elif entry.kind == "pipe_r":
            entry.obj.read_ends -= 1
        elif entry.kind == "conn_sock":
            sock: ConnSocket = entry.obj
            if sock.wired and self.network is not None:
                self.network.server_close(sock.conn_id)
        return 0

    def _sys_read(self, thread_id: str, fd: int, count: int):
        entry = self.fdt.get(fd)
        if entry.kind == "file":
            data = entry.obj.read_at(entry.offset, count)
            entry.offset += len(data)
            return data
        if entry.kind == "stream":
            return b""  # stdin is empty in the simulation
        if entry.kind == "pipe_r":
            pipe: Pipe = entry.obj
            data = pipe.read(count)
            if data is None:
                return Blocked(("pipe", self.variant_index, pipe.pipe_id))
            return data
        if entry.kind == "conn_sock":
            return self._sys_recv(thread_id, fd, count)
        raise SyscallError(f"read on unsupported fd kind {entry.kind}",
                           errno_name="EINVAL")

    def _replicate_read(self, args, result) -> None:
        fd = args[0]
        entry = self.fdt.get(fd)
        if entry.kind == "file" and isinstance(result, bytes):
            entry.offset += len(result)
        elif entry.kind == "pipe_r" and isinstance(result, bytes):
            # Drain the slave-local pipe copy so it does not grow without
            # bound (its contents were mirrored by _replicate_write).
            entry.obj.read(len(result))

    def _sys_write(self, thread_id: str, fd: int, data: bytes):
        entry = self.fdt.get(fd)
        if isinstance(data, str):
            data = data.encode("utf-8")
        if entry.kind == "file":
            written = entry.obj.write_at(entry.offset, data)
            entry.offset += written
            return written
        if entry.kind == "stream":
            self.disk.append_stream(entry.obj, data)
            return len(data)
        if entry.kind == "pipe_w":
            pipe: Pipe = entry.obj
            written = pipe.write(data)
            self.pending_wakeups.append(("key", ("pipe", self.variant_index,
                                                 pipe.pipe_id)))
            return written
        if entry.kind == "conn_sock":
            return self._sys_send(thread_id, fd, data)
        raise SyscallError(f"write on unsupported fd kind {entry.kind}",
                           errno_name="EINVAL")

    def _replicate_write(self, args, result) -> None:
        fd, data = args[0], args[1]
        entry = self.fdt.get(fd)
        if entry.kind == "file" and isinstance(result, int) and result > 0:
            entry.offset += result
        elif entry.kind == "pipe_w":
            # Slave pipes carry real bytes so slave readers see them.
            if isinstance(data, str):
                data = data.encode("utf-8")
            entry.obj.write(data)
            self.pending_wakeups.append(
                ("key", ("pipe", self.variant_index, entry.obj.pipe_id)))

    def _sys_lseek(self, thread_id: str, fd: int, offset: int,
                   whence: str = "set"):
        entry = self.fdt.get(fd)
        if whence == "set":
            entry.offset = offset
        elif whence == "cur":
            entry.offset += offset
        elif whence == "end":
            entry.offset = entry.obj.size + offset
        else:
            raise SyscallError(f"lseek: bad whence {whence!r}",
                               errno_name="EINVAL")
        return entry.offset

    def _sys_stat(self, thread_id: str, path: str):
        vfile = self.disk.lookup(path)
        if vfile is None:
            return ENOENT
        return vfile.size

    def _sys_unlink(self, thread_id: str, path: str):
        self.disk.unlink(path)
        return 0

    def _sys_pipe(self, thread_id: str):
        pipe = Pipe(pipe_id=(self.variant_index << 20) | self._next_pipe_id)
        self._next_pipe_id += 1
        read_end = self.fdt.install("pipe_r", pipe)
        write_end = self.fdt.install("pipe_w", pipe)
        return (read_end.fd, write_end.fd)

    def _sys_dup(self, thread_id: str, fd: int):
        return self.fdt.dup(fd).fd

    # -- memory -----------------------------------------------------------------

    def _sys_brk(self, thread_id: str, new_end: int | None = None):
        return self.addr_space.brk(new_end)

    def _sys_mmap(self, thread_id: str, size: int,
                  prot: Protection = Protection.RW):
        return self.addr_space.mmap(size, prot)

    def _sys_munmap(self, thread_id: str, start: int):
        self.addr_space.munmap(start)
        return 0

    def _sys_mprotect(self, thread_id: str, start: int, prot: Protection):
        self.addr_space.mprotect(start, prot)
        return 0

    # -- threads / time ------------------------------------------------------------

    def _sys_futex_wait(self, thread_id: str, addr: int, expected: int):
        value = self.addr_space.load(addr)
        if value != expected:
            return EAGAIN
        self.futexes.add_waiter(addr, thread_id)
        return Blocked(("futex", self.variant_index, addr), retry=False,
                       wake_result=0)

    def _sys_futex_wake(self, thread_id: str, addr: int, count: int = 1):
        woken = self.futexes.wake(addr, count, waker=thread_id)
        for waiter in woken:
            self.pending_wakeups.append(("thread", waiter))
        return len(woken)

    def _sys_sched_yield(self, thread_id: str):
        return 0

    def _sys_nanosleep(self, thread_id: str, seconds: float):
        self._sleep_serial += 1
        return Blocked(("sleep", self.variant_index, self._sleep_serial),
                       retry=False, wake_result=0,
                       timeout_cycles=seconds_to_cycles(seconds))

    def _sys_getpid(self, thread_id: str):
        return self.pid

    def _sys_gettimeofday(self, thread_id: str):
        return self.clock.gettimeofday()

    def _sys_clock_gettime(self, thread_id: str):
        return self.clock.clock_gettime()

    def _sys_rdtsc(self, thread_id: str):
        return self.clock.rdtsc()

    # -- network --------------------------------------------------------------------

    def _sys_socket(self, thread_id: str):
        entry = self.fdt.install("listen_sock", ListenSocket())
        return entry.fd

    def _sys_bind(self, thread_id: str, fd: int, port: int):
        sock = self._listen_sock(fd)
        sock.port = port
        return 0

    def _sys_listen(self, thread_id: str, fd: int):
        sock = self._listen_sock(fd)
        if sock.port is None:
            raise SyscallError("listen before bind", errno_name="EINVAL")
        if self.executes_io:
            self._net().listen(sock.port)
        sock.listening = True
        return 0

    def _sys_accept(self, thread_id: str, fd: int):
        sock = self._listen_sock(fd)
        if not sock.listening:
            raise SyscallError("accept on non-listening socket",
                               errno_name="EINVAL")
        outcome = self._net().accept(sock.port)
        if outcome is WOULD_BLOCK:
            return Blocked(accept_wait_key(sock.port))
        entry = self.fdt.install("conn_sock",
                                 ConnSocket(conn_id=outcome, wired=True))
        return entry.fd

    def _replicate_accept(self, args, result) -> None:
        # Slave materializes an unwired connection socket; the FD number it
        # allocates is compared against the master's by the monitor.
        self.fdt.install("conn_sock", ConnSocket(conn_id=-1, wired=False))

    def _sys_recv(self, thread_id: str, fd: int, count: int):
        sock = self._conn_sock(fd)
        outcome = self._net().server_recv(sock.conn_id, count)
        if outcome is WOULD_BLOCK:
            return Blocked(recv_wait_key(sock.conn_id))
        return outcome

    def _sys_send(self, thread_id: str, fd: int, data: bytes):
        sock = self._conn_sock(fd)
        if isinstance(data, str):
            data = data.encode("utf-8")
        return self._net().server_send(sock.conn_id, data)

    # -- signals ------------------------------------------------------------------------

    def _sys_kill(self, thread_id: str, sig: int):
        """Send a signal to this process; wakes one sigwait-er if any."""
        woken = self.signals.send(sig)
        if woken is not None:
            self.pending_wakeups.append(("thread", woken))
        return 0

    def _sys_sigwait(self, thread_id: str, sig: int):
        """Block until the given signal arrives (consumes pending)."""
        if self.signals.try_consume(sig):
            return sig
        self.signals.add_waiter(sig, thread_id)
        return Blocked(("signal", self.variant_index, sig), retry=False,
                       wake_result=sig)

    def _sys_sigpending(self, thread_id: str, sig: int):
        """Count of undelivered instances of ``sig``."""
        return self.signals.pending.get(sig, 0)

    # -- process ------------------------------------------------------------------------

    def _sys_execve(self, thread_id: str, path: str, argv: tuple = ()):
        self.exec_log.append(ExecRecord(path=path, argv=tuple(argv),
                                        thread_id=thread_id))
        return 0

    def _sys_exit_group(self, thread_id: str, code: int = 0):
        return ("exit_group", code)  # interpreted by the simulator

    def _sys_mvee_get_role(self, thread_id: str):
        # Reached only outside an MVEE: the real kernel has no such call.
        # Inside an MVEE the monitor intercepts and answers it.
        return ENOSYS

    # -- internals --------------------------------------------------------------------------

    def _net(self) -> Network:
        if self.network is None:
            raise SyscallError("no network attached to this kernel",
                               errno_name="ENETDOWN")
        return self.network

    def _listen_sock(self, fd: int) -> ListenSocket:
        entry = self.fdt.get(fd)
        if entry.kind != "listen_sock":
            raise SyscallError(f"fd {fd} is not a socket",
                               errno_name="ENOTSOCK")
        return entry.obj

    def _conn_sock(self, fd: int) -> ConnSocket:
        entry = self.fdt.get(fd)
        if entry.kind != "conn_sock":
            raise SyscallError(f"fd {fd} is not a connection",
                               errno_name="ENOTCONN")
        return entry.obj
