"""The nginx use case (Section 5.5): a threaded web server with custom
synchronization primitives, a wrk-style load generator, and the
CVE-2013-2028-style attack.

nginx 1.8 introduced thread pools; part of its inter-thread
synchronization uses pthread primitives, but "the nginx developers have
also built some synchronization primitives of their own, using inline
assembly code and compiler intrinsics".  The paper shows that leaving
those custom primitives un-instrumented makes the server diverge as soon
as traffic flows, and that fifteen minutes with the analysis/refactoring
tools fixes it (51 sync ops identified).

Our server mirrors that structure:

* the **connection queue** between the acceptor (main) and the worker
  pool uses *custom* primitives — an ad-hoc spinlock and ticket counters
  with ``nginx.*`` site labels (matching
  :data:`repro.analysis.corpus.NGINX_SITES`);
* per-request statistics use a custom atomic counter;
* the worker pool's idle handshake uses the stock (``libpthread.*``)
  primitives.

Instrumenting only the pthread sites reproduces the paper's divergence;
adding the ``nginx.*`` sites (the analysis pipeline's output) makes the
MVEE run cleanly even under ASLR + DCL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.guest.program import GuestContext, GuestProgram
from repro.kernel.net import client_wait_key
from repro.kernel.vtime import seconds_to_cycles

#: Poison value distributing shutdown to pool workers.
SHUTDOWN = -1

#: Default served page size (the paper serves a static 4 KiB page).
PAGE_SIZE = 4096


class NginxCustomLock:
    """nginx's ad-hoc spinlock (inline-asm in the original)."""

    SITE_LOCK = "nginx.spinlock.lock.cmpxchg"
    SITE_UNLOCK = "nginx.spinlock.unlock.store"

    def __init__(self, addr: int):
        self.addr = addr

    def acquire(self, ctx: GuestContext):
        while True:
            old = yield from ctx.cas(self.addr, 0, 1, site=self.SITE_LOCK)
            if old == 0:
                return
            yield from ctx.sched_yield()

    def release(self, ctx: GuestContext):
        yield from ctx.atomic_store(self.addr, 0, site=self.SITE_UNLOCK)


class NginxConnQueue:
    """Custom MPMC ticket queue for accepted connections.

    Head/tail tickets are claimed with LOCK XADD; slots are plain
    (type iii) loads/stores guarded by the tickets — the kind of ad-hoc
    construction the two-stage analysis is built to find.
    """

    def __init__(self, ctx: GuestContext, capacity: int = 64):
        self.capacity = capacity
        self.lock = NginxCustomLock(ctx.alloc_static("ngx.q.lock"))
        self.head_addr = ctx.alloc_static("ngx.q.head")
        self.tail_addr = ctx.alloc_static("ngx.q.tail")
        self.slots = [ctx.alloc_static(f"ngx.q.slot{i}")
                      for i in range(capacity)]

    def push(self, ctx: GuestContext, value: int):
        while True:
            yield from self.lock.acquire(ctx)
            head = yield from ctx.atomic_load(self.head_addr,
                                              site="nginx.queue.slot.load")
            tail = yield from ctx.fetch_add(self.tail_addr, 0,
                                            site="nginx.queue.tail.xadd")
            if tail - head < self.capacity:
                break
            yield from self.lock.release(ctx)
            yield from ctx.sched_yield()
        yield from ctx.fetch_add(self.tail_addr, 1,
                                 site="nginx.queue.tail.xadd")
        yield from ctx.atomic_store(self.slots[tail % self.capacity],
                                    value + 1,  # +1: 0 means empty
                                    site="nginx.queue.slot.store")
        yield from self.lock.release(ctx)
        # Idle pool workers sleep on the tail counter (ngx thread pools
        # block on a condvar; the futex is that blocking path).
        yield from ctx.futex_wake(self.tail_addr, 1)

    def pop(self, ctx: GuestContext):
        while True:
            yield from self.lock.acquire(ctx)
            head = yield from ctx.atomic_load(self.head_addr,
                                              site="nginx.queue.slot.load")
            tail = yield from ctx.fetch_add(self.tail_addr, 0,
                                            site="nginx.queue.tail.xadd")
            if head < tail:
                slot = self.slots[head % self.capacity]
                value = yield from ctx.atomic_load(
                    slot, site="nginx.queue.slot.load")
                yield from ctx.fetch_add(self.head_addr, 1,
                                         site="nginx.queue.head.xadd")
                yield from self.lock.release(ctx)
                return value - 1
            yield from self.lock.release(ctx)
            yield from ctx.futex_wait(self.tail_addr, tail)


@dataclass
class NginxConfig:
    """Server configuration (defaults follow Section 5.5's setup)."""

    port: int = 80
    pool_threads: int = 32
    page_size: int = PAGE_SIZE
    #: Total connections the server will accept before shutting down
    #: (the traffic driver opens exactly this many).
    connections: int = 10
    requests_per_connection: int = 4
    #: Cycles of request-processing work per request.
    work_cycles: float = 30_000.0
    #: Vulnerability toggle: parse EXPLOIT requests (CVE-2013-2028-like).
    vulnerable: bool = False


class NginxServer(GuestProgram):
    """Threaded web server with an acceptor and a worker pool."""

    name = "nginx"

    def __init__(self, config: NginxConfig | None = None):
        self.config = config or NginxConfig()

    def main(self, ctx: GuestContext):
        config = self.config
        queue = NginxConnQueue(ctx)
        stats_addr = ctx.alloc_static("ngx.stats.requests")
        page = ctx.vm.kernel.disk.create("/var/www/index.html")
        page.write_at(0, b"<html>" + b"x" * (config.page_size - 13)
                      + b"</html>")
        sock = yield from ctx.syscall("socket")
        yield from ctx.syscall("bind", sock, config.port)
        yield from ctx.syscall("listen", sock)
        tids = yield from ctx.spawn_all(
            self.pool_worker,
            [(queue, stats_addr, i) for i in range(config.pool_threads)])
        for _ in range(config.connections):
            conn_fd = yield from ctx.syscall("accept", sock)
            yield from queue.push(ctx, conn_fd)
        for _ in range(config.pool_threads):
            yield from queue.push(ctx, SHUTDOWN)
        yield from ctx.join_all(tids)
        served = ctx.mem_load(stats_addr)
        yield from ctx.printf(f"nginx: served {served} requests\n")
        return served

    def pool_worker(self, ctx: GuestContext, queue, stats_addr, index):
        config = self.config
        handled = 0
        while True:
            conn_fd = yield from queue.pop(ctx)
            if conn_fd == SHUTDOWN:
                break
            served = yield from self.handle_connection(ctx, conn_fd,
                                                       stats_addr)
            handled += served
        return handled

    def handle_connection(self, ctx: GuestContext, conn_fd: int,
                          stats_addr: int):
        config = self.config
        served = 0
        while True:
            request = yield from ctx.syscall("recv", conn_fd, 4096)
            if not request:
                break
            if (config.vulnerable
                    and request.startswith(b"EXPLOIT ")):
                yield from self._exploited(ctx, request)
            yield from ctx.compute(config.work_cycles)
            fd = yield from ctx.open("/var/www/index.html")
            body = yield from ctx.read(fd, config.page_size)
            yield from ctx.close(fd)
            yield from ctx.syscall(
                "send", conn_fd,
                b"HTTP/1.1 200 OK\r\n\r\n" + body)
            yield from ctx.fetch_add(stats_addr, 1,
                                     site="nginx.stats.requests.xadd")
            served += 1
            if request.rstrip().endswith(b"close"):
                break
        yield from ctx.close(conn_fd)
        return served

    def _exploited(self, ctx: GuestContext, request: bytes):
        """CVE-2013-2028 analogue: a chunked-transfer overflow lets the
        attacker redirect control flow to an absolute address embedded in
        the request.  The address is only meaningful in the variant whose
        (diversified) code layout the attacker targeted; in every other
        variant the 'jump' lands in unmapped memory and faults."""
        target = int(request.split()[1], 16)
        region = ctx.vm.kernel.addr_space.region_at(target)
        if region is not None and region.tag == "code":
            # Control flow reaches the ROP chain: spawn a shell.
            yield from ctx.syscall("execve", "/bin/sh",
                                   ("-c", "id"))
        else:
            # The redirected 'call' dereferences unmapped memory.
            ctx.mem_load(target)


@dataclass
class TrafficStats:
    """Filled in by the traffic driver as responses arrive."""

    requests_sent: int = 0
    responses: int = 0
    bytes_received: int = 0
    first_send_cycles: float = 0.0
    last_response_cycles: float = 0.0

    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        window = self.last_response_cycles - self.first_send_cycles
        if window <= 0:
            return 0.0
        return self.responses / (window / seconds_to_cycles(1.0))


def make_traffic(config: NginxConfig, latency_s: float,
                 stats: TrafficStats, exploit_payload: bytes | None = None,
                 start_s: float = 0.0):
    """Build a wrk-style traffic driver.

    ``latency_s`` is the one-way network delay: ~100 µs models the
    paper's gigabit client link, 0 models loopback.  Each of the
    configured connections sends ``requests_per_connection`` GETs
    back-to-back (a new request as each response arrives).  If
    ``exploit_payload`` is given, the final connection sends it instead
    of a normal request.
    """

    latency = seconds_to_cycles(latency_s)

    def driver(machine, network):
        def open_connection(index):
            def connect(machine_):
                try:
                    conn = network.client_connect(config.port)
                except Exception:
                    # Server not listening yet (still bootstrapping):
                    # retry shortly, like a real client's SYN retry.
                    machine_.call_at(machine_.now + 50_000.0, connect)
                    return
                send_request(conn, index, 0)
            machine.call_at(machine.now + latency * index, connect)

        def send_request(conn, index, sent):
            is_exploit = (exploit_payload is not None
                          and index == config.connections - 1)
            if is_exploit:
                payload = exploit_payload
            elif sent == config.requests_per_connection - 1:
                payload = b"GET /index.html close"
            else:
                payload = b"GET /index.html"

            def deliver(machine_):
                network.client_send(conn, payload)
                stats.requests_sent += 1
                if stats.first_send_cycles == 0.0:
                    stats.first_send_cycles = machine_.now
                machine_.wait_key_external(
                    client_wait_key(conn),
                    lambda m: receive(m, conn, index, sent))
            machine.call_at(machine.now + latency, deliver)

        def receive(machine_, conn, index, sent):
            data = network.client_recv(conn)
            if data in (b"",):
                return
            if data is None or not isinstance(data, bytes):
                return
            stats.responses += 1
            stats.bytes_received += len(data)
            stats.last_response_cycles = machine_.now + latency
            if sent + 1 < config.requests_per_connection:
                send_request(conn, index, sent + 1)
            else:
                machine_.call_at(machine_.now + latency,
                                 lambda m: network.client_close(conn))

        for index in range(config.connections):
            machine.call_at(seconds_to_cycles(start_s),
                            lambda m, i=index: open_connection(i))

    return driver


def pthread_only_sites(site: str) -> bool:
    """The 'before refactoring' instrumentation predicate: custom nginx
    primitives bare (the 'after analysis' condition instruments every
    site)."""
    return not site.startswith("nginx.")
