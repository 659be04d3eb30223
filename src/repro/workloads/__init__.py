"""Workloads: PARSEC/SPLASH-like benchmarks, nginx, and attack programs.

The paper evaluates on PARSEC 2.1 and SPLASH-2x with four worker threads
(Table 2 lists each benchmark's native run time, syscall rate and sync-op
rate) plus an nginx 1.8 use case.  We cannot run the original suites on a
simulated kernel, so each benchmark is regenerated as a *synthetic twin*:
a guest program with the same thread topology (data-parallel, pipelined,
or barrier-phased), the same syscall and sync-op **rates**, and a
contention profile matching the original's locking structure.  The twin
exercises exactly the code paths whose cost the paper measures — monitor
interposition, sync-buffer traffic, replay stalls — which is what makes
the slowdown *shapes* transfer.
"""
