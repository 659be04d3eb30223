"""Discrete-event simulation of a multi-core machine running variants.

This package is the "hardware + OS scheduler" substrate: guest threads are
Python generators yielding typed events (:mod:`repro.sched.events`); the
:class:`repro.sched.machine.Machine` executes all threads of all variants
on a fixed number of simulated cores with a seeded, nondeterministic
scheduling policy.  The MVEE monitor and the synchronization agents plug in
through the interceptor interfaces in :mod:`repro.sched.interceptor`.
"""
