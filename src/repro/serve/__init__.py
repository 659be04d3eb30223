"""``repro.serve`` — MVEE-as-a-service.

The paper's monitor is a long-lived supervisor; this package gives the
reproduction the matching deployment shape: a daemon
(:mod:`repro.serve.daemon`) that hosts many concurrent lockstep
sessions (:mod:`repro.serve.session`) behind a session registry with
admission control and restart-surviving persistence
(:mod:`repro.serve.registry`), spoken to over a JSON-lines protocol
(:mod:`repro.serve.protocol`) by a thin client
(:mod:`repro.serve.client`), and load-tested end to end by
``repro serve bench`` (:mod:`repro.serve.bench`).

The byte-identity contract: a served session's verdict and
:meth:`~repro.obs.ObsHub.digest` are identical to the equivalent
single-shot ``repro run`` for the same (workload, agent, seed),
whether the session is driven in step batches or through the shared
worker pool.  See ``docs/SERVING.md``.
"""
