"""repro.races — two-sided race detection for the sync-op pipeline.

Static side (:mod:`repro.races.lockset`): an Eraser-style lockset lint
over the analysis mini-IR, reusing the Steensgaard/Andersen points-to
results to find shared globals with no consistently-held lock.

Dynamic side (:mod:`repro.races.detector`): a FastTrack-style
vector-clock happens-before detector attached as a consumer on the
machine's hook table (:mod:`repro.sched.hooks`), reporting unordered
conflicting accesses at un-identified sites.

Cross-checker (:mod:`repro.races.coverage`): diffs dynamic race reports
against the statically identified site set — each gap *is* the
Listing-2 false negative, named and paired with a remediation.

Deadlock side (:mod:`repro.races.deadlock`): per-variant held-sets and a
runtime wait-for-graph, another hook-table consumer, detecting guest
lock-order deadlocks at cycle formation — the
dynamic mirror of :mod:`repro.analysis.lockorder`.
"""
