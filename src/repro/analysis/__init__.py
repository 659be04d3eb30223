"""Static identification and instrumentation of sync ops (Sections 4.3-4.4).

The pipeline mirrors the paper's workflow end to end:

1. :mod:`repro.analysis.ir` — an x86-flavoured mini-IR with LOCK prefixes,
   XCHG, aligned loads/stores, pointer-assignment statements and debug
   info (the compiled binary + symbols).
2. :mod:`repro.analysis.scanner` — stage 1, the ``analysis.rb`` analogue:
   mark every type (i) (LOCK-prefixed) and type (ii) (XCHG) instruction
   and map it to its source variable through debug info.
3. :mod:`repro.analysis.pointsto` — Steensgaard (unification, DSA-style)
   and Andersen (subset, SVF-style) points-to analyses, including the
   paper's observation that unification collapses incompatible heap
   objects and over-approximates.
4. :mod:`repro.analysis.identify` — stage 2: mark type (iii) aligned
   loads/stores that may alias a stage-1 variable; soundness caveats
   (volatile-only primitives are missed — Listing 2).
5. :mod:`repro.analysis.qualify` — the modified-clang ``_Atomic``
   qualifier checker and the fixpoint refactoring loop of Figure 3.
6. :mod:`repro.analysis.instrument` — wrap identified sync ops with
   ``before_sync_op`` / ``after_sync_op`` calls (Listing 3) and emit the
   site set the MVEE's injection layer consumes.

On top of the pipeline sits a reusable interprocedural framework:

7. :mod:`repro.analysis.cfg` — basic-block CFG construction per function.
8. :mod:`repro.analysis.dataflow` — a generic worklist fixpoint engine
   (forward/backward, configurable join) with the must-hold lock-set
   analysis as its first client.
9. :mod:`repro.analysis.callgraph` — call graphs with indirect calls
   resolved through the points-to results.
10. :mod:`repro.analysis.lockorder` — RacerX-style static lock-order
    graph, cycle enumeration into deadlock candidates with trylock /
    gate-ordered suppression, and the cross-check against the runtime
    wait-for-graph evidence (:mod:`repro.races.deadlock`).
"""
