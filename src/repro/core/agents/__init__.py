"""The three synchronization agents of Section 4.5.

All agents share the same injected interface (``before_sync_op`` /
``after_sync_op``, Listing 3) and the same constraint — no dynamic memory
allocation in the master (Section 3.3) — but differ in how they encode the
master's sync-op order:

* :mod:`repro.core.agents.total_order` — one global log, replayed in
  exactly the recorded order (Figure 4a).  Trivial, but stalls unrelated
  operations.
* :mod:`repro.core.agents.partial_order` — a lookahead window over the
  global log; only operations on the same variable are ordered
  (Figure 4b).  Less stalling, more shared-cursor contention.
* :mod:`repro.core.agents.wall_of_clocks` — per-master-thread buffers plus
  a fixed wall of logical clocks indexed by a hash of the sync variable's
  address (Figure 4c).  The paper's contribution and consistent winner.
"""

from repro.core.agents.total_order import TotalOrderAgent
from repro.core.agents.partial_order import PartialOrderAgent
from repro.core.agents.wall_of_clocks import WallOfClocksAgent

#: Registry used by the MVEE front end and the benchmark harness.
AGENT_REGISTRY = {
    "total_order": TotalOrderAgent,
    "partial_order": PartialOrderAgent,
    "wall_of_clocks": WallOfClocksAgent,
}
