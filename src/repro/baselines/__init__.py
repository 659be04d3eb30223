"""Baselines the paper positions itself against (Sections 2.1 and 6).

* :mod:`repro.baselines.dmt` — a Kendo-style weak deterministic
  multithreading scheduler driven by logical instruction counts.  Works
  for identical variants; breaks under software diversity, which is the
  paper's argument for record/replay-style agents.
* :mod:`repro.baselines.recplay` — an offline RecPlay-style
  record/replay system with per-variable Lamport timestamps, showing
  what the online agents borrow from classic R+R and what an MVEE must
  do differently (no dynamic allocation, N simultaneous consumers).
"""
