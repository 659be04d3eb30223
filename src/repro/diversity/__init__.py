"""Software-diversity transforms applied to variants.

MVEEs derive their security from running *diversified* variants: the same
attack cannot succeed against all of them simultaneously.  The transforms
here are the ones the paper's evaluation exercises:

* :func:`~repro.diversity.aslr.aslr_layout` — address space layout
  randomization: every region base differs per variant, so the same
  logical variable lives at a different address in each (Sections 3.3,
  4.5.1, 5.1).
* :func:`~repro.diversity.dcl.dcl_layouts` — disjoint code layouts
  [Volckaert et al., TDSC'15]: code regions of different variants never
  overlap, so one variant's code address is unmapped (or non-executable)
  in every other — complete ROP immunity under an MVEE.
* noise — instruction-count perturbation (NOP insertion / substitution):
  same behaviour, different logical instruction counts.  This is what
  makes performance-counter-driven DMT schedulers diverge across variants
  (Section 2.1).
* allocator padding — a *behaviour-changing* diversification: variants
  allocate different sizes, issue different syscall sequences, and are
  explicitly unsupported (Section 4.5.1); tests demonstrate the failure.
"""
