"""Correctness tooling for the push/pull contract (Section 3.8).

* :mod:`repro.analysis.race` -- "repro-tsan", a dynamic race detector
  that wraps any memory model and reports unprotected conflicting
  writes per barrier-delimited epoch.
* :mod:`repro.analysis.dm_race` -- the distributed-memory counterpart:
  an epoch checker for the MPI-3-style one-sided/message discipline of
  :class:`repro.runtime.dm.DMRuntime`.
* :mod:`repro.analysis.lint` -- a static AST pass over the kernels
  flagging stores that bypass the instrumented memory (ANL001), push
  stores without atomics (ANL002), push-side ownership checks
  (ANL003), missing barriers (ANL004), untagged or window-less DM
  channels (ANL005), and stores outside every region boundary
  (ANL006); its module index, body scanner and helper expansion are
  the ones effect inference reads.
* :mod:`repro.analysis.effects` -- static effect inference (ANL1xx):
  per-phase effect signatures (arrays read/written, index provenance,
  push/pull direction, atomic necessity verdicts, DM verb footprints)
  over the 17-kernel matrix, with certified direction/ownership/
  atomicity/barrier-elision facts; :mod:`repro.analysis.effect_report`
  renders them and maintains the committed golden ``EFFECTS.json``.
* :mod:`repro.analysis.crosscheck` -- compares observed conflict and
  communication counts against the Section-4 PRAM bounds and the
  cut-based DM bound.
* :mod:`repro.analysis.runner` -- the one cell runner behind the
  dynamic passes: the race pass (seven paper algorithms under the
  detector), the DM pass (four DM kernels under the epoch checker),
  and the chaos suite (both matrices under seeded fault plans).

The package re-exports nothing; import from the defining submodule.
The CLI surface is ``python -m repro analyze``.
"""
