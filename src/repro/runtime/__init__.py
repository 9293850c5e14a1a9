"""Simulated parallel runtimes.

* :mod:`repro.runtime.sm` -- the shared-memory machine: P simulated
  threads over a 1D vertex partition, superstep execution, per-thread
  performance counters, simulated parallel time (max over threads per
  region plus barrier costs).
* :mod:`repro.runtime.frontier` -- per-thread frontier fragments
  (``my_F``) and their merge into the global frontier ``F`` (the
  k-filter of the paper's Section 4).
* :mod:`repro.runtime.scheduler` -- static / dynamic loop scheduling
  (the paper benchmarks both OpenMP policies).
* :mod:`repro.runtime.dm` -- the distributed-memory machine with
  Message-Passing and Remote-Memory-Access backends.
"""

from repro.runtime.sm import SMRuntime, OwnershipViolation
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.scheduler import static_chunks, dynamic_chunks, assign

__all__ = [
    "SMRuntime",
    "OwnershipViolation",
    "ThreadLocalFrontiers",
    "static_chunks",
    "dynamic_chunks",
    "assign",
]
