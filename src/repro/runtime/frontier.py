"""Frontier management: per-thread fragments and their merge.

Algorithm 3 of the paper: "The frontier F is represented as a single
array while my_F is private for each process and contains vertices
explored at each iteration.  All my_Fs are repeatedly merged into the
next F."  In the push direction the merge is the paper's
``d-hat * f_i``-filter (a prefix-sum compaction); in the pull direction
no filter is needed because every vertex checks its own membership.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import unique_ids
from repro.machine.memory import MemoryModel


class ThreadLocalFrontiers:
    """The my_F fragments of one BFS/SSSP iteration."""

    def __init__(self, P: int) -> None:
        self.P = P
        self.frags: list[list[int]] = [[] for _ in range(P)]

    def add(self, t: int, v: int) -> None:
        self.frags[t].append(int(v))

    def extend(self, t: int, vs) -> None:
        self.frags[t].extend(np.asarray(vs).ravel().tolist())

    def sizes(self) -> list[int]:
        return [len(f) for f in self.frags]

    def merge(self, mem: MemoryModel | None = None, dedup: bool = True,
              handle=None) -> np.ndarray:
        """Concatenate my_F fragments into the next global frontier F.

        When a memory model is given, accounts the prefix-sum merge:
        one read + one write per element plus an unconditional branch
        per fragment (the paper's k-filter costs O(min(k, n)) work).
        """
        total = sum(len(f) for f in self.frags)
        if mem is not None and handle is not None and total:
            mem.read(handle, count=total, mode="seq")
            mem.write(handle, count=total, mode="seq")
            mem.branch_uncond(self.P)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        merged = np.concatenate([
            np.asarray(f, dtype=np.int64) for f in self.frags if f
        ])
        if dedup:
            merged = unique_ids(merged)
        else:
            merged = np.sort(merged)
        self.frags = [[] for _ in range(self.P)]
        return merged

    def clear(self) -> None:
        self.frags = [[] for _ in range(self.P)]
