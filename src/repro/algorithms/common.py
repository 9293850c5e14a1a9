"""Shared plumbing for the instrumented algorithm implementations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.machine.counters import PerfCounters
from repro.machine.memory import ArrayHandle, MemoryModel
from repro.runtime.sm import SMRuntime

PUSH = "push"
PULL = "pull"


def check_direction(direction: str, allowed: tuple[str, ...] = (PUSH, PULL)) -> str:
    if direction not in allowed:
        raise ValueError(f"direction must be one of {allowed}, got {direction!r}")
    return direction


@dataclass
class AlgoResult:
    """Base result: simulated-time and event accounting of one run."""

    direction: str
    time: float                       #: total simulated time (mtu)
    counters: PerfCounters            #: summed over threads
    iterations: int = 0
    iteration_times: list = field(default_factory=list)

    def events(self) -> dict:
        return self.counters.to_dict()


class GraphArrays:
    """Registered handles for a graph's CSR arrays (shared by all threads)."""

    def __init__(self, mem: MemoryModel, g: CSRGraph, prefix: str = "g") -> None:
        self.off: ArrayHandle = mem.register(f"{prefix}.offsets", g.offsets)
        self.adj: ArrayHandle = mem.register(f"{prefix}.adj", g.adj)
        self.wgt: ArrayHandle | None = (
            mem.register(f"{prefix}.weights", g.weights)
            if g.weights is not None else None
        )


def segment_sums(vals: np.ndarray, starts: np.ndarray, ends: np.ndarray
                 ) -> np.ndarray:
    """Per-segment sums of ``vals`` over contiguous [start, end) segments.

    Segments must tile ``vals`` in order (CSR row slices of a contiguous
    vertex block).  Empty segments sum to zero -- this wraps
    ``np.add.reduceat``, which would otherwise return the element *at*
    an empty segment's start.
    """
    k = len(starts)
    out = np.zeros(k, dtype=vals.dtype if vals.dtype.kind == "f" else np.float64)
    nonempty = ends > starts
    if vals.size and nonempty.any():
        out[nonempty] = np.add.reduceat(vals, starts[nonempty])
    return out


def block_bounds(rt: SMRuntime, vs: np.ndarray, g: CSRGraph
                 ) -> tuple[int, int]:
    """CSR slice [lo, hi) covering a *contiguous* vertex block ``vs``."""
    if len(vs) == 0:
        return 0, 0
    return int(g.offsets[vs[0]]), int(g.offsets[vs[-1] + 1])


def gather_edge_positions(offsets: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Adjacency-array positions of all edges of an arbitrary vertex set.

    Vectorized equivalent of ``concatenate([arange(off[v], off[v+1])
    for v in vs])`` -- the gather every sparse-frontier loop needs.
    """
    vs = np.asarray(vs, dtype=np.int64)
    if len(vs) == 0:
        return np.empty(0, dtype=np.int64)
    starts = offsets[vs]
    counts = offsets[vs + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # each row's start minus where it lands in the output
    heads = np.repeat(starts - (ends - counts), counts)
    return heads + np.arange(total, dtype=np.int64)


def row_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, cumsum(counts)]`` as int64: the offsets of rows of
    ``counts`` items laid end to end (``len == len(counts) + 1``)."""
    seg = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=seg[1:])
    return seg


def gather_rows(g: CSRGraph, vs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``vs`` of ``g`` laid end to end: ``(starts, nbrs, seg)`` --
    each row's first adjacency position, the rows' neighbours, and the
    row offsets into ``nbrs`` (``len(seg) == len(vs) + 1``)."""
    starts = g.offsets[vs].astype(np.int64)
    deg = g.offsets[vs + 1].astype(np.int64) - starts
    nbrs = g.adj[gather_edge_positions(g.offsets, vs)]
    return starts, nbrs, row_offsets(deg)


def first_hits(nbrs: np.ndarray, seg: np.ndarray, hit_rel: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome of the early-exit scan of the rows ``seg`` tiles over
    ``nbrs``, given each row's first-hit offset (-1 when none, as
    :func:`repro.la.spmv.masked_first_hit` returns it): ``(scanned,
    hits, hit_w)`` -- how many neighbours each row reads, up to and
    including its hit; which rows hit; and the neighbour each hitting
    row stopped at."""
    hits = hit_rel >= 0
    scanned = np.where(hits, hit_rel + 1, np.diff(seg))
    hit_w = nbrs[seg[:-1][hits] + hit_rel[hits]].astype(np.int64)
    return scanned, hits, hit_w
