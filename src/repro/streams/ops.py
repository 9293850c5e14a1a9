"""Batched stream ops: the address/op vocabulary of the batched engine.

A :class:`StreamOp` describes what an interpreted kernel would have
reported through *many* :class:`~repro.machine.memory.MemoryModel`
calls as one record: a verb (``read``/``write``/``faa``/``cas``/
``lock``), a target array handle, an access mode, and a *segmented*
payload.  Segment ``k`` of an op corresponds to the ``k``-th
per-element call of the interpreted loop (one frontier vertex, one
claimed block, ...), so a replayer can reconstruct the exact per-call
event sequence -- or, knowing that the accounting is
grouping-invariant, consume the whole op vectorized.

Layout of one op:

* ``idx``   -- concatenated item indices of all segments (``rand`` ops);
* ``seg``   -- int64 segment offsets (``len == nseg + 1``) tiling ``idx``:
  ``seg[0] == 0`` and ``seg[-1] == len(idx)``;
* ``starts``-- per-segment range starts (``seq`` ops; ``None`` means the
  position-free form, each segment counted from 0);
* ``counts``-- per-segment item counts.  Defaults to the segment sizes;
  an override expresses the interpreter's ``count=`` parameter (e.g.
  BFS's 2-item offset read at one scalar index).  ``starts`` holds
  one entry per count, a ``rand`` op's ``seg`` one more;
* ``successes`` -- per-segment CAS success counts (``None`` = all);
* ``covers``    -- ``(handle, idx_array)`` pairs aligned with ``idx``
  (same segmentation) declaring lock/CAS-protected sibling addresses;
* ``groups``    -- non-decreasing per-segment interleave keys (``None``
  = the segment index).  Under ``interleave=True`` a replay walks the
  ops key by key; several segments of one op that share a key are one
  loop slot's scalar calls (a vertex's per-neighbour reads), issued in
  segment order inside that slot.

A segmentation that breaks these rules raises ``ValueError`` naming
the verb and the array, so no replay path has to guess at it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.memory import ArrayHandle, handle_name

VERBS = ("read", "write", "faa", "cas", "lock")


def concat_ranges(starts, counts) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the Python loop (the multi-range generalization of
    :func:`repro.algorithms.common.gather_edge_positions`)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    heads = np.repeat(starts - np.r_[0, np.cumsum(counts)[:-1]], counts)
    return heads + np.arange(total, dtype=np.int64)


@dataclass
class StreamOp:
    """One batched memory operation (see module docstring)."""

    verb: str
    handle: ArrayHandle
    mode: str = "rand"
    idx: np.ndarray | None = None
    seg: np.ndarray | None = None
    starts: np.ndarray | None = None
    counts: np.ndarray | None = None
    batched: bool = False
    successes: np.ndarray | None = None
    covers: list | None = None
    groups: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.verb not in VERBS:
            raise ValueError(f"unknown stream verb {self.verb!r}")
        if self.idx is not None:
            self.idx = np.asarray(self.idx, dtype=np.int64)
            if self.seg is None:
                self.seg = np.array([0, self.idx.size], dtype=np.int64)
            else:
                self.seg = np.asarray(self.seg, dtype=np.int64)
            # seg must tile idx: every replay path reads it that way
            if not self.seg.size or self.seg[0] != 0:
                self._reject(f"seg must start at 0, got {self.seg[:1]}")
            if self.seg[-1] != self.idx.size:
                self._reject(f"seg ends at {self.seg[-1]}, idx holds "
                             f"{self.idx.size} items")
            if self.counts is None:
                self.counts = self.seg[1:] - self.seg[:-1]
            elif len(self.counts) != len(self.seg) - 1:
                self._reject(f"{len(self.counts)} counts for "
                             f"{len(self.seg) - 1} segments")
        elif self.counts is None:
            raise ValueError("a stream op needs idx (rand) or counts (seq)")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.starts is not None:
            self.starts = np.asarray(self.starts, dtype=np.int64)
            if len(self.starts) != len(self.counts):
                self._reject(f"{len(self.starts)} starts for "
                             f"{len(self.counts)} counts")
        if self.successes is not None:
            self.successes = np.asarray(self.successes, dtype=np.int64)
        if self.groups is not None:
            self.groups = np.asarray(self.groups, dtype=np.int64)

    def _reject(self, why: str) -> None:
        raise ValueError(f"malformed {self.verb} stream op on "
                         f"{handle_name(self.handle)!r}: {why}")

    @property
    def nseg(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def addresses(self) -> np.ndarray:
        """Byte addresses in replay order (empty for ``cached`` mode)."""
        if self.mode == "cached":
            return np.empty(0, dtype=np.int64)
        if self.idx is not None:
            return self.handle.addr(self.idx)
        starts = (self.starts if self.starts is not None
                  else np.zeros(self.nseg, dtype=np.int64))
        items = concat_ranges(starts, self.counts)
        return self.handle.base + items * self.handle.itemsize

    def segment_groups(self) -> np.ndarray:
        """Interleave key of each segment (``groups`` or the index)."""
        if self.groups is not None:
            return self.groups
        return np.arange(self.nseg, dtype=np.int64)

    def address_seg_ids(self) -> np.ndarray:
        """Interleave key of each address (for cross-op interleaving)."""
        sizes = (np.diff(self.seg) if self.idx is not None else self.counts)
        return np.repeat(self.segment_groups(), sizes)


def rand_op(verb: str, handle: ArrayHandle, idx, seg=None, counts=None,
            batched: bool = False, successes=None, covers=None,
            mode: str = "rand", groups=None) -> StreamOp:
    """An indexed-access op (one index list per segment)."""
    return StreamOp(verb, handle, mode=mode, idx=idx, seg=seg, counts=counts,
                    batched=batched, successes=successes, covers=covers,
                    groups=groups)


def seq_op(verb: str, handle: ArrayHandle, counts, starts=None,
           mode: str = "seq") -> StreamOp:
    """A streaming-range op (one contiguous range per segment)."""
    return StreamOp(verb, handle, mode=mode, counts=counts, starts=starts)
