"""StreamMemory: replays batched op streams into a memory model.

The batched kernels build :class:`~repro.streams.ops.StreamOp` lists
and hand them to :meth:`StreamMemory.replay` instead of making one
:class:`~repro.machine.memory.MemoryModel` call per element.  Three
consumption paths, chosen by the *exact* type of the wrapped model:

* :class:`~repro.machine.memory.CountingMemory` -- event counters are
  tallied from per-op totals and the analytic miss model runs through
  the vectorized :meth:`~repro.machine.memory.CountingMemory.touch_batch`.
  Exact because the fixed-point accumulators are grouping-invariant.
* :class:`~repro.machine.memory.CacheSimMemory` -- per-op address
  arrays are merged into one ordered batch (interleaved across ops per
  segment when the interpreted loop interleaved them) and fed to the
  simulator in a single call.  Exact because the simulator only
  collapses consecutive duplicate lines, so merging call boundaries
  cannot change which lines miss.
* anything else (:class:`~repro.machine.memory.MemoryProxy` wrappers
  such as the race detectors, the fault proxy and the footprint
  recorder; test oracles) -- the stream is lowered back to
  element-at-a-time verb calls in replay order, so dynamic analyses
  see the same call sequence the interpreter makes.

``StreamMemory`` is *not* installed on the runtime: kernels construct
it over ``rt.mem`` and keep issuing scalar verbs (``branch_cond``,
``flop``, single pre-batched calls) directly, so runtime thread
routing, tracer deltas, and wrapped-verb instrumentation keep working
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.machine.memory import CacheSimMemory, CountingMemory, MemoryModel
from repro.streams.ops import StreamOp


class StreamMemory:
    """Batch replayer over a wrapped :class:`MemoryModel` (see module doc)."""

    def __init__(self, base: MemoryModel) -> None:
        self.base = base

    # -- replay -----------------------------------------------------------------
    def replay(self, ops: list[StreamOp], interleave: bool = False) -> None:
        """Consume a stream of ops issued by one kernel phase.

        ``interleave=True`` declares that the interpreted formulation
        walks the ops' segments in lockstep (segment 0 of every op,
        then segment 1, ...), as a per-vertex loop touching several
        arrays does; the cache-simulator path preserves that address
        order and the oracle path replays it call for call.  An op's
        ``groups`` keys replace the segment index as the lockstep key,
        so one op can make several calls in one loop slot.
        """
        ops = [op for op in ops if op is not None]
        if not ops:
            return
        base = self.base
        bt = type(base)
        if bt is CountingMemory:
            for op in ops:
                self._tally(op)
                if op.mode != "cached":
                    base.touch_batch(op.handle, mode=op.mode, counts=op.counts,
                                     idx=op.idx, seg=op.seg)
        elif bt is CacheSimMemory:
            for op in ops:
                self._tally(op)
            base.access_batch(self._merged_addresses(ops, interleave))
        else:
            self._replay_elementwise(ops, interleave)

    # -- fast-path pieces ---------------------------------------------------------
    def _tally(self, op: StreamOp) -> None:
        """Event counters of one op: its own verb over the op's total,
        at ``mode="cached"``, which counts every event but leaves the
        cache model to the caller."""
        kwargs = {}
        if op.verb in ("faa", "cas"):
            kwargs["batched"] = op.batched
        if op.verb == "cas" and op.successes is not None:
            kwargs["successes"] = int(op.successes.sum())
        getattr(self.base, op.verb)(op.handle, count=op.total, mode="cached",
                                    **kwargs)

    @staticmethod
    def _merged_addresses(ops: list[StreamOp], interleave: bool) -> np.ndarray:
        parts = []
        for op in ops:
            a = op.addresses()
            if a.size:
                parts.append((a, op))
        if not parts:
            return np.empty(0, dtype=np.int64)
        if not interleave or len(parts) == 1:
            return np.concatenate([a for a, _ in parts])
        addr = np.concatenate([a for a, _ in parts])
        seg_ids = np.concatenate([op.address_seg_ids() for _, op in parts])
        op_rank = np.concatenate([
            np.full(a.size, r, dtype=np.int64)
            for r, (a, _) in enumerate(parts)
        ])
        # stable: primary key segment, secondary op issue order; within a
        # (segment, op) group the original element order survives
        order = np.lexsort((op_rank, seg_ids))
        return addr[order]

    # -- oracle path ---------------------------------------------------------------
    def _replay_elementwise(self, ops: list[StreamOp], interleave: bool) -> None:
        """Lower the stream back to per-segment MemoryModel calls."""
        if interleave:
            # stable: key first, then op issue order, then segment order
            sizes = [op.nseg for op in ops]
            keys = np.concatenate([op.segment_groups() for op in ops])
            op_of = np.repeat(np.arange(len(ops)), sizes)
            first = np.cumsum([0] + sizes)
            for i in np.lexsort((op_of, keys)).tolist():
                r = int(op_of[i])
                self._issue(ops[r], i - int(first[r]))
        else:
            for op in ops:
                for k in range(op.nseg):
                    self._issue(op, k)

    def _issue(self, op: StreamOp, k: int) -> None:
        fn = getattr(self.base, op.verb)
        n = int(op.counts[k])
        if op.idx is None:
            if n == 0:
                return
            start = None if op.starts is None else int(op.starts[k])
            fn(op.handle, count=n, start=start, mode=op.mode)
            return
        lo, hi = int(op.seg[k]), int(op.seg[k + 1])
        if hi == lo and n == 0:
            return
        kwargs = {"mode": op.mode}
        if n != hi - lo:
            kwargs["count"] = n
        if op.verb in ("faa", "cas") and op.batched:
            kwargs["batched"] = True
        if op.verb == "cas" and op.successes is not None:
            kwargs["successes"] = int(op.successes[k])
        if op.verb in ("faa", "cas", "lock") and op.covers:
            kwargs["covers"] = [(h, np.asarray(ci)[lo:hi])
                                for h, ci in op.covers]
        fn(op.handle, idx=op.idx[lo:hi], **kwargs)
