"""Stream-emitting (batched) SM kernels over the semiring substrate.

Each kernel here is the batched entry of an interpreted kernel in
:mod:`repro.algorithms`: identical phase structure, identical event
taxonomy, identical results -- but a ported phase evaluates whole
vertex blocks as CSR/CSC semiring products (:mod:`repro.la`) and
reports its memory traffic as :class:`~repro.streams.ops.StreamOp`
batches through :class:`~repro.streams.memory.StreamMemory` instead of
one ``MemoryModel`` call per vertex.  Section 7.1's observation is
what makes this a *substrate* rather than a reformulation: iterating a
CSR row block *is* pulling and iterating a CSC column block *is*
pushing, so the pull phases below are blocked CSR SpMV/SpMSpV
evaluations and the push phases blocked CSC ones, with the
claim/combining scatter (`first_claim`, ``sr.add_at``) standing in for
the atomics.

Only phases the interpreter walks vertex by vertex are ported: BFS's
levels and Δ-Stepping's pull epoch subclass the interpreted state
classes and override just those methods, and connected components
runs the interpreted kernel, whose bodies already issue their verb
calls per thread block.  PageRank keeps a full port.

The differential suite (tests/test_streams_differential.py) certifies
byte-identical counter totals, per-phase trace deltas, and final
states against the interpreted kernels; keep both sides in lockstep
when editing either.

The DM kernels already emit their communication as per-superstep verb
batches (``alltoallv``, staged RMA), so the batched engine treats DM
cells as an (exact) passthrough -- see docs/streams.md.  Their pull
scans (DM BFS ``scan``, Δ-Stepping ``relax_local``) replay each rank's
local traffic through one :class:`StreamMemory` stream per superstep
under both engines; ``relax_local``'s per-neighbour scalar reads share
their vertex's lockstep slot through the op's ``groups`` keys.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFSResult, BFSState
from repro.algorithms.common import (
    PULL, PUSH, GraphArrays, block_bounds, check_direction, first_hits,
    gather_edge_positions, gather_rows,
)
from repro.algorithms.connected_components import CCResult, connected_components
from repro.algorithms.pagerank import PageRankResult
from repro.algorithms.sssp_delta import DeltaStepping, SSSPResult
from repro.graph.csr import CSRGraph
from repro.la.matrix import pull_matrix, push_matrix
from repro.la.semiring import MIN_PLUS, PLUS_TIMES
from repro.la.spmv import first_claim, masked_first_hit, segment_reduce
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.sm import SMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import concat_ranges, rand_op, seq_op


# -- PageRank ------------------------------------------------------------------

def pagerank_batched(g: CSRGraph, rt: SMRuntime, direction: str = PULL,
                     iterations: int = 20, damping: float = 0.85,
                     tol: float | None = None) -> PageRankResult:
    """Batched PageRank: pull = blocked CSR SpMV over PLUS_TIMES, push =
    blocked CSC SpMV with ``add.at`` combining (the CAS stream)."""
    check_direction(direction, (PUSH, PULL))
    mem = rt.mem
    st = StreamMemory(mem)
    ga = GraphArrays(mem, g)
    gin = g.transposed()
    gin_arrays = GraphArrays(mem, gin, prefix="gin") if g.directed else ga
    A_pull = pull_matrix(g, gin)
    A_push = push_matrix(g)
    sr = PLUS_TIMES
    n = g.n
    deg = np.diff(g.offsets).astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    rank = np.full(n, 1.0 / max(n, 1))
    acc = np.zeros(n)
    base = (1.0 - damping) / max(n, 1)

    # registration order mirrors the interpreted kernel so both engines
    # assign identical synthetic addresses (cache-sim equivalence)
    rank_h = mem.register("pr.rank", rank)
    acc_h = mem.register("pr.acc", acc)
    deg_h = mem.register("pr.deg", deg)
    for t in range(rt.P):
        mem.register(f"pr.acc.block{t}", max(rt.part.size(t), 1), 8)

    start_time = rt.time
    start_counters = rt.total_counters()
    iteration_times: list[float] = []
    converged = False
    it = 0

    def pull_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            return
        lo, hi = block_bounds(rt, vs, gin)
        _, nbrs, _vals = A_pull.block(int(vs[0]), int(vs[-1]) + 1)
        st.replay([
            seq_op("read", gin_arrays.off, counts=[len(vs) + 1],
                   starts=[int(vs[0])]),
            seq_op("read", gin_arrays.adj, counts=[hi - lo], starts=[lo]),
            rand_op("read", rank_h, idx=nbrs),
            rand_op("read", deg_h, idx=nbrs),
        ])
        vals = sr.mul(rank[nbrs], inv_deg[nbrs])
        sums = segment_reduce(sr, vals, gin.offsets[vs] - lo,
                              gin.offsets[vs + 1] - lo)
        rt.owned_write_check(vs)
        acc[vs] = sums
        st.replay([seq_op("write", acc_h, counts=[len(vs)],
                          starts=[int(vs[0])])])
        mem.flop(2 * (hi - lo))
        mem.branch_cond((hi - lo) + len(vs))

    def zero_body(t: int, vs: np.ndarray) -> None:
        acc[vs] = 0.0
        mem.write(acc_h, start=vs[0] if len(vs) else 0, count=len(vs))

    def push_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            return
        lo, hi = block_bounds(rt, vs, g)
        _, nbrs, _vals = A_push.block(int(vs[0]), int(vs[-1]) + 1)
        st.replay([
            seq_op("read", ga.off, counts=[len(vs) + 1], starts=[int(vs[0])]),
            seq_op("read", ga.adj, counts=[hi - lo], starts=[lo]),
            seq_op("read", rank_h, counts=[len(vs)], starts=[int(vs[0])]),
            seq_op("read", deg_h, counts=[len(vs)], starts=[int(vs[0])]),
        ])
        contrib = sr.mul(rank[vs], inv_deg[vs]).repeat(
            np.diff(g.offsets[np.r_[vs, vs[-1] + 1]]))
        sr.add_at(acc, nbrs, contrib)
        # float accumulate == CAS loop per update (no float atomics on CPUs)
        st.replay([rand_op("cas", acc_h, idx=nbrs)])
        mem.flop((hi - lo) + len(vs))
        mem.branch_cond((hi - lo) + len(vs))

    deltas = np.zeros(rt.P)

    def finalize_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            deltas[t] = 0.0
            return
        mem.read(acc_h, start=vs[0], count=len(vs))
        new = base + damping * acc[vs]
        if tol is not None:
            deltas[t] = float(np.abs(new - rank[vs]).sum())
            mem.read(rank_h, start=vs[0], count=len(vs))
            mem.flop(2 * len(vs))
        rank[vs] = new
        mem.write(rank_h, start=vs[0], count=len(vs))
        mem.flop(2 * len(vs))

    for it in range(1, iterations + 1):
        t0 = rt.time
        if direction == PULL:
            rt.annotate("pr.pull")
            rt.for_each_thread(pull_body)
        else:
            rt.annotate("pr.zero")
            rt.for_each_thread(zero_body)
            rt.annotate("pr.push")
            rt.for_each_thread(push_body)
        rt.annotate("pr.finalize")
        rt.for_each_thread(finalize_body)
        iteration_times.append(rt.time - t0)
        if tol is not None and deltas.sum() < tol:
            converged = True
            break

    return PageRankResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=it,
        iteration_times=iteration_times,
        ranks=rank,
        converged=converged,
    )


# -- BFS -----------------------------------------------------------------------

class BatchedBFSState(BFSState):
    """BFSState whose level explorations emit op streams.

    Push levels are blocked CSC SpMSpV evaluations over the boolean
    semiring (with :func:`first_claim` as the write-once combining
    rule); pull levels are blocked CSR products with
    :func:`masked_first_hit` modelling the early-exit scan.
    """

    def __init__(self, g: CSRGraph, rt: SMRuntime, root: int) -> None:
        super().__init__(g, rt, root)
        self.streams = StreamMemory(rt.mem)

    def _step_push(self) -> np.ndarray:
        g, rt, mem = self.g, self.rt, self.mem
        st = self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level = self.parent, self.level
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            deg = (g.offsets[vs + 1] - g.offsets[vs]).astype(np.int64)
            pos = gather_edge_positions(g.offsets, vs)
            nbrs = g.adj[pos]
            seg = np.r_[0, np.cumsum(deg)]
            # the first edge-order occurrence of each unvisited target is
            # the CAS that wins when the block's vertices run in turn
            fresh_pos = first_claim(nbrs, parent[nbrs] < 0)
            fresh_w = nbrs[fresh_pos].astype(np.int64)
            fresh_src = np.repeat(vs, deg)[fresh_pos]
            owner = np.searchsorted(seg, fresh_pos, side="right") - 1
            per_v = np.bincount(owner, minlength=len(vs)).astype(np.int64)
            seg_f = np.r_[0, np.cumsum(per_v)]
            st.replay([
                rand_op("read", self.ga.off, idx=vs,
                        seg=np.arange(len(vs) + 1, dtype=np.int64),
                        counts=np.full(len(vs), 2, dtype=np.int64)),
                seq_op("read", self.ga.adj, counts=deg,
                       starts=g.offsets[vs].astype(np.int64)),
                rand_op("read", self.parent_h, idx=nbrs, seg=seg),
                rand_op("cas", self.parent_h, idx=fresh_w, seg=seg_f,
                        batched=True, covers=[(self.level_h, fresh_w)]),
                rand_op("write", self.level_h, idx=fresh_w, seg=seg_f),
            ], interleave=True)
            mem.branch_cond(int(deg.sum()))
            parent[fresh_w] = fresh_src
            level[fresh_w] = nxt_level
            my_f.extend(t, fresh_w)

        rt.parallel_for(self.frontier, body, by_owner=True, barrier=False)
        nxt = np.empty(0, dtype=np.int64)

        def kfilter() -> None:
            nonlocal nxt
            nxt = my_f.merge(mem, handle=self.front_h)
            if len(nxt):
                mem.write(self.front_h, idx=nxt, mode="rand")

        rt.annotate("bfs.kfilter")
        rt.sequential(kfilter, barrier=False)
        rt.barrier()
        return nxt

    def _step_pull(self) -> np.ndarray:
        g, rt, mem = self.gin, self.rt, self.mem
        st = self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level, in_front = self.parent, self.level, self.in_front
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            unvisited = vs[parent[vs] < 0]
            mem.read(self.parent_h, start=int(vs[0]) if len(vs) else 0,
                     count=len(vs))
            mem.branch_cond(len(vs))
            if len(unvisited) == 0:
                return
            starts, nbrs, seg = gather_rows(g, unvisited)
            # early exit: only the prefix up to the first hit is scanned
            scanned, hits, hit_w = first_hits(
                nbrs, seg, masked_first_hit(in_front[nbrs], seg))
            pre = concat_ranges(seg[:-1], scanned)
            hit_vs = unvisited[hits]
            seg_h = np.r_[0, np.cumsum(hits.astype(np.int64))]
            st.replay([
                rand_op("read", self.ga_in.off, idx=unvisited,
                        seg=np.arange(len(unvisited) + 1, dtype=np.int64),
                        counts=np.full(len(unvisited), 2, dtype=np.int64)),
                seq_op("read", self.ga_in.adj, counts=scanned, starts=starts),
                rand_op("read", self.front_h, idx=nbrs[pre],
                        seg=np.r_[0, np.cumsum(scanned)]),
                rand_op("write", self.parent_h, idx=hit_vs, seg=seg_h),
                rand_op("write", self.level_h, idx=hit_vs, seg=seg_h),
            ], interleave=True)
            mem.branch_cond(int(scanned.sum()))
            rt.owned_write_check(hit_vs)
            parent[hit_vs] = hit_w
            level[hit_vs] = nxt_level
            my_f.extend(t, hit_vs)

        rt.for_each_thread(body)
        return my_f.merge(dedup=False)


def bfs_batched(g: CSRGraph, rt: SMRuntime, root: int,
                direction: str = PUSH) -> BFSResult:
    """Single-direction batched BFS from ``root``."""
    check_direction(direction)
    state = BatchedBFSState(g, rt, root)
    while state.frontier_nonempty():
        state.step(direction)
    return state.result(direction)


# -- Δ-Stepping SSSP -----------------------------------------------------------

class BatchedDeltaStepping(DeltaStepping):
    """DeltaStepping whose pull epochs are MIN_PLUS bucket-masked gathers.

    The driver and the push epoch are the interpreted ones: the push
    body already issues its verb calls per thread block, not per vertex.
    The pull epoch is where the interpreter walks unsettled vertices one
    at a time.
    """

    def _epoch_pull(self, b: int) -> int:
        g, rt, mem, ga = self.g, self.rt, self.mem, self.ga
        dist, bidx, delta = self.dist, self.bidx, self.delta
        dist_h, bidx_h, wgt_h = self.dist_h, self.bidx_h, self.wgt_h
        weights = self.weights
        st = StreamMemory(mem)
        sr = MIN_PLUS
        prev_active = np.zeros(g.n, dtype=bool)
        prev_active[bidx == b] = True
        active_h = mem.register("sssp.active", g.n, 1)
        itr = 0
        threshold = b * delta
        # thread -> its block's unsettled rows, keyed by the exact mask they
        # were laid out from: with positive weights a vertex above b*delta
        # stays there all epoch, but a zero-weight edge can settle it on b*delta
        rows: dict[int, tuple] = {}

        def lay_out(v0: int, uns: np.ndarray) -> tuple:
            off = g.offsets[v0:v0 + len(uns) + 1]
            deg = np.diff(off)
            udeg = deg[uns]
            ends = np.cumsum(udeg)
            # heads[r] + i is the adjacency position of nbrs[i] in row r
            heads = off[:-1][uns] - (ends - udeg)
            # int64, the index dtype of StreamOp and of NumPy gathers: no
            # body converts it again
            nbrs = g.adj[off[0]:off[-1]][np.repeat(uns, deg)].astype(np.int64)
            return uns, v0 + np.flatnonzero(uns), nbrs, ends, heads

        while True:
            itr += 1
            newly_active: list[np.ndarray] = []
            first = itr == 1

            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                v0 = int(vs[0])
                mem.read(dist_h, start=v0, count=len(vs))
                mem.branch_cond(len(vs))
                uns = dist[v0:v0 + len(vs)] > threshold
                if t not in rows or not np.array_equal(rows[t][0], uns):
                    rows[t] = lay_out(v0, uns)
                _, unsettled, nbrs, ends, heads = rows[t]
                if len(nbrs) == 0:
                    return
                st.replay([
                    rand_op("read", ga.off, idx=unsettled,
                            counts=[len(unsettled) + 1]),
                    seq_op("read", ga.adj, counts=[len(nbrs)]),
                    rand_op("read", bidx_h, idx=nbrs),
                ])
                mem.branch_cond(len(nbrs))
                # bucket membership is re-derived from bidx in every body: a
                # crash rerun restores bidx, not arrays private to this kernel
                cpos = np.flatnonzero(np.take(bidx == b, nbrs))
                if not first:
                    in_bucket = nbrs[cpos]
                    st.replay([rand_op("read", active_h, idx=in_bucket)])
                    cpos = cpos[prev_active[in_bucket]]
                if len(cpos) == 0:
                    return
                tgt = nbrs[cpos]
                st.replay([
                    rand_op("lock", dist_h, idx=tgt),
                    seq_op("read", wgt_h, counts=[len(cpos)]),
                ])
                row = np.searchsorted(ends, cpos, side="right")
                cand = sr.mul(dist[tgt], weights[heads[row] + cpos])
                mem.flop(len(cpos))
                # rows run in vertex order, so candidates come grouped by owner
                first_of = np.r_[0, np.flatnonzero(np.diff(row)) + 1]
                uniq = unsettled[row[first_of]]
                mem.branch_cond(len(cpos))
                # per-owned-vertex tropical reduction (local combining)
                best = sr.add.reduceat(cand, first_of)
                improved = best < dist[uniq]
                imp = uniq[improved]
                if len(imp) == 0:
                    return
                rt.owned_write_check(imp)
                bestv = best[improved]
                dist[imp] = bestv
                new_b = (bestv // delta).astype(np.int64)
                bidx[imp] = new_b
                ones = np.arange(len(imp) + 1, dtype=np.int64)
                st.replay([
                    rand_op("write", dist_h, idx=imp, seg=ones),
                    rand_op("write", bidx_h, idx=imp, seg=ones),
                ], interleave=True)
                back = imp[new_b == b]
                if len(back):
                    newly_active.append(back)

            rt.for_each_thread(body)
            if not newly_active:
                break
            prev_active[:] = False
            prev_active[np.concatenate(newly_active)] = True
        return itr


def sssp_delta_batched(g: CSRGraph, rt: SMRuntime, source: int,
                       delta: float | None = None, direction: str = PUSH,
                       max_epochs: int | None = None) -> SSSPResult:
    """Batched Δ-Stepping: the interpreted driver and push epoch, pull
    epochs over the tropical (MIN_PLUS) semiring."""
    check_direction(direction)
    state = BatchedDeltaStepping(g, rt, source, delta)
    return state.run(direction, max_epochs)


# -- Connected components ------------------------------------------------------

def cc_batched(g: CSRGraph, rt: SMRuntime, direction: str = PUSH,
               pointer_jumping: bool = False) -> CCResult:
    """Label propagation under the batched engine: the interpreted kernel,
    whose push and pull bodies already issue their verb calls per thread
    block.  A distinct entry, because the kernel table and perfbench's
    traced pass name it in this module."""
    return connected_components(g, rt, direction, pointer_jumping)
