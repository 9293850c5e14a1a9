"""SpMV and SpMSpV over semirings, with operation counting.

The counts demonstrate Section 7.1's core point: the CSR (pull) product
must touch every row even when the input vector is sparse, while the
CSC (push) product "facilitates exploiting the sparsity of the vector
by simply ignoring columns of A that match up to zeros" -- and,
conversely, CSC needs combining (the atomics of the push world) while
CSR rows are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import run_starts
from repro.la.matrix import CSCMatrix, CSRMatrix
from repro.la.semiring import Semiring


@dataclass
class OpCount:
    """Work performed by one product."""

    multiplies: int = 0       #: semiring multiplications
    rows_touched: int = 0     #: rows (CSR) or columns (CSC) visited
    combines: int = 0         #: scatter-combining writes (CSC only)


def spmv_csr(A: CSRMatrix, x: np.ndarray, sr: Semiring
             ) -> tuple[np.ndarray, OpCount]:
    """Dense-vector product in the CSR layout (pulling)."""
    y = np.full(A.n, sr.zero)
    ops = OpCount()
    for i in range(A.n):
        cols, vals = A.row(i)
        if len(cols) == 0:
            continue
        y[i] = sr.add_reduce(sr.mul(vals, x[cols]))
        ops.multiplies += len(cols)
        ops.rows_touched += 1
    return y, ops


def spmv_csc(A: CSCMatrix, x: np.ndarray, sr: Semiring
             ) -> tuple[np.ndarray, OpCount]:
    """Dense-vector product in the CSC layout (pushing)."""
    y = np.full(A.n, sr.zero)
    ops = OpCount()
    for j in range(A.n):
        rows, vals = A.col(j)
        if len(rows) == 0:
            continue
        sr.add_at(y, rows, sr.mul(vals, x[j]))
        ops.multiplies += len(rows)
        ops.combines += len(rows)
        ops.rows_touched += 1
    return y, ops


def spmspv_csr(A: CSRMatrix, x_idx: np.ndarray, x_val: np.ndarray,
               sr: Semiring) -> tuple[np.ndarray, np.ndarray, OpCount]:
    """Sparse-vector product in CSR (pulling): every row must be scanned.

    Returns (y_idx, y_val, ops).  The input sparsity cannot be
    exploited -- each row's intersection with the nonzero set still
    requires visiting the row, which is why frontier-style algorithms
    prefer CSC/push when the frontier is small.
    """
    x_dense = np.full(A.n, sr.zero)
    x_dense[x_idx] = x_val
    nonzero = np.zeros(A.n, dtype=bool)
    nonzero[x_idx] = True
    ops = OpCount()
    out_idx, out_val = [], []
    for i in range(A.n):
        cols, vals = A.row(i)
        ops.rows_touched += 1      # <- unavoidable full-row sweep
        if len(cols) == 0:
            continue
        hit = nonzero[cols]
        k = int(hit.sum())
        if k == 0:
            continue
        ops.multiplies += k
        out_idx.append(i)
        out_val.append(sr.add_reduce(sr.mul(vals[hit], x_dense[cols[hit]])))
    return (np.asarray(out_idx, dtype=np.int64), np.asarray(out_val), ops)


# -- batched-kernel primitives ------------------------------------------------
# The stream-emitting kernels (repro.streams.kernels) evaluate whole
# CSR/CSC blocks as one semiring product instead of looping rows in
# Python.  These helpers are the vectorized row/column reductions they
# are built from; each documents the per-element loop it replaces.

def segment_reduce(sr: Semiring, vals: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Per-row semiring add-reduction of a CSR block's products.

    Equivalent to ``[sr.add_reduce(vals[s:e]) for s, e in zip(starts,
    ends)]`` for contiguous segments tiling ``vals``; empty rows yield
    ``sr.zero``.  Wraps ``sr.add.reduceat``, which would otherwise
    return the element *at* an empty segment's start.
    """
    k = len(starts)
    dtype = vals.dtype if vals.dtype.kind == "f" else np.float64
    out = np.full(k, sr.zero, dtype=dtype)
    nonempty = np.asarray(ends) > np.asarray(starts)
    if vals.size and nonempty.any():
        out[nonempty] = sr.add.reduceat(vals, np.asarray(starts)[nonempty])
    return out


def masked_first_hit(flags: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per-segment index of the first True flag, -1 when none.

    The SpMSpV-with-early-exit primitive of pull-BFS: row i's product
    over the boolean semiring is nonzero iff some masked entry hits,
    and the *short-circuit* evaluation stops at the first hit -- this
    returns where each row's scan would stop.  ``seg`` is the segment
    offset array (``len(seg) == nrows + 1``) tiling ``flags``.  Each
    row's first hit is the first True position at or after its start,
    found by a binary search over the True positions; it is the row's
    when it lies before the row's end.
    """
    seg = np.asarray(seg, dtype=np.int64)
    hits = np.flatnonzero(flags)
    if hits.size == 0:
        return np.full(len(seg) - 1, -1, dtype=np.int64)
    starts = seg[:-1]
    first = hits[np.minimum(np.searchsorted(hits, starts), hits.size - 1)]
    # a start past the last hit finds that hit, which lies before it
    found = (first >= starts) & (first < seg[1:])
    return np.where(found, first - starts, -1)


def first_claim(targets: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Positions winning a write-once combining scatter (CSC push claim).

    Given the concatenated edge targets of a frontier block (in issue
    order) and an eligibility mask, returns the sorted positions of the
    *first* eligible occurrence of each distinct target -- exactly the
    CAS claims that succeed when the block's vertices run one after
    another, since a claimed target is ineligible for every later edge.
    """
    targets = np.asarray(targets)
    pos = np.flatnonzero(eligible)
    if pos.size == 0:
        return pos
    claimed = targets[pos]
    # a stable sort keeps each target's first occurrence at its run start
    order = np.argsort(claimed, kind="stable")
    return np.sort(pos[order[run_starts(claimed[order])]])


def spmspv_csc(A: CSCMatrix, x_idx: np.ndarray, x_val: np.ndarray,
               sr: Semiring) -> tuple[np.ndarray, np.ndarray, OpCount]:
    """Sparse-vector product in CSC (pushing): zero columns are skipped."""
    y = np.full(A.n, sr.zero)
    touched = np.zeros(A.n, dtype=bool)
    ops = OpCount()
    for j, xv in zip(np.asarray(x_idx), np.asarray(x_val)):
        rows, vals = A.col(int(j))
        ops.rows_touched += 1      # <- only the nonzero columns
        if len(rows) == 0:
            continue
        sr.add_at(y, rows, sr.mul(vals, xv))
        touched[rows] = True
        ops.multiplies += len(rows)
        ops.combines += len(rows)
    out_idx = np.flatnonzero(touched)
    return out_idx, y[out_idx], ops
