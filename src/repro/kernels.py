"""The kernel table: every kernel the package can launch, named once.

A :class:`Kernel` row gives a kernel's names, its entry points as
``"module:function"`` strings under :mod:`repro`, and how to call
them; ``run``, ``trace``, ``analyze``, the effect matrix and the bench
sweep all derive from :data:`KERNELS`.  Entries resolve when called, so
this module imports no kernel and a wrapper installed on a module
attribute after import is the function that runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: the SM direction axis
DIRECTIONS = ("push", "pull")


@dataclass(frozen=True)
class Kernel:
    """One kernel: its names, its entry points, and how to call them."""

    name: str                   #: CLI/trace name, e.g. ``"sssp"``
    label: str | None           #: Section-4 label, e.g. ``"SSSP-Δ"``
    sm: str                     #: SM entry; takes ``direction=``
    #: ``repro run``'s result line: ``(result, graph, start vertex)``
    summary: Callable[..., str]
    dm: str | None = None       #: DM entry; takes ``variant=``
    batched: str | None = None  #: stream-engine SM entry (repro.streams)
    #: SM variants served by another entry, which takes no direction
    sm_variants: Mapping[str, str] = field(default_factory=dict)
    #: the DM backends in Section 6.3 order, and aliases onto them
    dm_variants: tuple[str, ...] = ()
    dm_aliases: Mapping[str, str] = field(default_factory=dict)
    weighted: bool = False      #: needs edge weights
    start: str | None = None    #: start-vertex keyword: root / source
    iterations: bool = False    #: takes ``iterations=``
    kwargs: Mapping[str, object] = field(default_factory=dict)
    #: the chaos reference: (function in algorithms/reference.py, result
    #: field, allclose atol; None compares exactly)
    reference: tuple[str, str, float | None] | None = None


def _tree(r, g, s) -> str:
    return f"{len(r.edges)} edges, weight {r.total_weight:.1f}"


#: every launchable kernel; the labelled rows in Section-4 order
KERNELS = (
    Kernel("pagerank", "PR", "algorithms.pagerank:pagerank",
           lambda r, g, s: f"top vertex {int(r.ranks.argmax())}",
           dm="algorithms.dm_pagerank:dm_pagerank",
           batched="streams.kernels:pagerank_batched",
           dm_variants=("mp", "rma-push", "rma-pull"),
           dm_aliases={"push": "rma-push", "pull": "rma-pull"},
           iterations=True, reference=("pagerank_reference", "ranks", 1e-9)),
    Kernel("triangles", "TC", "algorithms.triangle:triangle_count",
           lambda r, g, s: f"{r.total} triangles",
           dm="algorithms.dm_triangle:dm_triangle_count",
           dm_variants=("rma-pull", "rma-push", "mp"),
           reference=("triangle_per_vertex_reference", "per_vertex", None)),
    Kernel("bfs", "BFS", "algorithms.bfs:bfs",
           lambda r, g, s: f"reached {int((r.level >= 0).sum())}/{g.n} "
                           f"from {s}",
           dm="algorithms.dm_bfs:dm_bfs",
           batched="streams.kernels:bfs_batched",
           sm_variants={"switching":
                        "strategies.switching:direction_optimizing_bfs"},
           dm_variants=("push", "pull", "switching"),
           start="root", reference=("bfs_reference", "level", None)),
    Kernel("sssp", "SSSP-Δ", "algorithms.sssp_delta:sssp_delta",
           lambda r, g, s: f"{r.epochs} epochs from {s}",
           dm="algorithms.dm_sssp:dm_sssp_delta",
           batched="streams.kernels:sssp_delta_batched",
           dm_variants=("push", "pull"), weighted=True, start="source",
           reference=("sssp_reference", "dist", 1e-8)),
    Kernel("bc", "BC", "algorithms.bc:betweenness_centrality",
           lambda r, g, s: f"top broker {int(r.bc.argmax())} "
                           f"({r.n_sources} sources)",
           kwargs={"sources": 4}),
    Kernel("coloring", "BGC", "algorithms.coloring:boman_coloring",
           lambda r, g, s: f"{r.n_colors} colors in {r.iterations} "
                           "iterations"),
    Kernel("mst", "MST", "algorithms.mst_boruvka:boruvka_mst", _tree,
           weighted=True),
    Kernel("prim", None, "algorithms.mst_prim:prim_mst", _tree,
           weighted=True),
    Kernel("cc", None, "algorithms.connected_components:connected_components",
           lambda r, g, s: f"{r.n_components} components in {r.rounds} "
                           "rounds",
           batched="streams.kernels:cc_batched"),
)

BY_NAME = {k.name: k for k in KERNELS}
BY_LABEL = {k.label: k for k in KERNELS if k.label}
#: the Section-4 labels, the vocabulary of ``repro analyze``
LABELS = tuple(BY_LABEL)

#: every variant some row accepts; push-pa is the partition-aware
#: push (Section 5) that PR's and TC's SM entries take as a direction
VARIANTS = tuple(dict.fromkeys(
    DIRECTIONS + ("push-pa",)
    + tuple(v for k in KERNELS for v in (*k.sm_variants, *k.dm_variants))))

#: EFFECTS.json name -> entry of every kernel the effect pass analyzes:
#: each row's SM and DM entry under its function name, then the four
#: effect-only entries
EFFECT_ENTRIES = {e.rpartition(":")[2]: e
                  for k in KERNELS for e in (k.sm, k.dm) if e} | {
    "bc_weighted": "algorithms.bc_weighted:betweenness_centrality_weighted",
    "bc_approx": "algorithms.bc_approx:approx_bc_vertex",
    "frontier_exploit_coloring":
        "strategies.frontier_exploit:frontier_exploit_coloring",
    "conflict_removal_coloring":
        "strategies.conflict_removal:conflict_removal_coloring",
}


def launch(k: Kernel, variant: str, g, rt, iterations: int, *,
           dm: bool = False, batched: bool = False, start: int = 0,
           **kwargs):
    """Run ``k``'s entry for ``variant`` (with ``dm``: a DM backend or
    alias) on ``rt``; returns ``(resolved variant, result)``.
    ``kwargs`` override the row's fixed keyword arguments."""
    call = dict(k.kwargs, **kwargs)
    if k.start:
        call[k.start] = start
    if k.iterations:
        call["iterations"] = iterations
    if dm:
        if k.dm is None:
            raise ValueError(f"{k.name} has no DM kernel; drop --dm")
        variant = k.dm_aliases.get(variant, variant)
        entry, call["variant"] = k.dm, variant
    elif batched:
        if k.batched is None or variant not in DIRECTIONS:
            ported = ", ".join(r.name for r in KERNELS if r.batched)
            raise ValueError(f"{k.name}/{variant} has no batched kernel; "
                             f"the batched engine covers {ported} push/pull")
        entry, call["direction"] = k.batched, variant
    elif variant in k.sm_variants:
        entry = k.sm_variants[variant]
    else:
        entry, call["direction"] = k.sm, variant
    module, _, fn = entry.partition(":")
    kernel = getattr(importlib.import_module(f"repro.{module}"), fn)
    return variant, kernel(g, rt, **call)
