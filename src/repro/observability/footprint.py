"""Dynamic write-footprint recording for static/dynamic reconciliation.

The effect-inference pass (:mod:`repro.analysis.effects`) claims, per
kernel, the set of registered arrays the kernel may write.  This module
checks that claim against reality, in the spirit of
``Tracer.reconcile``: a :class:`FootprintRecorder` observes the
runtime's declared store verbs (``mem.write`` / ``cas`` / ``faa`` /
``lock`` through a memory proxy, plus the DM data-carrying RMA verbs
``rt.put`` / ``rt.accumulate``) and collects every array name actually
written during a traced run.  The static write set must be a
**superset** of the dynamic one -- static analysis may over-approximate
(an IfExp handle resolves to both arms) but may never miss a write.

Installed through ``run_traced(..., attach=recorder.install)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels import BY_NAME, DIRECTIONS, KERNELS
from repro.machine.memory import MemoryProxy, handle_name


class _FootprintMemory(MemoryProxy):
    """Adds the handle of every store verb, and of its ``covers=``
    companions, to ``written``; forwards everything to ``inner``."""

    def __init__(self, inner, written: set[str]) -> None:
        super().__init__(inner)
        self.written = written

    def _stored(self, handle, covers=None) -> None:
        self.written.add(handle_name(handle))
        self.written.update(handle_name(h) for h, _ in covers or ())

    def write(self, handle, *args, **kwargs) -> None:
        self._stored(handle)
        self.inner.write(handle, *args, **kwargs)

    def faa(self, handle, *args, covers=None, **kwargs) -> None:
        self._stored(handle, covers)
        self.inner.faa(handle, *args, covers=covers, **kwargs)

    def cas(self, handle, *args, covers=None, **kwargs) -> None:
        self._stored(handle, covers)
        self.inner.cas(handle, *args, covers=covers, **kwargs)

    def lock(self, handle, *args, covers=None, **kwargs) -> None:
        self._stored(handle, covers)
        self.inner.lock(handle, *args, covers=covers, **kwargs)


class FootprintRecorder:
    """Collects the names of arrays written through declared verbs."""

    def __init__(self) -> None:
        self.written: set[str] = set()
        self.windows: set[str] = set()

    def install(self, rt) -> None:
        """Wrap ``rt.mem`` in a recording proxy (which also puts the
        batched engine on its element-wise lowering), and the DM
        runtime's data-carrying RMA verbs in place (instance attributes
        shadow the bound methods; the originals are closed over)."""
        rt.mem = _FootprintMemory(rt.mem, self.written)
        recorder = self

        for verb in ("put", "accumulate"):
            orig = getattr(rt, verb, None)
            if orig is None:
                continue

            def wrapped_rma(owner, vals, *args, _orig=orig, **kwargs):
                win = kwargs.get("window")
                if win is not None:
                    recorder.windows.add(handle_name(win))
                return _orig(owner, vals, *args, **kwargs)

            setattr(rt, verb, wrapped_rma)


@dataclass
class ReconcileCell:
    """One (algorithm, variant, runtime) cell of the reconciliation."""

    algorithm: str
    variant: str
    dm: bool
    kernel: str
    traced: list[str] = field(default_factory=list)
    static: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)   # traced but not claimed

    @property
    def ok(self) -> bool:
        return not self.missing

    def to_json(self) -> dict:
        return {"algorithm": self.algorithm, "variant": self.variant,
                "runtime": "dm" if self.dm else "sm", "kernel": self.kernel,
                "traced": self.traced, "missing": self.missing,
                "ok": self.ok}


#: the reconciliation matrix, (kernel name, variant, dm) per traced
#: run: every row with a batched entry, so each cell also reconciles
#: under the stream engine, x its runtimes x push/pull
RECONCILE_CELLS = tuple((k.name, variant, dm) for dm in (False, True)
                        for k in KERNELS if k.batched and (k.dm or not dm)
                        for variant in DIRECTIONS)


def reconcile_effects(report=None, n: int = 96, P: int = 4,
                      iterations: int = 3, progress=None,
                      engine: str = "interpreted") -> list[ReconcileCell]:
    """Run the :data:`RECONCILE_CELLS` trace matrix with a footprint
    recorder and check each kernel's static write set covers what was
    dynamically written.

    Runs with ``cache_scale=0``: flat counting memory keeps the run
    cheap.  ``engine="batched"`` reconciles the stream kernels instead:
    each batched kernel must stay inside the write set its interpreted
    twin declares (the recorder is a memory proxy, so their streams
    reach it lowered to element-wise verb calls).
    """
    import fnmatch

    from repro.analysis.effects import analyze_effects
    from repro.observability.driver import run_traced

    if report is None:
        report = analyze_effects()
    cells: list[ReconcileCell] = []
    for algorithm, variant, dm in RECONCILE_CELLS:
        if progress is not None:
            progress(algorithm, variant, dm)
        rec = FootprintRecorder()
        run_traced(algorithm, variant=variant, dm=dm, n=n, P=P,
                   iterations=iterations, cache_scale=0,
                   attach=rec.install, engine=engine)
        row = BY_NAME[algorithm]
        kernel = (row.dm if dm else row.sm).rpartition(":")[2]
        keff = report.kernels[kernel]
        claimed = set(keff.write_set) | set(keff.windows)
        traced = rec.written | rec.windows
        missing = sorted(
            name for name in traced
            if not any(fnmatch.fnmatchcase(name, pat)
                       for pat in claimed))
        cells.append(ReconcileCell(
            algorithm=algorithm, variant=variant, dm=dm, kernel=kernel,
            traced=sorted(traced), static=sorted(claimed),
            missing=missing))
    return cells
