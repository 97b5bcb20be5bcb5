"""Span tracing for the benchmark's traced run, installed from outside.

`Tracer.install` replaces module-level names where the program looks them
up (for example `planesphere.mie.log_bessel_i_half`, which `mie` calls) and
class attributes (`ExactAmplitudes.__call__`, `AngularRecurrence.advance`)
with wrappers that record a span per call.  Nothing in `planesphere` is
edited; `uninstall` puts the originals back.

A span records its name, start, end, parent span and the id of the solve
it belongs to, plus optional counters.  Spans stay in memory until the run
writes them out.  Pool workers inherit the wrappers by fork; each worker
result is pickled together with the spans the worker recorded, and
unpickling it in the benchmark process appends those spans to the active
tracer, so they reach the same trace.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# The tracer receiving spans shipped back from pool workers.  Unpickling
# calls `_receive`, which can only reach the tracer through the module.
_ACTIVE: "Tracer | None" = None

NEGLIGIBLE_BLOCK = 1e-13   # block share of its xi total counted as negligible


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    solve: int | None
    data: dict | None = None

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.start, self.end, self.solve, self.data]


def _receive(result, spans):
    """Unpickle hook of a worker result: file its spans, return the result."""
    _ACTIVE.spans.extend(spans)
    return result


class _Shipment:
    """A worker result travelling with the spans recorded while computing it."""

    def __init__(self, result, spans):
        self.result = result
        self.spans = spans

    def __reduce__(self):
        return _receive, (self.result, self.spans)


class Tracer:
    """Collects spans; `install` wraps the program's layers to feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._solve: int | None = None
        self._n = 0
        self._pid = self._home_pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, data: dict | None = None) -> Span:
        self._n += 1
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._pid * 1_000_000_000 + self._n, parent, name,
                    time.perf_counter(), 0.0, self._solve, data)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def solve(self, name: str):
        """The root span of one solve, under a fresh solve id."""
        self._solve = (self._solve or 0) + 1
        span = self.open("bench.solve", {"op": name})
        try:
            yield span
        finally:
            self.close(span)

    def _after_fork(self) -> None:
        # a pool worker keeps the inherited open spans as parents but ships
        # only the spans it records itself
        self._pid = os.getpid()
        self.spans = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.data = count(args, out)
            return out

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer of planesphere."""
        global _ACTIVE
        from concurrent.futures import ProcessPoolExecutor

        from planesphere import mie, oracles, solver, special

        _ACTIVE = self
        os.register_at_fork(after_in_child=self._after_fork)
        w = self._wrap
        w(mie, "log_bessel_i_half", "special.bessel")
        w(mie, "log_bessel_k_half", "special.bessel")
        w(special.AngularRecurrence, "advance", "special.recurrence",
          lambda a, out: {"elems": int(a[0].z.size)})
        w(mie.ExactAmplitudes, "__call__", "mie.amplitudes",
          lambda a, out: {"z": int(out[0].size)})
        w(mie, "_mie_ab_log_arrays", "mie.coeff")
        w(solver, "chi_components", "reflection.chi",
          lambda a, out: {"points": int(out[0].size)})
        w(solver, "_fourier_kernels", "solver.kernel",
          lambda a, out: {"kept": int(out[0].size),
                          "total": a[3].n_radial * (a[3].n_radial + 1) // 2})
        w(solver, "_assemble_block", "solver.assemble")
        w(solver, "log_det_contribution", "solver.logdet",
          lambda a, out: {"dim": a[0].entries.shape[0], "m": a[0].m, "value": out})
        w(oracles, "brute_force_trace", "oracles.brute")
        w(oracles, "_pair_elements", "oracles.pair_elements")
        self._wrap_iter_blocks(solver)
        self._wrap_xi(solver)
        self._patches.append((solver, "ProcessPoolExecutor", ProcessPoolExecutor))
        solver.ProcessPoolExecutor = self._pool_class(ProcessPoolExecutor)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        _ACTIVE = None

    def _wrap_iter_blocks(self, solver) -> None:
        # a generator: time each step it takes, not the consumer's work
        # between steps
        fn = solver._iter_blocks
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = tracer.open("solver.block_iter")
                    try:
                        block = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    yield block
            finally:
                gen.close()

        self._patches.append((solver, "_iter_blocks", fn))
        solver._iter_blocks = wrapper

    def _wrap_xi(self, solver) -> None:
        fn = solver._xi_contribution
        tracer = self

        # functools.wraps keeps __module__/__qualname__, so the pool pickles
        # this wrapper by reference to solver._xi_contribution
        @functools.wraps(fn)
        def wrapper(args):
            config = args[3]
            span = tracer.open("solver.xi")
            try:
                out = fn(args)
            finally:
                tracer.close(span)
            span.data = {"total": out[0], "mh": config.n_azimuthal // 2}
            if os.getpid() != tracer._home_pid:
                spans, tracer.spans = tracer.spans, []
                return _Shipment(out, spans)
            return out

        self._patches.append((solver, "_xi_contribution", fn))
        solver._xi_contribution = wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The pool's lifetime in energy(): start, waiting and shutdown."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("solver.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span.end == 0.0:
                        tracer.close(self._span)

        return TracedPool


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children may overlap one another (pool workers run in parallel), so
    their intervals are merged before subtracting.
    """
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(kids.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = (s.end - s.start) - covered
    return out


# per-layer metric -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "special.bessel_s": "s",
    "special.bessel_calls": "count",
    "special.recurrence_s": "s",
    "special.recurrence_steps": "count",
    "special.recurrence_elem_steps": "count",
    "mie.amplitudes_s": "s",
    "mie.amplitude_calls": "count",
    "mie.z_points": "count",
    "mie.ell_max": "count",
    "mie.coeff_s": "s",
    "reflection.chi_s": "s",
    "reflection.chi_points": "count",
    "solver.kernel_s": "s",
    "solver.pairs_kept": "count",
    "solver.pairs_total": "count",
    "solver.xi_nodes_empty": "count",
    "solver.assemble_s": "s",
    "solver.blocks": "count",
    "solver.block_iter_s": "s",
    "solver.logdet_s": "s",
    "solver.logdet_gflop": "GFLOP",
    "solver.blocks_negligible": "count",
    "solver.xi_s": "s",
    "solver.xi_nodes": "count",
    "solver.pool_wait_s": "s",
    "oracles.brute_s": "s",
    "oracles.pair_elements_s": "s",
}


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics per round of the workload (ell_max: the largest)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            kids[s.parent].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(own[s.sid] for s in by_name[name])

    def count(name, key=None):
        if key is None:
            return len(by_name[name])
        return sum(s.data[key] for s in by_name[name])

    negligible = 0
    for xi in by_name["solver.xi"]:
        mh, limit = xi.data["mh"], NEGLIGIBLE_BLOCK * abs(xi.data["total"])
        for c in kids[xi.sid]:
            if c.name == "solver.logdet":
                weight = 1.0 if c.data["m"] in (0, mh) else 2.0
                negligible += abs(weight * c.data["value"]) < limit
    ell_max = max(
        (1 + sum(c.name == "special.recurrence" for c in kids[a.sid])
         for a in by_name["mie.amplitudes"]),
        default=0,
    )
    kernels = by_name["solver.kernel"]
    per_run = {
        "special.bessel_s": total("special.bessel"),
        "special.bessel_calls": count("special.bessel"),
        "special.recurrence_s": total("special.recurrence"),
        "special.recurrence_steps": count("special.recurrence"),
        "special.recurrence_elem_steps": count("special.recurrence", "elems"),
        "mie.amplitudes_s": self_total("mie.amplitudes"),
        "mie.amplitude_calls": count("mie.amplitudes"),
        "mie.z_points": count("mie.amplitudes", "z"),
        "mie.coeff_s": self_total("mie.coeff"),
        "reflection.chi_s": total("reflection.chi"),
        "reflection.chi_points": count("reflection.chi", "points"),
        "solver.kernel_s": self_total("solver.kernel"),
        "solver.pairs_kept": count("solver.kernel", "kept"),
        "solver.pairs_total": count("solver.kernel", "total"),
        "solver.xi_nodes_empty": sum(s.data["kept"] == 0 for s in kernels),
        "solver.assemble_s": total("solver.assemble"),
        "solver.blocks": count("solver.assemble"),
        "solver.block_iter_s": self_total("solver.block_iter"),
        "solver.logdet_s": total("solver.logdet"),
        "solver.logdet_gflop": sum(s.data["dim"] ** 3 / 3.0 for s in by_name["solver.logdet"]) / 1e9,
        "solver.blocks_negligible": negligible,
        "solver.xi_s": self_total("solver.xi"),
        "solver.xi_nodes": count("solver.xi"),
        "solver.pool_wait_s": total("solver.pool"),
        "oracles.brute_s": self_total("oracles.brute"),
        "oracles.pair_elements_s": total("oracles.pair_elements"),
    }
    out = {k: v / rounds for k, v in per_run.items()}
    out["mie.ell_max"] = ell_max
    return {k: out[k] for k in LAYER_UNITS}
