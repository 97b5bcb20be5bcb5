"""The benchmark's workloads: their inputs, their solves and their checks.

A workload builds its inputs once (the set-up), then runs rounds of the same
solves; every solve is one operation.  The program only receives a
`Geometry`, a `KernelKind`, a `QuadratureConfig` equal to what it would pick
itself (or the criterion-5 one for traces) and `threads`.  The seed picks
the mpmath spot-check points of `mie-exact`; every other input is fixed,
because the solver's cost depends on R/L and the kernel, not on random data.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from planesphere import oracles
from planesphere.core import Geometry
from planesphere.mie import ExactAmplitudes
from planesphere.reflection import KernelKind
from planesphere.solver import QuadratureConfig, energy, trace_Mr_numeric

from . import checks


@dataclass(frozen=True)
class Op:
    """One solve of a round; `run` returns its output."""

    name: str
    run: Callable[[], object]


@dataclass
class Workload:
    ops: list[Op]
    # maps the op name -> output of one round to a list of failure messages
    check: Callable[[dict[str, object]], list[str]]
    # checks of the program made once per run, outside the timed rounds
    extra_check: Callable[[], list[str]] = field(default=lambda: [])


def _energy_op(name, rho, kind, threads=1) -> Op:
    geometry = Geometry(R=rho, L=1.0)
    config = QuadratureConfig.auto(geometry)
    return Op(name, lambda: energy(geometry, kind, config=config, threads=threads))


# ---------------------------------------------------------------------------

SWEEP_RATIOS = (50.0, 100.0, 200.0)
SWEEP_KINDS = (KernelKind.WKB0, KernelKind.WKB1)


def wkb_sweep(seed: int) -> Workload:
    ops = [_energy_op(f"{kind.value}@{rho:g}", rho, kind)
           for rho in SWEEP_RATIOS for kind in SWEEP_KINDS]

    def check(out):
        ratios = {kind: {rho: out[f"{kind.value}@{rho:g}"].ratio_to_pfa for rho in SWEEP_RATIOS}
                  for kind in SWEEP_KINDS}
        return checks.check_beta_sweep(ratios[KernelKind.WKB0], ratios[KernelKind.WKB1])

    return Workload(ops, check)


MIE_RATIO = 20.0
SPOT_CHECKS = 3


def spot_points(seed: int) -> list[tuple[float, float]]:
    """Seeded (xi, z): xi log-uniform in [0.05, 1.5], 1 - |z| log-uniform in [1e-3, 10]."""
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(0.05), math.log(1.5))),
             -1.0 - math.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
            for _ in range(SPOT_CHECKS)]


def mie_exact(seed: int) -> Workload:
    op = _energy_op(f"exact-mie@{MIE_RATIO:g}", MIE_RATIO, KernelKind.EXACT_MIE)
    wkb1 = _energy_op(f"wkb1@{MIE_RATIO:g}", MIE_RATIO, KernelKind.WKB1)
    points = spot_points(seed)
    wkb1_energy = functools.cache(lambda: wkb1.run().energy)

    def check(out):
        rep = out[op.name]
        return checks.check_exact_vs_wkb1(rep.energy, wkb1_energy(), rep.ratio_to_pfa, MIE_RATIO)

    def extra_check():
        fails = []
        for xi, z in points:
            mant_perp, mant_par, log_scale = ExactAmplitudes(xi, MIE_RATIO)(np.array([z]))
            code = (float(mant_perp[0]), float(mant_par[0]), float(log_scale[0]))
            ref = checks.mp_amplitudes(xi, MIE_RATIO, z)
            fails += checks.check_amplitudes(code, ref, f"xi={xi:.6g}, z={z:.6g}")
        return fails

    return Workload([op], check, extra_check)


TRACE_GEOMETRY = Geometry(R=5.0, L=1.0)
TRACE_XI = 1.0
# criterion-5 settings: (r, brute-force quadrature sizes)
TRACE_CASES = ((1, dict(n_k=140)), (2, dict(n_k=64, n_phi=192)))


def trace_oracle(seed: int) -> Workload:
    config = QuadratureConfig(n_radial=64, n_azimuthal=64, n_xi=8)
    ops = []
    for r, brute_kw in TRACE_CASES:
        ops.append(Op(f"brute-r{r}", lambda r=r, kw=brute_kw:
                      oracles.brute_force_trace(r, TRACE_XI, TRACE_GEOMETRY, **kw)))
        ops.append(Op(f"solver-r{r}", lambda r=r: trace_Mr_numeric(
            r, TRACE_XI, TRACE_GEOMETRY, KernelKind.EXACT_MIE, config)))

    def check(out):
        fails = []
        for r, _ in TRACE_CASES:
            fails += checks.check_traces(out[f"brute-r{r}"], out[f"solver-r{r}"], r)
        return fails

    return Workload(ops, check)


# exact-mie rather than wkb1: with threads=2, wkb1 stalls in BLAS
# oversubscription and its time is not reproducible (see perfbench/README.md)
POOL_RATIO = 10.0
POOL_KIND = KernelKind.EXACT_MIE


def pool(seed: int) -> Workload:
    op = _energy_op(f"{POOL_KIND.value}@{POOL_RATIO:g}x2", POOL_RATIO, POOL_KIND, threads=2)
    serial = _energy_op(f"{POOL_KIND.value}@{POOL_RATIO:g}", POOL_RATIO, POOL_KIND)
    serial_energy = functools.cache(lambda: serial.run().energy)

    def check(out):
        return checks.check_pool(out[op.name].energy, serial_energy())

    return Workload([op], check)


WORKLOADS = {
    "wkb-sweep": wkb_sweep,
    "mie-exact": mie_exact,
    "trace-oracle": trace_oracle,
    "mie-pool": pool,
}
