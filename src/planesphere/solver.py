"""Nystrom evaluation of E = (hbar/2pi) int dxi tr ln(1 - M).

The round-trip operator at fixed imaginary frequency xi acts on plane-wave
channels (k, phi, pol).  Rotational symmetry about z makes its kernel depend
on the azimuths only through dphi, so a Fourier transform over dphi block-
diagonalizes it into azimuthal blocks M_m; the energy is a xi-quadrature of
sum_m (2 - delta_m0) ln det(1 - M_m).

Symmetrization.  The matrix elements come from
reflection.round_trip_element, which already carries the plane's Fresnel
signs (+1 TM, -1 TE), the translation factors e^{-kappa (L+R)} on both legs
and the similarity that turns the 1/kappa_out of the sphere element into
1/sqrt(kappa_in kappa_out).  This module adds the symmetric square root of
the radial quadrature weights k_i w_i / 2pi.  In the Fourier domain the
polarization-diagonal kernels are even in dphi (real cosine coefficients
C_m) and the mixed kernels odd (imaginary coefficients -i S_m); a further
similarity diag(1, -i) on the TE sector then yields the real symmetric block

    [[ C_m[MM],  X_m ], [ X_m^T, C_m[EE] ]],

where X_m(a, b) is the sine transform of the TM <- TE channel for the pair
in=b -> out=a, and equally of minus the TE <- TM channel for in=a -> out=b.
Determinants and traces are invariant under these similarities, which the
test suite checks against a direct complex construction.

Closed-form log-det.  Most blocks of high m are tiny.  For symmetric M with
Frobenius norm f < 1, 1 - M is positive definite, tr M^2 = f^2, and the
Mercator tail obeys |sum_{r>=3} tr M^r / r| <= sum_{r>=3} ||M||_2^{r-2} f^2 / r
<= f^3 / (3 (1 - f)).  A block m >= 1 whose weighted tail bound
w_m f^3 / (3 (1 - f)) is at most CLOSED_FORM_TAIL |ln det(1 - M_0)| therefore
adds w_m (-tr M_m - f^2/2), read off the Fourier coefficients, and is
neither assembled nor factored; every other block goes through a Cholesky
factorization.

All exponentially large and small factors combine in log space before
exponentiation: the WKB growth 2 xi R sin(Theta/2) never exceeds the
translation damping, so every assembled entry is a plain float.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .asymptotics import e_pfa
from .core import Geometry
from .reflection import KernelKind, round_trip_element
from .reflection import chi_components  # noqa: F401  (perfbench/tracer.py wraps it here)


class NonContractiveKernelError(RuntimeError):
    """A round-trip block has spectral radius >= 1 (nonphysical kernel)."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# pair pruning: a radial pair is dropped when the bound on the log of its
# kernel entries is below this (e^-46 ~ 1e-20)
PRUNE_LOG_CUTOFF = -46.0

# azimuthal truncation: the sum stops before the first m >= 1 whose block
# Frobenius norm is below this share of the m=0 block's
NORM_CUTOFF = 1e-10

# closed-form log-det: a block m >= 1 is summed as -tr M - f^2/2 when its
# weighted Mercator tail bound is at most this share of |ln det(1 - M_0)|
CLOSED_FORM_TAIL = 1e-15


def half_line_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes t in (0,1) mapped to (0, inf) by x = t/(1-t)."""
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    jac = 1.0 / (1.0 - t) ** 2
    return t / (1.0 - t), 0.5 * w * jac


@dataclass(frozen=True)
class QuadratureConfig:
    """Discretization knobs for the radial, azimuthal and frequency grids.

    The azimuthal sum stops by one of two rules: before the first m >= 1
    whose block Frobenius norm is below 1e-10 of the m=0 block's, or else
    at the Nyquist order n_azimuthal/2.  The norms of all blocks come from
    the Fourier coefficients in one pass, before any block is assembled.

    Within the sum, a block m >= 1 with norm f < 1 and weighted tail bound
    w_m f^3 / (3 (1 - f)) <= 1e-15 |ln det(1 - M_0)| contributes the
    second-order Mercator value w_m (-tr M_m - f^2/2) in closed form; the
    others are assembled and factored (see the module docstring).
    """

    n_radial: int
    n_azimuthal: int
    n_xi: int

    def __post_init__(self) -> None:
        for name in ("n_radial", "n_azimuthal", "n_xi"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4")
        if not _is_power_of_two(self.n_azimuthal):
            raise ValueError("n_azimuthal must be a power of two (FFT length)")

    @classmethod
    def auto(cls, geometry: Geometry) -> "QuadratureConfig":
        """Defaults scaled with sqrt(R/L): radial/angular widths ~ sqrt(L/R)."""
        rho = geometry.aspect_ratio
        n_rad = max(16, int(math.ceil(8.4 * math.sqrt(rho))))
        m_est = max(8, int(math.ceil(5.5 * math.sqrt(rho))))
        n_az = 1 << max(6, (2 * m_est - 1).bit_length())
        return cls(n_radial=n_rad, n_azimuthal=n_az, n_xi=40)


@dataclass(frozen=True)
class BlockMatrix:
    """One azimuthal block of the symmetrized round-trip operator."""

    m: int
    xi: float
    entries: np.ndarray  # (2 n_radial, 2 n_radial), real symmetric


@dataclass(frozen=True)
class EnergyReport:
    energy: float  # hbar c / L
    ratio_to_pfa: float
    kernel: KernelKind
    config: QuadratureConfig
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "energy_hbar_c_over_L": self.energy,
            "ratio_to_pfa": self.ratio_to_pfa,
            "kernel": self.kernel.value,
            "n_radial": self.config.n_radial,
            "n_azimuthal": self.config.n_azimuthal,
            "n_xi": self.config.n_xi,
            "diagnostics": self.diagnostics,
        }


def _fourier_kernels(xi: float, geometry: Geometry, kind: KernelKind,
                     config: QuadratureConfig):
    """Per-m Fourier coefficients of the symmetrized kernels at one xi.

    Returns (ii, jj, cmm, cee, x_ij, x_ji) where ii <= jj index the kept
    radial node pairs and each coefficient array has shape
    (n_pairs, n_azimuthal/2 + 1).  cee already carries the -1 of the TE
    Fresnel sign; x_ij / x_ji are the sine coefficients of the mixed
    kernel for (out=i, in=j) and (out=j, in=i).
    """
    rho = geometry.aspect_ratio
    n = config.n_radial
    m_grid = config.n_azimuthal
    mh = m_grid // 2
    k, wk = half_line_nodes_weights(n)
    kap = np.hypot(xi, k)
    log_w = 0.5 * np.log(k * wk / (2.0 * math.pi))

    # pair pruning: the total exponent at the most favorable azimuth dphi=0
    # is -(kap_a+kap_b) - rho*eta0 with eta0 = kap_a+kap_b - sqrt(2(xi^2+P0))
    ii, jj = np.triu_indices(n)
    ka, kb = k[ii], k[jj]
    kapa, kapb = kap[ii], kap[jj]
    p0 = kapa * kapb + ka * kb
    eta0 = kapa + kapb - np.sqrt(2.0 * (xi * xi + p0))
    bound = (
        -(kapa + kapb)
        - rho * eta0
        + log_w[ii]
        + log_w[jj]
        + math.log(4.0 * math.pi * (rho + 1.0))
    )
    keep = bound > PRUNE_LOG_CUTOFF
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        empty = np.zeros((0, mh + 1))
        return ii, jj, empty, empty, empty, empty

    ka, kb = k[ii][:, None], k[jj][:, None]
    delta = (2.0 * math.pi / m_grid) * np.arange(mh + 1)[None, :]
    # orientation in=j -> out=i
    cmm, cee, x_ij, x_ji, log_scale = round_trip_element(xi, kb, ka, delta, rho, kind)
    scale = np.exp(log_scale + (log_w[ii] + log_w[jj])[:, None])
    cmm *= scale
    cee *= scale
    x_ij *= scale
    # the similarity diag(1, -i) on the TE sector flips the TE <- TM sign
    np.negative(scale, out=scale)
    x_ji *= scale
    del scale

    # the samples at dphi in [0, pi] are the half spectrum of a real even
    # (cosine) or odd (sine, times -i) sequence, so one inverse real FFT
    # per channel yields the coefficients; the copy frees the full-length
    # transform
    cmm = np.fft.irfft(cmm, m_grid, axis=1)[:, : mh + 1].copy()
    cee = np.fft.irfft(cee, m_grid, axis=1)[:, : mh + 1].copy()
    x_ij = np.fft.irfft(-1j * x_ij, m_grid, axis=1)[:, : mh + 1].copy()
    x_ji = np.fft.irfft(-1j * x_ji, m_grid, axis=1)[:, : mh + 1].copy()
    return ii, jj, cmm, cee, x_ij, x_ji


def _assemble_block(n, m, ii, jj, cmm, cee, x_ij, x_ji) -> np.ndarray:
    """Scatter the pair coefficients of azimuthal order m into a 2n x 2n block."""
    block = np.zeros((2 * n, 2 * n))
    mm = block[:n, :n]
    ee = block[n:, n:]
    x = block[:n, n:]
    mm[ii, jj] = cmm[:, m]
    mm[jj, ii] = cmm[:, m]
    ee[ii, jj] = cee[:, m]
    ee[jj, ii] = cee[:, m]
    x[ii, jj] = x_ij[:, m]
    x[jj, ii] = x_ji[:, m]
    block[n:, :n] = x.T
    return block


def _block_norms(ii, jj, cmm, cee, x_ij, x_ji) -> np.ndarray:
    """Frobenius norms of the blocks of every m, from the pair coefficients.

    _assemble_block writes an off-diagonal pair twice in the MM and EE
    sectors and a diagonal pair once; the mixed sector appears twice (X and
    X^T), with x_ji overwriting x_ij on the diagonal.
    """
    off = (ii != jj).astype(float)
    both = 1.0 + off
    sq = (
        np.einsum("p,pm,pm->m", both, cmm, cmm)
        + np.einsum("p,pm,pm->m", both, cee, cee)
        + 2.0 * np.einsum("p,pm,pm->m", off, x_ij, x_ij)
        + 2.0 * np.einsum("pm,pm->m", x_ji, x_ji)
    )
    return np.sqrt(sq)


def _last_m(norms: np.ndarray) -> int:
    """Last azimuthal order of the sum: the norm cutoff, or Nyquist (the last norm)."""
    norm0 = norms[0] if norms[0] > 0.0 else 1.0
    small = np.flatnonzero(norms[1:] < NORM_CUTOFF * norm0)
    return int(small[0]) if small.size else norms.size - 1


def _closed_form_log_dets(ii, jj, cmm, cee, norms, weights, log_det0):
    """Second-order Mercator ln det(1 - M_m) = -tr M_m - f_m^2/2 for every m.

    Returns the values and the mask of the blocks m >= 1 for which they are
    exact to CLOSED_FORM_TAIL |log_det0|: f_m < 1 and the weighted tail
    bound weights_m f_m^3 / (3 (1 - f_m)) within that share.  The traces
    sum the diagonal pairs of the MM and EE sectors.
    """
    diag = ii == jj
    trace = cmm[diag].sum(axis=0) + cee[diag].sum(axis=0)
    values = -trace - 0.5 * norms * norms
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = weights * norms ** 3 / (3.0 * (1.0 - norms))
    exact = (norms < 1.0) & (tail <= CLOSED_FORM_TAIL * abs(log_det0))
    exact[0] = False
    return values, exact


def _iter_blocks(xi: float, geometry: Geometry, kind: KernelKind,
                 config: QuadratureConfig) -> Iterator[BlockMatrix]:
    """Yield blocks for m = 0, 1, ... up to the norm cutoff or Nyquist."""
    ii, jj, cmm, cee, x_ij, x_ji = _fourier_kernels(xi, geometry, kind, config)
    if ii.size == 0:
        return
    m_cap = _last_m(_block_norms(ii, jj, cmm, cee, x_ij, x_ji))
    n = config.n_radial
    for m in range(m_cap + 1):
        block = _assemble_block(n, m, ii, jj, cmm, cee, x_ij, x_ji)
        yield BlockMatrix(m=m, xi=xi, entries=block)


def build_blocks(xi: float, geometry: Geometry, kind: KernelKind,
                 config: QuadratureConfig) -> list[BlockMatrix]:
    """All azimuthal blocks at one frequency (see _iter_blocks for truncation)."""
    return list(_iter_blocks(xi, geometry, kind, config))


def log_det_contribution(block: BlockMatrix) -> float:
    """ln det(1 - M_m) by Cholesky factorization of the symmetric 1 - M_m.

    The caller applies the (2 - delta_m0) degeneracy weight.  Failure of the
    factorization means 1 - M_m is not positive definite, i.e. the
    discretized round trip is not contractive.
    """
    a = -block.entries.copy()
    np.fill_diagonal(a, a.diagonal() + 1.0)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NonContractiveKernelError(
            f"1 - M not positive definite at xi={block.xi}, m={block.m}"
        ) from exc
    return 2.0 * float(np.sum(np.log(chol.diagonal())))


def _azimuthal_weights(config: QuadratureConfig) -> np.ndarray:
    """Degeneracy weights (2 - delta_m0), with 1 at the Nyquist order."""
    mh = config.n_azimuthal // 2
    weights = np.full(mh + 1, 2.0)
    weights[[0, mh]] = 1.0
    return weights


def _xi_contribution(args) -> tuple[float, int]:
    """Sum_m (2 - delta_m0) ln det(1 - M_m) at one xi node; returns (sum, m_used).

    Blocks admitted by _closed_form_log_dets are summed in closed form; the
    others are assembled and factored.
    """
    xi, geometry, kind, config = args
    ii, jj, cmm, cee, x_ij, x_ji = _fourier_kernels(xi, geometry, kind, config)
    if ii.size == 0:
        return 0.0, -1
    norms = _block_norms(ii, jj, cmm, cee, x_ij, x_ji)
    m_last = _last_m(norms)
    weights = _azimuthal_weights(config)
    n = config.n_radial

    def factored(m: int) -> float:
        block = _assemble_block(n, m, ii, jj, cmm, cee, x_ij, x_ji)
        return log_det_contribution(BlockMatrix(m=m, xi=xi, entries=block))

    log_det0 = factored(0)
    closed, exact = _closed_form_log_dets(ii, jj, cmm, cee, norms, weights, log_det0)
    total = weights[0] * log_det0
    for m in range(1, m_last + 1):
        total += weights[m] * (closed[m] if exact[m] else factored(m))
    return float(total), m_last


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (numpy.libs) via ctypes, or None if not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _single_blas_thread() -> None:
    """Pool-worker initializer: run numpy's bundled OpenBLAS on one thread.

    Every worker already occupies a core, so OpenBLAS threads of its own
    would oversubscribe them.  Does nothing if the library or its setter is
    not found.
    """
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


@contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread, then restore its count.

    A serial solve factors blocks of at most a few hundred rows, where one
    thread is not slower and leaves the other cores to other processes.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def energy(geometry: Geometry, kind: KernelKind,
           config: QuadratureConfig | None = None, threads: int = 1) -> EnergyReport:
    """Casimir energy in units hbar c / L, with the ratio to the PFA value.

    The xi integral runs over the nodes of half_line_nodes_weights, like
    the radial integral; each node is independent, so
    threads > 1 distributes nodes over a process pool whose workers run
    BLAS on one thread each (results are summed in fixed node order
    regardless of scheduling).  A serial solve also runs BLAS on one
    thread, restoring the previous count when it returns or raises.
    """
    if config is None:
        config = QuadratureConfig.auto(geometry)
    xi_nodes, xi_weights = half_line_nodes_weights(config.n_xi)
    jobs = [(float(xi), geometry, kind, config) for xi in xi_nodes]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads, initializer=_single_blas_thread) as pool:
            results = list(pool.map(_xi_contribution, jobs))
    else:
        with _one_blas_thread():
            results = [_xi_contribution(job) for job in jobs]
    g_values = np.array([res[0] for res in results])
    m_used = max((res[1] for res in results), default=-1)
    total = float(np.dot(xi_weights, g_values)) / (2.0 * math.pi)
    pfa = e_pfa(geometry)
    diagnostics = {
        "m_max_used": m_used,
        "xi_max": float(np.max(xi_nodes)),
    }
    return EnergyReport(
        energy=total,
        ratio_to_pfa=total / pfa,
        kernel=kind,
        config=config,
        diagnostics=diagnostics,
    )


def trace_Mr_numeric(r: int, xi: float, geometry: Geometry, kind: KernelKind,
                     config: QuadratureConfig) -> float:
    """Sum_m (2 - delta_m0) tr(M_m^r) at one frequency."""
    if r < 1:
        raise ValueError("round-trip count must be >= 1")
    weights = _azimuthal_weights(config)
    total = 0.0
    for block in _iter_blocks(xi, geometry, kind, config):
        power = np.linalg.matrix_power(block.entries, r)
        total += weights[block.m] * float(np.trace(power))
    return float(total)

