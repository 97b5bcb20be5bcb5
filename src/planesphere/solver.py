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

Windowed sampling.  With eta(dphi) = kappa_a + kappa_b - sqrt(2(xi^2 +
kappa_a kappa_b + k_a k_b cos dphi)), every weighted entry of the radial pair
(a, b) is bounded in log by c_ab - rho eta(dphi), where c_ab collects the
radial weights, the translations, -ln(kappa_a kappa_b)/2 and the mantissa
bound ln(4 pi (rho + 1)).  eta grows monotonically in dphi on [0, pi], so
the samples above e^PRUNE_LOG_CUTOFF form a leading window [0, w) of
columns, whose end is solved in closed form per pair; a pair with w = 0 is
dropped, and the samples beyond the window are taken as 0.  The kept pairs
are sorted by w and processed in chunks of about CHUNK_SAMPLES samples, each
sampled on its widest window by one round_trip_element call; the element,
the scale and the transform see only those columns.  A chunk is sampled
with one row per dphi and one column per pair, and one inverse real FFT
along its rows serves each pair of channels, (MM, X_ij) and (EE, X_ji):
the cosine and sine coefficients are the even and odd parts in m of its
output, written m-major into one coefficient array per sector.

Assembly.  The blocks of a xi node share one zero-filled 2n x 2n buffer.
The flat positions of every kept pair's entries in its lower triangle are
computed once per node, and each factored m writes its coefficient rows
there, one scatter per sector; the same positions are overwritten at every m, so
nothing else in the buffer changes.  np.linalg.cholesky reads only the
lower triangle and the diagonal, so the upper triangle is never filled.

wkb0 parity split.  For wkb0, S_perp = -S_par makes the EE and MM
channels, and the EM and -ME channels, equal bit for bit, so EE = MM = C
and X_ji = X_ij, X is symmetric, and only (MM, X_ij) are transformed.  The
block [[C, X], [X, C]] is orthogonally similar to diag(C + X, C - X), so
ln det(1 - M_m) = ln det(1 - C - X) + ln det(1 - C + X): two n x n
factorizations instead of one 2n x 2n, a quarter of the flops.

exact-mie tables.  Before its xi loop, an exact-mie solve of a set of xi
nodes builds the Chebyshev tables of mie.interpolated_amplitudes for those
nodes in one partial-wave ell loop (mie.panel_tables); a node's table
reaches the largest sin(Theta/2) its kept pairs sample, which lies in their
dphi = 0 column.  Every chunk of the node then reads its amplitudes off
that table instead of summing partial waves of its own, so the energy does
not depend on CHUNK_SAMPLES.  The tables are in use only while those nodes
are solved (mie.interpolation_tables).  A serial energy solves all its
nodes in one such set; with a pool, every worker solves one set and builds
the tables of its own nodes only.  A node's table does not depend on the
other nodes of its loop, so a worker reads the same amplitudes as a serial
solve, whatever the start method.

Live radial nodes.  A node that lies in no kept pair has a zero row and
column in every block, which adds 0 to a trace and ln 1 = 0 to a log det,
so every block spans the live nodes only: those in at least one kept pair.

Traces.  trace_Mr_numeric reads sum_m (2 - delta_m0) tr M_m^r, for r = 1
and 2 only, off the moments of the closed-form rule below: tr M_m and the
Frobenius norm f_m, with tr M_m^2 = f_m^2 since every block is symmetric.

Azimuthal sum.  At every xi node with a kept pair the sum runs over all
m = 0 .. n_azimuthal/2 (Nyquist); each block m >= 1 is either summed in
closed form or factored, by the rule below, and m = 0 is always factored.

Closed-form log-det.  Most blocks of high m are tiny.  For symmetric M with
Frobenius norm f < 1, 1 - M is positive definite, tr M^2 = f^2, and the
Mercator tail obeys |sum_{r>=3} tr M^r / r| <= sum_{r>=3} ||M||_2^{r-2} f^2 / r
<= f^3 / (3 (1 - f)).  A block m >= 1 whose weighted tail bound
w_m f^3 / (3 (1 - f)) is at most CLOSED_FORM_TAIL |ln det(1 - M_0)| therefore
adds w_m (-tr M_m - f^2/2), read off the Fourier coefficients, and is
neither assembled nor factored; every other block goes through a Cholesky
factorization.  Where that of M_0 rounds to exactly 0 (all entries below
1e-16), the share is taken of the closed form of M_0 instead.

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

from . import mie
from .asymptotics import e_pfa
from .core import Geometry, gauss_legendre
from .reflection import KernelKind, cos_theta, round_trip_element
from .reflection import chi_components  # noqa: F401  (perfbench/tracer.py wraps it here)


class NonContractiveKernelError(RuntimeError):
    """A round-trip block has spectral radius >= 1 (nonphysical kernel)."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# windowed sampling: a (pair, dphi) sample is computed only where the bound
# on the log of its kernel entries exceeds this (e^-46 ~ 1e-20), and a
# radial pair with no such sample is dropped
PRUNE_LOG_CUTOFF = -46.0

# kernel sampling: the kept pairs are sampled and transformed in chunks of
# about this many (pair, dphi) samples
CHUNK_SAMPLES = 1 << 14

# closed-form log-det: a block m >= 1 is summed as -tr M - f^2/2 when its
# weighted Mercator tail bound is at most this share of |ln det(1 - M_0)|
CLOSED_FORM_TAIL = 1e-15


@functools.cache
def half_line_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of core.gauss_legendre on t in (0,1), mapped to (0, inf) by x = t/(1-t).

    Cached, since the solver asks for the same radial rule at every xi
    node; the returned arrays are read-only, so no caller can alter the
    cached rule.
    """
    t, w = gauss_legendre(n)
    t = 0.5 * (t + 1.0)
    jac = 1.0 / (1.0 - t) ** 2
    x, w = t / (1.0 - t), 0.5 * w * jac
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureConfig:
    """Discretization knobs for the radial, azimuthal and frequency grids.

    How the kernel is sampled on these grids and which azimuthal blocks
    are factored is set out in the module docstring.
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
    """One azimuthal block of the symmetrized round-trip operator, or a wkb0 parity half.

    The energy path passes log_det_contribution its reused buffer, of which
    only the lower triangle is the block's, and for wkb0 the (n_live, n_live)
    halves C + X and C - X (see _xi_contribution); _iter_blocks yields full
    symmetric (2 n_live, 2 n_live) blocks.
    """

    m: int
    xi: float
    entries: np.ndarray


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


def _bound_offset(rho, kapa, kapb, log_wab):
    """The dphi-independent part c of the log bound c - rho eta(dphi) on a pair's entries.

    round_trip_element's log scale is -rho eta - (kapa + kapb) - ln(kapa
    kapb)/2 with eta = kapa + kapb - sqrt(2(xi^2 + kapa kapb + ka kb cos
    dphi)), which falls monotonically in dphi on [0, pi].  log_wab is the
    log of the pair's symmetrized radial weight, and ln(4 pi (rho + 1))
    covers the channel mantissas (at most 2 pi rho for the WKB kinds, where
    |A|, |B|, |C|, |D| <= 1 and 0 < f_p <= 1; test_solver checks the bound
    on sampled entries of every kind).
    """
    return (log_wab - (kapa + kapb) - 0.5 * np.log(kapa * kapb)
            + math.log(4.0 * math.pi * (rho + 1.0)))


def _live_columns(xi, rho, ka, kb, kapa, kapb, log_wab, m_grid) -> np.ndarray:
    """Per pair, the number w of leading columns dphi_d = 2 pi d / m_grid that are live.

    A sample is live while its bound c - rho eta(dphi) (c of _bound_offset)
    exceeds PRUNE_LOG_CUTOFF, i.e. while sqrt(2(xi^2 + kapa kapb + ka kb cos
    dphi)) > t with t = kapa + kapb - (c - PRUNE_LOG_CUTOFF)/rho.  t <= 0
    leaves the whole row [0, pi] live; otherwise the last live dphi is the
    arccos of (t^2/2 - xi^2 - kapa kapb)/(ka kb), and a value >= 1 (nothing
    live, not even dphi = 0) gives w = 0, which drops the pair.
    """
    mh = m_grid // 2
    c = _bound_offset(rho, kapa, kapb, log_wab)
    t = kapa + kapb - (c - PRUNE_LOG_CUTOFF) / rho
    cos_last = np.where(t > 0.0, (0.5 * t * t - xi * xi - kapa * kapb) / (ka * kb), -1.0)
    last = np.arccos(np.clip(cos_last, -1.0, 1.0))
    width = np.minimum(np.floor(last * (m_grid / (2.0 * math.pi))).astype(np.intp) + 1, mh + 1)
    width[cos_last <= -1.0] = mh + 1
    width[cos_last >= 1.0] = 0
    return width


def _chunks(width: np.ndarray) -> list[tuple[int, int, int]]:
    """Chunks (lo, hi, w) of about CHUNK_SAMPLES samples over pairs sorted by descending width.

    The pairs lo .. hi-1 are sampled on the columns [0, w), w being the
    widest window among them.
    """
    chunks = []
    lo = 0
    while lo < width.size:
        w = int(width[lo])
        hi = min(width.size, lo + max(1, CHUNK_SAMPLES // w))
        chunks.append((lo, hi, w))
        lo = hi
    return chunks


def _cos_sin_coefficients(packed: np.ndarray, m_grid: int, cos_out: np.ndarray,
                          sin_out: np.ndarray) -> None:
    """Cosine and sine coefficients m = 0 .. m_grid/2 of two channels from one transform.

    packed holds (f - i g)/2 on the leading rows dphi_d = 2 pi d / m_grid
    of [0, pi], zero beyond, one column per sequence, with f the samples of
    a real sequence even in dphi and g those of one odd in dphi.  One
    inverse real FFT along the rows yields y_m = (C_m + S_m)/2 with C =
    irfft(f) even and S = irfft(-i g) odd in m, so C_m = y_m + y_{N-m} and
    S_m = y_m - y_{N-m}, written row by row into cos_out and sin_out (halving
    is exact, so these equal the separate transforms up to the rounding of
    one addition).
    """
    mh = m_grid // 2
    y = np.fft.irfft(packed, m_grid, axis=0)
    head, tail = y[1 : mh + 1], y[: mh - 1 : -1]   # y_m and y_{N-m}, m >= 1
    np.add(y[0], y[0], out=cos_out[0])
    sin_out[0] = 0.0
    np.add(head, tail, out=cos_out[1:])
    np.subtract(head, tail, out=sin_out[1:])


def _kept_pairs(xi: float, rho: float, config: QuadratureConfig):
    """The radial nodes k and the kept pairs at xi, widest sampling window first.

    Returns (k, ii, jj, width, log_wab): pair p joins the nodes ii[p] <=
    jj[p], is sampled on the leading columns [0, width[p]) where its
    per-sample bound exceeds PRUNE_LOG_CUTOFF (read at call time) and has
    the log symmetrized radial weight log_wab[p].  A pair with no such
    column is dropped; its samples are below e^-46 ~ 1e-20 and are taken
    as 0.
    """
    k, wk = half_line_nodes_weights(config.n_radial)
    kap = np.hypot(xi, k)
    log_w = 0.5 * np.log(k * wk / (2.0 * math.pi))
    ii, jj = np.triu_indices(config.n_radial)
    log_wab = log_w[ii] + log_w[jj]
    width = _live_columns(xi, rho, k[ii], k[jj], kap[ii], kap[jj], log_wab, config.n_azimuthal)
    order = np.argsort(-width, kind="stable")
    order = order[: np.count_nonzero(width)]
    return k, ii[order], jj[order], width[order], log_wab[order]


def _fourier_kernels(xi: float, geometry: Geometry, kind: KernelKind,
                     config: QuadratureConfig):
    """Per-m Fourier coefficients of the symmetrized kernels at one xi.

    Returns (ii, jj, coef) where ii <= jj index the kept radial node pairs,
    widest sampling window first, and coef holds one m-major array per
    sector, coef[s][m, p] for m = 0 .. n_azimuthal/2 and pair p: the cosine
    coefficients MM and EE (EE already carries the -1 of the TE Fresnel
    sign) and the sine coefficients X_ij, X_ji of the mixed kernel for
    (out=i, in=j) and (out=j, in=i).  For wkb0, whose EE and X_ji equal MM
    and X_ij bit for bit (S_perp = -S_par), only (MM, X_ij) are sampled.
    The sectors are separate arrays: freeing one array holding all of them
    raised glibc's dynamic mmap threshold to its size, and with it the
    heap that stays resident (wkb-sweep peak RSS +11 MiB).
    """
    rho = geometry.aspect_ratio
    m_grid = config.n_azimuthal
    mh = m_grid // 2
    k, ii, jj, width, log_wab = _kept_pairs(xi, rho, config)

    # orientation in=j -> out=i; each chunk of pairs is sampled on its
    # widest window by one round_trip_element call, one row per dphi
    k_in, k_out = k[jj], k[ii]
    delta = (2.0 * math.pi / m_grid) * np.arange(mh + 1)
    parity = kind is KernelKind.WKB0
    coef = tuple(np.empty((mh + 1, ii.size)) for _ in range(2 if parity else 4))
    mm, x_ij = coef[0], coef[len(coef) // 2]   # (MM, EE, X_ij, X_ji) or (MM, X_ij)
    for lo, hi, w in _chunks(width):
        el = round_trip_element(xi, k_in[lo:hi], k_out[lo:hi], delta[:w, None], rho, kind)
        scale = el.log_scale
        scale += log_wab[lo:hi]
        np.exp(scale, out=scale)
        scale *= 0.5   # _cos_sin_coefficients takes half the samples
        # the similarity diag(1, -i) on the TE sector flips the sign of the
        # TE <- TM channel: X_ij is the sine transform of me, X_ji of -em
        packed = np.empty(scale.shape, dtype=complex)
        np.multiply(el.mm, scale, out=packed.real)
        np.multiply(el.me, scale, out=packed.imag)
        np.negative(packed.imag, out=packed.imag)
        _cos_sin_coefficients(packed, m_grid, mm[:, lo:hi], x_ij[:, lo:hi])
        if not parity:
            np.multiply(el.ee, scale, out=packed.real)
            np.multiply(el.em, scale, out=packed.imag)
            _cos_sin_coefficients(packed, m_grid, coef[1][:, lo:hi], coef[3][:, lo:hi])
    return ii, jj, coef


def _lower_positions(n: int, ii, jj, sectors: int) -> np.ndarray:
    """Flat positions of the pair coefficients in a C-ordered 2n x 2n block, lower triangle.

    The block is [[MM, X], [X^T, EE]], and its lower triangle holds MM(j, i),
    EE(j, i) and all of X^T: X^T(j, i) = X_ij and X^T(i, j) = X_ji for a
    pair i <= j.  A diagonal pair i = j has one mixed entry, which takes
    X_ji; its X_ij goes to the mirror position in the strict upper
    triangle, which nothing reads.  Returns shape (sectors, 4 // sectors,
    n_pairs): four sectors (MM, EE, X_ij, X_ji) at one position each, or,
    for wkb0, two (C, X) with C at the MM and EE positions and X at both
    mixed ones.
    """
    dim = 2 * n
    mm = jj * dim + ii
    ee = mm + (n * dim + n)
    x_ij = np.where(ii == jj, ii * dim + n + jj, (n + jj) * dim + ii)
    x_ji = (n + ii) * dim + jj
    return np.stack((mm, ee, x_ij, x_ji)).reshape(sectors, 4 // sectors, -1)


def _assemble_block(out: np.ndarray, m: int, positions: np.ndarray, coef) -> np.ndarray:
    """Write the pair coefficients of azimuthal order m into the lower triangle of out.

    out is the 2n x 2n buffer that positions (of _lower_positions) index;
    every call writes the same positions, so one zero-filled buffer serves
    every m of a xi node.  Returns out, whose strict upper triangle is not
    the block's.
    """
    flat = out.ravel()
    for sector, values in zip(positions, coef):
        flat[sector] = values[m]
    return out


def _block_moments(positions: np.ndarray, dim: int, coef):
    """tr M_m and the Frobenius norm of M_m for every m, from the pair coefficients.

    A position on the diagonal counts once in the norm and in the trace, one
    in the strict lower triangle twice in the norm (its mirror), and one in
    the strict upper triangle not at all.  All entries but those of the
    diagonal pairs share the largest norm weight, so the squared norm is
    that weight times the sum of squares, corrected on the diagonal pairs.
    """
    row, col = np.divmod(positions, dim)
    on_diag = (row == col).sum(axis=1)
    norm_w = on_diag + 2 * (row > col).sum(axis=1)
    top = norm_w.max()
    trace = squares = 0.0
    for values, d, w in zip(coef, on_diag, norm_w):
        diag, other = np.flatnonzero(d), np.flatnonzero(w != top)
        trace = trace + values[:, diag] @ d[diag].astype(float)
        squares = (squares + top * np.vecdot(values, values)
                   + values[:, other] ** 2 @ (w[other] - top).astype(float))
    return trace, np.sqrt(squares)


def _closed_form_log_dets(trace, norms, weights, log_det0):
    """Second-order Mercator ln det(1 - M_m) = -tr M_m - f_m^2/2 for every m.

    Returns the values and the mask of the blocks m >= 1 for which they are
    exact to CLOSED_FORM_TAIL |log_det0|: f_m < 1 and the weighted tail
    bound weights_m f_m^3 / (3 (1 - f_m)) within that share.  Where the
    factored log_det0 rounds to exactly 0 (every entry below the rounding
    of 1 - M_0), the share is taken of |values[0]| instead.
    """
    values = -trace - 0.5 * norms * norms
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = weights * norms ** 3 / (3.0 * (1.0 - norms))
    scale = abs(log_det0) if log_det0 != 0.0 else abs(values[0])
    exact = (norms < 1.0) & (tail <= CLOSED_FORM_TAIL * scale)
    exact[0] = False
    return values, exact


def _live_kernels(xi: float, geometry: Geometry, kind: KernelKind,
                  config: QuadratureConfig):
    """_fourier_kernels with the pairs indexed over the live radial nodes.

    Returns (n_live, positions, coef): the live nodes are those in at least
    one kept pair, and positions (of _lower_positions) place each pair among
    them, so _assemble_block builds a 2 n_live x 2 n_live block without the
    zero rows and columns of the other nodes.
    """
    ii, jj, coef = _fourier_kernels(xi, geometry, kind, config)
    live = np.zeros(config.n_radial, dtype=bool)
    live[ii] = live[jj] = True
    index = np.cumsum(live) - 1   # position of each live node among the live ones
    n_live = int(np.count_nonzero(live))
    return n_live, _lower_positions(n_live, index[ii], index[jj], len(coef)), coef


def _iter_blocks(xi: float, geometry: Geometry, kind: KernelKind,
                 config: QuadratureConfig) -> Iterator[BlockMatrix]:
    """Yield the blocks m = 0 .. n_azimuthal/2 over the live radial nodes, in full.

    A node where no pair is kept yields none.  Only the tests use it.
    """
    n_live, positions, coef = _live_kernels(xi, geometry, kind, config)
    if n_live == 0:
        return
    lower = np.zeros((2 * n_live, 2 * n_live))
    for m in range(config.n_azimuthal // 2 + 1):
        block = np.tril(_assemble_block(lower, m, positions, coef))
        block += np.tril(block, -1).T
        yield BlockMatrix(m=m, xi=xi, entries=block)


def log_det_contribution(block: BlockMatrix) -> float:
    """ln det(1 - M) by Cholesky factorization of the symmetric 1 - M.

    Only the lower triangle and the diagonal of block.entries are read.
    The caller applies the (2 - delta_m0) degeneracy weight.  Failure of the
    factorization means 1 - M is not positive definite, i.e. the
    discretized round trip is not contractive.
    """
    a = -block.entries
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
    """Sum_m (2 - delta_m0) ln det(1 - M_m) at one xi node; returns (sum, m factored).

    The sum runs to n_azimuthal/2.  Blocks admitted by _closed_form_log_dets
    are summed in closed form; the others are assembled into one reused
    buffer and factored over the live radial nodes, and the largest m among
    them is returned (0 when only M_0 is factored, -1 where no pair is
    kept).  A wkb0 block [[C, X], [X, C]] (X symmetric) is factored as its
    two parity halves: ln det(1 - C - X) + ln det(1 - C + X).
    """
    xi, geometry, kind, config = args
    n_live, positions, coef = _live_kernels(xi, geometry, kind, config)
    if n_live == 0:
        return 0.0, -1
    trace, norms = _block_moments(positions, 2 * n_live, coef)
    weights = _azimuthal_weights(config)
    lower = np.zeros((2 * n_live, 2 * n_live))

    def factored(m: int) -> float:
        block = _assemble_block(lower, m, positions, coef)
        if kind is not KernelKind.WKB0:
            return log_det_contribution(BlockMatrix(m=m, xi=xi, entries=block))
        c, x = block[:n_live, :n_live], block[n_live:, :n_live]
        return (log_det_contribution(BlockMatrix(m=m, xi=xi, entries=c + x))
                + log_det_contribution(BlockMatrix(m=m, xi=xi, entries=c - x)))

    log_det0 = factored(0)
    closed, exact = _closed_form_log_dets(trace, norms, weights, log_det0)
    total = weights[0] * log_det0
    for m in range(1, norms.size):
        total += weights[m] * (closed[m] if exact[m] else factored(m))
    return float(total), int(np.flatnonzero(~exact)[-1])


def _mie_tables(xi_nodes, geometry: Geometry, config: QuadratureConfig) -> dict:
    """The exact-mie amplitude tables of every xi node, from one partial-wave ell loop.

    A kept pair's samples reach their largest sin(Theta/2) in its dphi = 0
    column, which every kept pair samples, so the cos(Theta) of those
    columns, evaluated as the element evaluates them, bound the panels of
    each node's calls (see mie.panel_tables).
    """
    rho = geometry.aspect_ratio
    samples = {}
    for xi in xi_nodes:
        k, ii, jj, _, _ = _kept_pairs(xi, rho, config)
        samples[xi] = cos_theta(xi, k[jj], k[ii], 0.0)
    return mie.panel_tables(rho, samples)


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


@contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread, then restore its count.

    Blocks have at most a few hundred rows, where one thread is not slower;
    it leaves the other cores to other processes, and to the other workers
    of a pool.  Does nothing if _openblas finds no library, or if OpenBLAS
    already runs on one thread: a forked pool worker inherits that count,
    and setting it there would start OpenBLAS's thread server in the worker,
    whose idle thread spins for about 0.1 s on a core the workers need.
    """
    lib = _openblas()
    before = 1 if lib is None else lib.scipy_openblas_get_num_threads64_()
    if before == 1:
        yield
        return
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _solve_nodes(args) -> list[tuple[float, int]]:
    """_xi_contribution at each of a set of xi nodes, in their order.

    args = (xi_nodes, geometry, kind, config).  An exact-mie solve first
    builds the tables of these nodes only (see "exact-mie tables").  The
    results are returned unread, as _xi_contribution gives them: wrapped by
    perfbench/tracer.py in a pool worker, it returns objects that become
    results only when unpickled in the parent.
    """
    xi_nodes, geometry, kind, config = args
    exact = kind is KernelKind.EXACT_MIE
    tables = _mie_tables(xi_nodes, geometry, config) if exact else {}
    with _one_blas_thread(), mie.interpolation_tables(tables):
        return [_xi_contribution((xi, geometry, kind, config)) for xi in xi_nodes]


def energy(geometry: Geometry, kind: KernelKind,
           config: QuadratureConfig | None = None, threads: int = 1) -> EnergyReport:
    """Casimir energy in units hbar c / L, with the ratio to the PFA value.

    The xi integral runs over the nodes of half_line_nodes_weights, like
    the radial integral; each node is independent, so threads > 1 deals
    the nodes round-robin to a process pool of min(threads, n_xi) workers,
    one set of nodes per worker (results are summed in fixed node order
    regardless of scheduling).  Every set, and a serial solve's one set of
    all nodes, is solved by _solve_nodes, with BLAS on one thread (pinned
    here too, so that forked workers inherit the count; restored when the
    solve returns or raises) and for exact-mie the tables of that set's
    nodes only (see "exact-mie tables" in the module docstring).  A thread
    count below 1 raises ValueError.  diagnostics["m_factored"] lists, per xi
    node, the largest m whose block was factored rather than summed in
    closed form (0 when only M_0 was, -1 where no radial pair is kept).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if config is None:
        config = QuadratureConfig.auto(geometry)
    xi_nodes, xi_weights = half_line_nodes_weights(config.n_xi)
    xi_list = [float(xi) for xi in xi_nodes]
    workers = min(threads, len(xi_list))
    jobs = [(xi_list[i::workers], geometry, kind, config) for i in range(workers)]
    with _one_blas_thread():
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_solve_nodes, jobs))
        else:
            parts = list(map(_solve_nodes, jobs))
    results = [None] * len(xi_list)
    for i, part in enumerate(parts):
        results[i::workers] = part
    g_values = np.array([res[0] for res in results])
    total = float(np.dot(xi_weights, g_values)) / (2.0 * math.pi)
    pfa = e_pfa(geometry)
    diagnostics = {
        "m_factored": [res[1] for res in results],
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
    """Sum_m (2 - delta_m0) tr(M_m^r) at one frequency, r = 1 or 2 (see "Traces").

    For exact-mie the node's table is built first, as an energy builds it
    (see "exact-mie tables").
    """
    if r not in (1, 2):
        raise ValueError("round-trip count must be 1 or 2")
    tables = _mie_tables([xi], geometry, config) if kind is KernelKind.EXACT_MIE else {}
    with mie.interpolation_tables(tables):
        n_live, positions, coef = _live_kernels(xi, geometry, kind, config)
    if n_live == 0:
        return 0.0
    trace, norms = _block_moments(positions, 2 * n_live, coef)
    return float(_azimuthal_weights(config) @ (trace if r == 1 else norms**2))
