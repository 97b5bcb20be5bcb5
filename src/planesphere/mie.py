"""Sphere scattering amplitudes S_perp, S_par at imaginary frequency.

Exact partial-wave sums for a perfectly reflecting sphere and the 1/R
diffraction correction of their WKB (geometric-optics) limit.  Everything is
vectorized: `_mie_ab_log_arrays` gives the Mie coefficients for all ell as
signs and logs, `ExactAmplitudes` sums them over an array of cos(Theta)
values and returns mantissas on one log scale, and `wkb_diffraction_s`
gives the corrections s_p from which reflection._amplitudes builds the wkb1
kernel.  All exponentially large factors are tracked in log scale.

The exact-mie kernel reads its amplitudes off `interpolated_amplitudes`:
the direct sum runs only at the Chebyshev nodes of fixed panels in
sin(Theta/2) (PANEL_NODES per panel), and every other cos(Theta) is
interpolated on its panel.  The interpolants agree with the direct sum to
1e-11 relative over the ranges the solver samples, which is the level of
the direct sum's own rounding there; exact-mie energies move by ~1e-15.
`ExactAmplitudes` stays the one implementation of the sum, and the oracle
of the tests.  Each element of the sum stops on its own, so its value
depends on its own cos(Theta) and not on the rest of its call.

Adopted Mie coefficients
------------------------
For a perfect reflector the standard real-frequency coefficients are the
Riccati-Bessel ratios a_ell = psi'_ell(x)/xi'_ell(x), b_ell =
psi_ell(x)/xi_ell(x).  Continued to imaginary frequency (x -> i x, x = xi*R/c
real) they become real:

    a_ell = (-1)^{ell+1} (pi/2) [I'_nu(x) + I_nu(x)/(2x)] / [K'_nu(x) + K_nu(x)/(2x)]
    b_ell = (-1)^{ell+1} (pi/2) I_nu(x) / K_nu(x),        nu = ell + 1/2.

Since K' + K/(2x) < 0 < I' + I/(2x), the signs are sign(a_ell) = (-1)^ell and
sign(b_ell) = (-1)^{ell+1}.  The overall sign convention is pinned by the WKB
limit: the partial-wave sums must approach

    S_par  = +(xi R/2) exp[2 xi R sin(Theta/2)],
    S_perp = -(xi R/2) exp[2 xi R sin(Theta/2)],

with the 1/R diffraction correction S_p -> S_p (1 + s_p/R) of
`wkb_diffraction_s`; the tests check this limit against `ExactAmplitudes`.
"""
from __future__ import annotations

import math

import numpy as np

from .special import AngularRecurrence, angular_tau, log_bessel_i_half, log_bessel_k_half

LOG_HALF_PI = math.log(math.pi / 2.0)


class TruncationError(RuntimeError):
    """Partial-wave sum failed to converge before the ell cap."""

    def __init__(self, message: str, ell_reached: int, worst_rel: float):
        super().__init__(message)
        self.ell_reached = ell_reached
        self.worst_rel = worst_rel


def _mie_ab_log_arrays(x: float, ell_max: int):
    """(sign_a, log|a|, sign_b, log|b|) for ell = 1..ell_max at x = xi*R/c."""
    if x <= 0.0:
        raise ValueError("size parameter x must be positive")
    log_i = log_bessel_i_half(ell_max + 1, x)
    log_k = log_bessel_k_half(ell_max + 1, x)
    ell = np.arange(1, ell_max + 1)
    nu = ell + 0.5
    # numerator I' + I/(2x) = I_{nu+1} + ((2nu+1)/(2x)) I_nu, all positive
    log_num = log_i[2:] + np.log1p((2 * nu + 1) / (2 * x) * np.exp(log_i[1:-1] - log_i[2:]))
    # |denominator| = K_{nu+1} - ((2nu+1)/(2x)) K_nu > 0 (no cancellation:
    # K_{nu+1}/K_nu > 2nu/x > (2nu+1)/(2x) for nu >= 3/2)
    log_den = log_k[2:] + np.log1p(-(2 * nu + 1) / (2 * x) * np.exp(log_k[1:-1] - log_k[2:]))
    log_a = LOG_HALF_PI + log_num - log_den
    log_b = LOG_HALF_PI + log_i[1:-1] - log_k[1:-1]
    sign_b = np.where(ell % 2 == 1, 1.0, -1.0)   # (-1)^{ell+1}
    sign_a = -sign_b                              # extra -1 from K'+K/2x < 0
    return sign_a, log_a, sign_b, log_b


# the (ell-block x elements) arrays of the partial-wave sum: at most
# BLOCK_ROWS orders and, unless one order alone is larger, BLOCK_ELEMENTS entries
BLOCK_ROWS = 32
BLOCK_ELEMENTS = 1 << 12
# Chebyshev panels of `interpolated_amplitudes`: panel k spans
# sin(Theta/2) in [PANEL_RATIO^k, PANEL_RATIO^(k+1)] with PANEL_NODES points
PANEL_RATIO = 2.0 ** 0.25
PANEL_NODES = 8


def _cos_theta(z) -> np.ndarray:
    """z as a float array on the branch z <= -1, roundoff above -1 clipped."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not (np.all(np.isfinite(z)) and np.all(z <= -1.0 + 1e-9)):
        raise ValueError("amplitudes require finite cos(Theta) <= -1")
    return np.minimum(z, -1.0)


class ExactAmplitudes:
    """Adaptive partial-wave summation of S_perp, S_par at fixed (xi, R).

    The Mie coefficient arrays depend on xi only and are grown lazily, so
    one call over many cos(Theta) values computes them once.  Calls are
    vectorized over an array of cos(Theta) values.  This direct sum is the
    one implementation of the amplitudes: `interpolated_amplitudes` runs it
    at its Chebyshev nodes, and the tests use it as the oracle.

    Scale: each element is summed on one scale fixed before the ell loop,
    the WKB exponent 2x sin(Theta/2), so the returned mantissas are the
    WKB-normalised amplitudes S_p / e^{2x sin(Theta/2)}.  On z <= -1 every
    term has the sign of its sum, so no term exceeds |S_p| on this scale
    and nothing is rescaled during the sum; terms too small to register on
    it underflow to 0.

    Convergence is decided per element: an element is done once ell > x
    and its term has been below `TOL` times its running sum for three
    consecutive ell (Wiscombe, Appl. Opt. 19, 1505 (1980)).  Past the
    coefficient peak the terms decay faster than geometrically, so this
    bounds the tail near that level; at x = 300 and |z| ~ 1e4, summing on
    moves a converged element by up to 1.2e-12.  A sum that is still 0 has
    not converged.  Each element stops at its own third calm ell and
    leaves the batch, so its sum depends only on its own z and the shared
    coefficient arrays, not on the other elements or their order.

    Blocks: only the angular recurrence is stepped one ell at a time, into
    the rows of (ell-block x elements) arrays of about `BLOCK_ELEMENTS`
    entries over the elements still summed.  The terms, the running sums
    (a cumulative sum down the rows, which adds in ell order) and the
    stopping rule are then evaluated once per block; an element that stops
    in the block takes the running sum of its stopping row, as in a loop
    that takes one ell at a time, and is dropped before the next block.
    The rows past an element's stop cost some recurrence steps, not
    accuracy.
    """

    GROWTH = 2.0
    TOL = 1e-13

    def __init__(self, xi: float, R: float):
        if xi <= 0.0 or R <= 0.0:
            raise ValueError("ExactAmplitudes requires xi > 0 and R > 0")
        self.xi = xi
        self.R = R
        self.x = xi * R
        # grown by each call to what its largest |z| needs (see _sum)
        self._n_coeff = 0
        self._log_a = np.empty(0)
        self._ka = np.empty(0)
        self._kb = np.empty(0)

    def _extend(self, n: int) -> None:
        """Coefficients of the terms for ell = 1..n (see `_terms`)."""
        if n <= self._n_coeff:
            return
        sign_a, log_a, sign_b, log_b = _mie_ab_log_arrays(self.x, n)
        ell = np.arange(1.0, n + 1.0)
        c_ell = (2.0 * ell + 1.0) / (ell * (ell + 1.0))
        self._log_a = log_a
        self._ka = c_ell * sign_a
        # math.exp, the libm exponential, for every ell: numpy's vectorized
        # exp may round differently in the last bit
        self._kb = np.array([c * s * math.exp(d) for c, s, d in
                             zip(c_ell.tolist(), sign_b.tolist(), (log_b - log_a).tolist())])
        self._n_coeff = n

    def _cap_for(self, z_extreme: float) -> int:
        # dominant ell grows like x * sqrt((|z|+1)/2) (impact parameter)
        return int(3.0 * self.x * math.sqrt((abs(z_extreme) + 1.0) / 2.0)) + 4000

    def _terms(self, ell, rec, log_scale, pi, tau, t_perp, t_par, w) -> None:
        """Write the terms of orders ell, ell+1, ... into the rows of t_perp, t_par.

        Row r of pi and tau holds the angular functions of order ell + r on
        the recurrence's scale, one column per element of `rec`; w is work
        space.  term = w (ka pi + kb tau) and w (ka tau + kb pi), with
        w = |a_ell| q^(ell-1) / e^(log_scale), ka = c_ell sign(a_ell) and
        kb = c_ell b_ell/|a_ell|, c_ell = (2 ell + 1)/(ell (ell + 1)).
        """
        rows = pi.shape[0]
        index = slice(ell - 1, ell - 1 + rows)   # orders ell .. ell + rows - 1
        # (ell - 1) log q is rec.log_offset at each order
        np.multiply(np.arange(ell - 1.0, ell - 1.0 + rows)[:, None], rec.log_q, out=w)
        w -= log_scale
        w += self._log_a[index, None]
        np.exp(w, out=w)
        ka, kb = self._ka[index, None], self._kb[index, None]
        np.multiply(ka, pi, out=t_perp)
        t_perp += kb * tau
        t_perp *= w
        np.multiply(ka, tau, out=t_par)
        t_par += kb * pi
        t_par *= w

    def __call__(self, z: np.ndarray):
        """Scaled amplitudes at cos(Theta) = z (array, z <= -1).

        Returns
        -------
        (mant_perp, mant_par, log_scale) : arrays
            S_perp = mant_perp * exp(log_scale), same log for S_par;
            log_scale = 2x sin(Theta/2) = 2x sqrt((1 - z)/2).
        """
        z = _cos_theta(z)
        if z.size == 0:
            return tuple(np.empty_like(z) for _ in range(3))
        log_scale = 2.0 * self.x * np.sqrt(0.5 * (1.0 - z))
        return (*self._sum(z, log_scale), log_scale)

    def _sum(self, z, log_scale):
        """The sums (perp, par) at z."""
        cap = self._cap_for(float(z.min()))
        # Wiscombe-style start at the impact parameter w = x sin(Theta/2)
        # of the largest |z|, near which its terms peak; the sum of that
        # element ends by about w + 20 w^(1/3)
        w_max = 0.5 * float(log_scale.max())
        self._extend(min(cap, int(w_max + 20.0 * w_max ** (1.0 / 3.0) + 32)))
        rec = AngularRecurrence(z)
        sums = np.empty((2, z.size))       # final sums, filled as elements stop
        active = np.arange(z.size)         # the elements still summed
        running = np.zeros((2, z.size))    # their running sums after the last block
        # their calm flags (see below) of the last two orders
        settled = np.zeros((2, z.size), dtype=bool)
        ell = 1     # first order of the next block
        while True:
            m = active.size
            rows = max(1, min(BLOCK_ROWS, BLOCK_ELEMENTS // m, cap - ell + 1))
            last = ell + rows - 1
            if last > self._n_coeff:
                self._extend(min(cap, max(int(self._n_coeff * self.GROWTH), last + 64)))
            pi, pi_prev, tau, w, t_perp, t_par = (np.empty((rows, m)) for _ in range(6))
            for r in range(rows):
                if ell + r > rec.ell:
                    rec.advance(pi[r], pi_prev[r])
                else:   # order 1, held before the first step
                    pi[r] = rec.pi
                    pi_prev[r] = rec.pi_prev
            angular_tau(np.arange(ell, last + 1.0)[:, None], rec.z, pi, pi_prev, out=tau)
            self._terms(ell, rec, log_scale, pi, tau, t_perp, t_par, w)
            term = np.abs(t_perp, out=w)
            term += np.abs(t_par)
            t_perp[0] += running[0]
            t_par[0] += running[1]
            np.cumsum(t_perp, axis=0, out=t_perp)
            np.cumsum(t_par, axis=0, out=t_par)
            total = np.abs(t_perp, out=tau)
            total += np.abs(t_par)
            # calm: term < TOL * sum at an order > x (strict, so a sum that
            # is still 0 is never calm); the two rows carried from the last
            # block lead this block's rows
            settled = np.concatenate((settled, term < self.TOL * total))
            settled[2: 2 + max(0, math.floor(self.x) - ell + 1)] = False
            calm = settled[2:] & settled[1:-1] & settled[:-2]
            stop = calm.any(axis=0)
            at = calm.argmax(axis=0)[stop]
            sums[0, active[stop]] = t_perp[at, stop]
            sums[1, active[stop]] = t_par[at, stop]
            if stop.all():
                return sums
            if last >= cap:
                worst = math.inf
                if last > self.x:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = np.where(total[-1] > 0.0, term[-1] / total[-1], math.inf)
                    worst = float(np.max(ratio[~stop]))
                raise TruncationError(
                    f"partial-wave sum not converged by ell={last} (x={self.x})",
                    last,
                    worst,
                )
            running = np.array((t_perp[-1], t_par[-1]))
            settled = settled[-2:]
            if stop.any():
                keep = ~stop
                active, log_scale = active[keep], log_scale[keep]
                running, settled = running[:, keep], settled[:, keep]
                rec.keep(keep)
            ell = last + 1


def interpolated_amplitudes(xi: float, R: float, z: np.ndarray):
    """ExactAmplitudes(xi, R)(z), read off Chebyshev interpolants of the mantissas.

    The WKB-normalised mantissas are smooth in s = sin(Theta/2) =
    sqrt((1 - z)/2) >= 1 and tend to -/+ (x/2)(1 + s_p/R + ...) as x s
    grows (x = xi R).  The range of s is cut into fixed panels,
    [PANEL_RATIO^k, PANEL_RATIO^(k+1)] for k = 0, 1, ..., and the direct sum
    runs once over PANEL_NODES Chebyshev points in log s of every panel up
    to the one holding the largest s of the call; each z is then evaluated
    by Clenshaw's recurrence on its own panel.  The panels do not depend on
    the call, and a node's sum depends on its own z; only the coefficient
    sizing of the call's largest |z| rounds, so an amplitude does not
    depend on the other values in its call beyond that rounding.  The log
    scale is exact, and the mantissas agree with the direct sum to 1e-11
    relative over the ranges the solver samples (tests/test_mie.py).
    """
    z = _cos_theta(z)
    x = xi * R
    half = np.sqrt(0.5 * (1.0 - z))
    log_scale = 2.0 * x * half
    # panel coordinate: panel k holds k <= v < k + 1
    v = np.log(half)
    v /= math.log(PANEL_RATIO)
    panel = v.astype(np.intp)
    panels = int(panel.max(initial=-1)) + 1
    # Chebyshev points t_j = cos(pi j/(n-1)) of every panel, at v = k + (1 + t_j)/2
    n = PANEL_NODES
    nodes = np.arange(panels)[:, None] + 0.5 + 0.5 * np.cos(np.pi / (n - 1) * np.arange(n))
    s_nodes = PANEL_RATIO ** nodes.ravel()
    values = np.array(ExactAmplitudes(xi, R)(1.0 - 2.0 * s_nodes * s_nodes)[:2])
    values = values.reshape(2, panels, n)
    # Chebyshev coefficients per panel from the FFT of the even extension (DCT-I)
    coef = np.fft.rfft(np.concatenate((values, values[..., -2:0:-1]), axis=-1), axis=-1).real
    coef /= n - 1
    coef[..., [0, -1]] *= 0.5
    coef = np.ascontiguousarray(coef.transpose(2, 0, 1))   # coef[j][channel, panel]
    # Clenshaw: b_j = c_j + 2t b_{j+1} - b_{j+2}, both channels at once, with
    # c_j gathered for the panel of each z
    t = v - panel
    t *= 2.0
    t -= 1.0
    two_t = 2.0 * t
    b1, b2, tmp = (np.zeros((2, z.size)) for _ in range(3))
    for c in coef[:0:-1]:
        np.multiply(two_t, b1, out=tmp)
        np.subtract(tmp, b2, out=b2)
        b2 += c.take(panel, axis=1, out=tmp)
        b1, b2 = b2, b1
    b1 *= t
    b1 -= b2
    b1 += coef[0].take(panel, axis=1, out=tmp)
    return b1[0], b1[1], log_scale


def wkb_diffraction_s(xi, p_diff, h=None):
    """Diffraction corrections (s_perp, s_par) of the order-1/R WKB amplitude.

    s_perp = (1/2 xi) cos(Theta)/sin^3(Theta/2), s_par = -(1/2 xi)/sin^3(Theta/2),
    written with cos(Theta) = -(xi^2 + p_diff)/xi^2 and xi sin(Theta/2) =
    h = sqrt((2 xi^2 + p_diff)/2), p_diff = P - xi^2 >= 0 as in
    reflection._p_diff: s_perp = -(xi^2 + p_diff)/(2 h^3) and
    s_par = -xi^2/(2 h^3).  Both are strictly negative.  Vectorized over
    broadcastable (xi, p_diff); a caller that already has h passes it.
    """
    xi2 = xi * xi
    p_dot = xi2 + p_diff
    if h is None:
        h = np.sqrt(0.5 * (xi2 + p_dot))
    minus_inv2h3 = -0.5 / h**3
    return p_dot * minus_inv2h3, xi2 * minus_inv2h3
