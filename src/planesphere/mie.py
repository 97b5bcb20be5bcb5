"""Sphere scattering amplitudes S_perp, S_par at imaginary frequency.

Exact partial-wave sums for a perfectly reflecting sphere and the 1/R
diffraction correction of their WKB (geometric-optics) limit.  Everything is
vectorized: `_mie_ab_log_arrays` gives the Mie coefficients for all ell as
signs and logs, `ExactAmplitudes` sums them over an array of cos(Theta)
values and returns mantissas on one log scale, and `wkb_diffraction_s`
gives the corrections s_p from which reflection._amplitudes builds the wkb1
kernel.  All exponentially large factors are tracked in log scale.

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

from .special import AngularRecurrence, log_bessel_i_half, log_bessel_k_half

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


class ExactAmplitudes:
    """Adaptive partial-wave summation of S_perp, S_par at fixed (xi, R).

    The Mie coefficient arrays depend on xi only and are grown lazily, so
    one call over many cos(Theta) values of a frequency (the solver's hot
    loop makes one per chunk of radial pairs) computes them once.  Calls
    are vectorized over an array of cos(Theta) values.

    Scale: each element is summed on one scale fixed before the ell loop,
    the WKB exponent 2x sin(Theta/2), so the returned mantissas are the
    WKB-normalised amplitudes S_p / e^{2x sin(Theta/2)}.  On z <= -1 every
    term has the sign of its sum, so no term exceeds |S_p| on this scale
    and nothing is rescaled during the sum; terms too small to register on
    it underflow to 0.

    Convergence is decided per element: an element is done once ell > x
    and its term has been below `TOL` times its running sum for three
    consecutive ell.  Past the coefficient peak the terms decay faster than
    geometrically, so this bounds the tail near that level; at x = 300 and
    |z| ~ 1e4, summing on moves a converged element by up to 1.2e-12.  A
    sum that is still 0 has not converged.  The ell an element needs grows
    with |z|, so the elements are summed in order of ascending |z| and
    those still being summed are a suffix: after every ell the suffix
    starts past the leading run of converged elements, and the sum ends
    when it is empty.  An element behind an unconverged one is summed on
    and must still be converged when the suffix start reaches it.
    """

    GROWTH = 2.0
    TOL = 1e-13

    def __init__(self, xi: float, R: float):
        if xi <= 0.0 or R <= 0.0:
            raise ValueError("ExactAmplitudes requires xi > 0 and R > 0")
        self.xi = xi
        self.R = R
        self.x = xi * R
        # Wiscombe-style start; the cap grows with the largest |z| requested
        self._n_coeff = 0
        self._sign_a = np.empty(0)
        self._log_a = np.empty(0)
        self._sign_b = np.empty(0)
        self._log_b = np.empty(0)
        self._extend(int(self.x + 10.0 * self.x ** (1.0 / 3.0) + 32))

    def _extend(self, n: int) -> None:
        if n <= self._n_coeff:
            return
        sa, la, sb, lb = _mie_ab_log_arrays(self.x, n)
        self._sign_a, self._log_a = sa, la
        self._sign_b, self._log_b = sb, lb
        self._n_coeff = n

    def _cap_for(self, z_extreme: float) -> int:
        # dominant ell grows like x * sqrt((|z|+1)/2) (impact parameter)
        return int(3.0 * self.x * math.sqrt((abs(z_extreme) + 1.0) / 2.0)) + 4000

    def _terms(self, ell, rec, log_scale, t_perp, t_par, w, tmp) -> None:
        """Write the terms of order ell into t_perp and t_par (w, tmp: work space).

        term = w (ka pi + kb tau) and w (ka tau + kb pi), with
        w = |a_ell| q^(ell-1) / e^(log_scale) and kb/ka = b_ell/a_ell.
        """
        c_ell = (2.0 * ell + 1.0) / (ell * (ell + 1.0))
        log_a = self._log_a[ell - 1]
        ka = c_ell * self._sign_a[ell - 1]
        kb = c_ell * self._sign_b[ell - 1] * math.exp(self._log_b[ell - 1] - log_a)
        np.multiply(rec.ell - 1, rec.log_q, out=w)   # rec.log_offset
        w -= log_scale
        w += log_a
        np.exp(w, out=w)
        np.multiply(ka, rec.pi, out=t_perp)
        t_perp += np.multiply(kb, rec.tau, out=tmp)
        t_perp *= w
        np.multiply(ka, rec.tau, out=t_par)
        t_par += np.multiply(kb, rec.pi, out=tmp)
        t_par *= w

    def __call__(self, z: np.ndarray):
        """Scaled amplitudes at cos(Theta) = z (array, z <= -1).

        Returns
        -------
        (mant_perp, mant_par, log_scale) : arrays
            S_perp = mant_perp * exp(log_scale), same log for S_par;
            log_scale = 2x sin(Theta/2) = 2x sqrt((1 - z)/2).
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if np.any(z > -1.0 + 1e-9):
            raise ValueError("amplitudes require cos(Theta) <= -1")
        # |z| ascending (z descending); the caller's order is restored below
        order = np.argsort(-z, kind="stable")
        z = z[order]
        np.minimum(z, -1.0, out=z)  # clip roundoff from the kinematic bound
        log_scale = 2.0 * self.x * np.sqrt(0.5 * (1.0 - z))
        sums = self._sum(z, log_scale)
        out = tuple(np.empty_like(z) for _ in range(3))
        for dest, values in zip(out, (*sums, log_scale)):
            dest[order] = values
        return out

    def _sum(self, z, log_scale):
        """The sums (perp, par) at z sorted by ascending |z|."""
        cap = self._cap_for(float(z[-1]))
        rec = AngularRecurrence(z)
        # the loop works in place on slices of these, allocated once; one
        # array per row rather than a 2-D block, which measured more
        # resident memory after the call
        acc = [np.zeros_like(z) for _ in range(2)]
        work = [np.empty_like(z) for _ in range(4)]
        calm = np.zeros(z.size, dtype=np.int8)   # consecutive calm ell, up to 3
        flags = np.empty(z.size, dtype=bool)
        start = 0   # elements before start have converged and are dropped
        ell = 1
        while True:
            if ell > self._n_coeff:
                self._extend(min(cap, max(int(self._n_coeff * self.GROWTH), ell + 64)))
            sum_perp, sum_par = (a[start:] for a in acc)
            t_perp, t_par, w, tmp = (a[start:] for a in work)
            self._terms(ell, rec, log_scale[start:], t_perp, t_par, w, tmp)
            sum_perp += t_perp
            sum_par += t_par
            if ell > self.x:
                term = np.abs(t_perp, out=t_perp)
                term += np.abs(t_par, out=t_par)
                total = np.abs(sum_perp, out=w)
                total += np.abs(sum_par, out=tmp)
                # strict: a sum that is still 0 is never calm
                settled = np.less(term, np.multiply(self.TOL, total, out=tmp),
                                  out=flags[start:])
                held = calm[start:]
                held += 1
                held *= settled
                np.minimum(held, 3, out=held)
                live = np.less(held, 3, out=settled)
                if not live.any():
                    return acc
                done = int(live.argmax())
                start += done
                rec.drop_front(done)
            if ell >= cap:
                worst = math.inf
                if ell > self.x:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = np.where(total > 0.0, term / total, math.inf)
                    worst = float(np.max(ratio[live]))
                raise TruncationError(
                    f"partial-wave sum not converged by ell={ell} (x={self.x})",
                    ell,
                    worst,
                )
            rec.advance()
            ell += 1


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
