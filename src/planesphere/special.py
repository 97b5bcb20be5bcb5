"""Numerically stable special functions for the Mie and asymptotics modules.

Everything that can grow or shrink exponentially is carried with an explicit
log scale; no raw floating-point overflow is permitted anywhere.  The WKB
exponent reaches ~2*xi*R*sin(Theta/2) which at desk scale (R/L ~ 10^3) is of
order 10^3-10^4, far outside double range, so plain `exp` is never applied
before the compensating translation factors have been subtracted in log
space.

Implementation notes
--------------------
* Modified Bessel functions of half-integer order are computed from the
  ratio I_{nu+1}/I_nu obtained by a continued fraction (evaluated with the
  modified Lentz algorithm) followed by stable downward propagation of the
  ratios, anchored at the closed form of I_{1/2}.  K is propagated upward
  through the ratio K_{nu+1}/K_nu, anchored at K_{1/2}.  Only logarithms of
  the (positive) values are stored.
* E1 uses the alternating series for u <= 1 and a continued fraction for
  u > 1 (both standard; cross-checked against each other in the tests).
* pi_ell/tau_ell use the Bohren-Huffman recurrences on one fixed scale per
  z: on the imaginary-frequency branch z <= -1 the functions grow like
  q^ell with q = |z| + sqrt(z^2-1), so the recurrence carries them divided
  by q^(ell-1), which stays within a low power of ell of 1 for every ell;
  no value is ever rescaled at run time.
"""
from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243


# ---------------------------------------------------------------------------
# modified Bessel functions of half-integer order, log-scaled
# ---------------------------------------------------------------------------

def _bessel_i_ratio(nu: float, x: float) -> float:
    """I_{nu+1}(x)/I_nu(x) via the continued fraction, modified Lentz.

    The fraction 1/r = 2(nu+1)/x + 1/(2(nu+2)/x + ...) converges for all
    x > 0; the ratio lies in (0, 1).  Iterates until a step changes the
    value by less than 1e-16 relative, for at most 10^5 terms.
    """
    tiny = 1e-300
    b = 2.0 * (nu + 1.0) / x
    f = b if b != 0.0 else tiny
    c = f
    d = 0.0
    for j in range(2, 100000):
        b = 2.0 * (nu + j) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise RuntimeError(f"Bessel ratio continued fraction failed for nu={nu}, x={x}")


def log_bessel_i_half(ell_max: int, x: float) -> np.ndarray:
    """log I_{ell+1/2}(x) for ell = 0..ell_max.

    Ratios are generated downward from the continued fraction at the top
    order (each step is a stable rational map) and anchored at
    I_{1/2} = sqrt(2/(pi x)) sinh x.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("bessel argument must be finite and positive")
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    # r[ell] = I_{ell+3/2}/I_{ell+1/2}, generated from ell_max down
    ratio = _bessel_i_ratio(ell_max + 0.5, x)
    r = [ratio]
    # 1/r_nu = 2(nu+1)/x + r_{nu+1}, nu = ell + 1/2, for ell = ell_max-1 .. 0
    for step in ((2.0 * np.arange(ell_max - 1.0, -1.0, -1.0) + 3.0) / x).tolist():
        ratio = 1.0 / (step + ratio)
        r.append(ratio)
    r = np.array(r[::-1])
    out = np.empty(ell_max + 1)
    # log I_{1/2} = log(sqrt(2/(pi x))) + x + log((1 - e^{-2x})/2)
    out[0] = 0.5 * math.log(2.0 / (math.pi * x)) + x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
    if ell_max > 0:
        # extended-precision accumulation: at ell ~ 1e5 a plain float64
        # cumsum loses ~1e-9 of the log, i.e. of the value itself
        steps = np.log(r[:-1]).astype(np.longdouble)
        out[1:] = (np.longdouble(out[0]) + np.cumsum(steps)).astype(float)
    return out


def log_bessel_k_half(ell_max: int, x: float) -> np.ndarray:
    """log K_{ell+1/2}(x) for ell = 0..ell_max (upward ratio recurrence)."""
    if not 0.0 < x < math.inf:
        raise ValueError("bessel argument must be finite and positive")
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    out = np.empty(ell_max + 1)
    out[0] = 0.5 * math.log(math.pi / (2.0 * x)) - x
    if ell_max == 0:
        return out
    # t_nu = K_{nu+1}/K_nu; t_{1/2} = 1 + 1/x; t_nu = 1/t_{nu-1} + 2 nu/x
    ratio = 1.0 + 1.0 / x
    ratios = [out[0], ratio]
    for step in (2.0 * (np.arange(2.0, ell_max + 1.0) - 0.5) / x).tolist():
        ratio = 1.0 / ratio + step
        ratios.append(ratio)
    # extended-precision accumulation of the logs, as for I above
    steps = np.array(ratios, dtype=np.longdouble)
    np.log(steps[1:], out=steps[1:])
    out[1:] = np.cumsum(steps)[1:].astype(float)
    return out


# ---------------------------------------------------------------------------
# exponential integral E1
# ---------------------------------------------------------------------------

def exp_integral_e1(u: float) -> float:
    """E1(u) = integral_u^inf e^{-t}/t dt, relative error <= 1e-12.

    Series for u <= 1, continued fraction (modified Lentz) for u > 1.
    """
    if not u > 0.0:
        raise ValueError("E1 requires u > 0")
    if u <= 1.0:
        # E1 = -gamma - ln u + sum_{n>=1} (-1)^{n+1} u^n / (n n!)
        total = -EULER_GAMMA - math.log(u)
        term = 1.0
        for n in range(1, 200):
            term *= u / n
            contrib = term / n if (n % 2 == 1) else -term / n
            total += contrib
            if abs(contrib) < 1e-17 * max(abs(total), 1e-300):
                break
        return total
    # even form of the continued fraction:
    # E1(u) = e^{-u} / (u + 1 - 1^2/(u + 3 - 2^2/(u + 5 - ...)))
    tiny = 1e-300
    b = u + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, 100000):
        a = -float(n) * n
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-u)
    raise RuntimeError(f"E1 continued fraction failed for u={u}")


# ---------------------------------------------------------------------------
# Mie angular functions pi_ell, tau_ell on the branch z <= -1
# ---------------------------------------------------------------------------

def angular_tau(ell, z, pi, pi_prev, out=None) -> np.ndarray:
    """tau_ell = ell z pi_ell - (ell + 1) pi_{ell-1}, on the scale of pi and pi_prev.

    ell, pi and pi_prev broadcast against z: `AngularRecurrence.tau` passes
    one order, the partial-wave sum a column of orders against rows of pi.
    """
    lower = np.multiply(ell + 1, pi_prev)
    out = np.multiply(ell, z, out=out)
    out *= pi
    out -= lower
    return out


class AngularRecurrence:
    """Incremental, vectorized evaluation of pi_ell(z), tau_ell(z), z <= -1.

    The recurrences are
        pi_ell = ((2 ell - 1) z pi_{ell-1} - ell pi_{ell-2}) / (ell - 1),
        tau_ell = ell z pi_ell - (ell + 1) pi_{ell-1},
    with pi_0 = 0, pi_1 = 1; each `advance` takes one step in ell, and tau
    is derived from the pi it holds (`angular_tau`).

    The scale is fixed before the first step: `pi`, `pi_prev` and `tau`
    hold pi_ell / q^(ell-1), pi_{ell-1} / q^(ell-1) and tau_ell / q^(ell-1),
    with q = |z| + sqrt(z^2-1) the growth factor of the recurrence, and
    `log_offset` = (ell-1) log q restores them.  The held values neither
    overflow nor underflow at any ell, so `advance` is the bare recurrence.
    z itself enters unrounded and 1/q is applied as a factor of its own:
    folding z/q into one rounded coefficient would perturb z, which pi_ell
    near z = -1 amplifies ~ell^2.  Used as the inner loop of the exact
    partial-wave sums, where z is an array over quadrature nodes.
    `advance` writes the new pi and pi_prev into arrays the caller gives
    (the partial-wave sum passes the rows of its (ell-block x elements)
    arrays) or else into the two arrays it holds, and allocates nothing.
    The elements are independent of one another: `keep` stops carrying
    those outside a mask (the sum drops elements as they converge) while
    the rest continue unchanged, and `z` is always the array of the
    elements still carried.
    """

    def __init__(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        if not (np.all(np.isfinite(z)) and np.all(z <= -1.0)):
            raise ValueError("angular functions require finite z <= -1")
        self.z = z
        self.ell = 1
        # log q is taken of the rounded 1/q that the steps apply, so the
        # scale restores exactly what the recurrence divided out
        self.inv_q = 1.0 / (-z + np.sqrt((-z - 1.0) * (1.0 - z)))
        self.log_q = -np.log(self.inv_q)
        self.pi_prev = np.zeros_like(z)   # pi_0
        self.pi = np.ones_like(z)         # pi_1
        self._lower = np.empty_like(z)

    @property
    def log_offset(self) -> np.ndarray:
        """log of the factor q^(ell-1) divided out of pi, pi_prev and tau."""
        return (self.ell - 1) * self.log_q

    @property
    def tau(self) -> np.ndarray:
        """tau_ell / q^(ell-1), from the held pi and pi_prev."""
        return angular_tau(self.ell, self.z, self.pi, self.pi_prev)

    def keep(self, mask: np.ndarray) -> None:
        """Carry on only the elements where mask is True, in their order."""
        self.z = self.z[mask]
        self.inv_q = self.inv_q[mask]
        self.log_q = self.log_q[mask]
        self.pi_prev = self.pi_prev[mask]
        self.pi = self.pi[mask]
        self._lower = self._lower[mask]

    def advance(self, pi=None, pi_prev=None) -> None:
        """Step to the next order, writing its pi and pi_prev into the arrays given.

        Arrays the caller gives must be distinct from those the recurrence
        holds, which are then only read; by default the step overwrites
        the held arrays.
        """
        ell = self.ell + 1
        lower = np.multiply(self.pi_prev, self.inv_q, out=self._lower)
        if pi is None:
            pi, pi_prev = self.pi_prev, self.pi
        # both held values onto the new scale, then
        # pi = ((2 ell - 1) z pi_cur - ell pi_prev) / (ell - 1)
        np.multiply(self.pi, self.inv_q, out=pi_prev)
        np.multiply(2 * ell - 1, self.z, out=pi)
        pi *= pi_prev
        lower *= ell
        pi -= lower
        pi /= ell - 1
        self.pi, self.pi_prev = pi, pi_prev
        self.ell = ell
