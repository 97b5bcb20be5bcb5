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
1e-11 relative for x sin(Theta/2) up to ~2.5e3, the range the tests
check, which is the level of the direct sum's own rounding there; that
rounding grows with x sin(Theta/2), to ~2.5e-10 at 7.8e4, which R/L = 800
reaches.  exact-mie energies move by ~1e-15.  `ExactAmplitudes` stays the
one implementation of the sum, and the oracle of the tests.  Each element
of the sum stops on its own, and the Mie coefficients of an order do not
depend on how many orders a call sizes them for, so an element's value
depends, bit for bit, on its own cos(Theta) and not on the rest of its
call.

One ell loop per energy.  The panel nodes do not depend on xi or R, and
neither do pi_ell, tau_ell of a node, so `panel_tables` sums the nodes of
every xi node of an energy in one loop over ell: one angular recurrence
over the union of the nodes, and per xi its own coefficients, terms,
running sums and stops.  A table holds the Chebyshev coefficients of its
xi node's interpolants, transformed once.  The solver builds the tables
of the xi nodes a process solves (all of them, or a pool worker's own)
before its xi loop and puts them in use with `interpolation_tables`;
every sampling chunk of a xi node then reads its amplitudes off the
node's one table.
A call that no table covers (the trace oracles, direct callers) sums its
own nodes.

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
from contextlib import contextmanager

import numpy as np

from .special import AngularRecurrence, angular_tau, log_bessel_i_half, log_bessel_k_half

LOG_HALF_PI = math.log(math.pi / 2.0)


class TruncationError(RuntimeError):
    """Partial-wave sum failed to converge by the last order of its coefficients."""

    def __init__(self, message: str, ell_reached: int, worst_rel: float):
        super().__init__(message)
        self.ell_reached = ell_reached
        self.worst_rel = worst_rel


def _mie_ab_log_arrays(x: float, ell_max: int):
    """(sign_a, log|a|, sign_b, log|b|) for ell = 1..ell_max at x = xi*R/c."""
    if not 0.0 < x < math.inf:
        raise ValueError("size parameter x must be finite and positive")
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
BLOCK_ROWS = 128
BLOCK_ELEMENTS = 1 << 12
# an element joins the sum at the first order whose weight exponent reaches
# this; exp underflows to exactly 0 below -745.2, so the orders skipped add
# exact zeros (the margin covers the rounding of the exponent)
LOG_UNDERFLOW = -800.0
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

    The Mie coefficient arrays depend on xi only.  Each call sizes them
    once, before its ell loop, for its largest |z| (`_size`), so one call
    over many cos(Theta) values computes them once; a later call that needs
    more recomputes them.  Calls are vectorized over an array of cos(Theta)
    values.  This direct sum is the one implementation of the amplitudes:
    `panel_tables` and `interpolated_amplitudes` run it at their Chebyshev
    nodes, and the tests use it as the oracle.

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
    stopping rule are then evaluated once per block (`_Batch.step`); an
    element that stops in the block takes the running sum of its stopping
    row, as in a loop that takes one ell at a time, and is dropped before
    the next block.  The rows past an element's stop cost some recurrence
    steps, not accuracy.  An element joins the sum only in the block of its
    first order (`_first_orders`): before it, its weights underflow to 0
    and its terms are exact zeros.  pi_ell and tau_ell depend on z alone,
    so several batches, each with its own coefficients, can share one
    recurrence over the union of their z (`_sum_batches`); a call is the
    case of one batch.
    """

    TOL = 1e-13

    def __init__(self, xi: float, R: float):
        if not (0.0 < xi < math.inf and 0.0 < R < math.inf):
            raise ValueError("ExactAmplitudes requires finite xi > 0 and R > 0")
        self.xi = xi
        self.R = R
        self.x = xi * R
        # sized by each call to what its largest |z| needs (see _size)
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
        self._kb = c_ell * sign_b * np.array(list(map(math.exp, (log_b - log_a).tolist())))
        self._n_coeff = n

    def _size(self, log_scale) -> int:
        """Coefficients for elements of these log scales, before the ell loop; returns the limit.

        An element's terms peak near its impact parameter w = x
        sin(Theta/2) = log_scale/2 and its sum ends past it: within ~20
        w^(1/3) near sin(Theta/2) = 1, where they fall off over the Airy
        width, and within sqrt(w ln(1/TOL)) at large sin(Theta/2), where
        they fall like e^{-(ell - w)^2/w}.  The coefficients are sized for
        the largest w of the elements, and the sum stops at their last
        order; an element not converged by then raises TruncationError.
        """
        w_max = 0.5 * float(log_scale.max())
        width = max(20.0 * w_max ** (1.0 / 3.0), math.sqrt(w_max * math.log(1.0 / self.TOL)))
        self._extend(int(w_max + width + 32))
        return self._n_coeff

    def _first_orders(self, log_q, log_scale) -> np.ndarray:
        """Per element, the first order whose term can be nonzero (see LOG_UNDERFLOW).

        The weight exponent (ell - 1) log q - log_scale + log|a_ell| of
        `_terms` is concave in ell (the increments of log|a_ell| fall), so
        it stays below LOG_UNDERFLOW before the first order that reaches it,
        and there the weight underflows to exactly 0: the element's terms
        and running sums are zeros, which the sum may skip without changing
        a bit.  The order is found by bisection below the impact parameter
        w = log_scale/2; an element whose exponent does not reach
        LOG_UNDERFLOW by then starts at ell = 1.
        """
        def exponent(ell, log_q, log_scale):
            return (ell - 1.0) * log_q - log_scale + self._log_a[ell - 1]

        first = np.ones(log_q.size, dtype=np.intp)
        hi = np.clip(np.rint(0.5 * log_scale), 1, self._n_coeff).astype(np.intp)
        late = ((exponent(first, log_q, log_scale) < LOG_UNDERFLOW)
                & (exponent(hi, log_q, log_scale) >= LOG_UNDERFLOW))
        lo, hi, log_q, log_scale = first[late], hi[late], log_q[late], log_scale[late]
        while np.any(hi - lo > 1):   # exponent(lo) < LOG_UNDERFLOW <= exponent(hi)
            mid = (lo + hi) // 2
            up = exponent(mid, log_q, log_scale) >= LOG_UNDERFLOW
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        first[late] = hi
        return first

    def _log_scale(self, z):
        """The scale of the mantissas, 2x sin(Theta/2) = 2x sqrt((1 - z)/2)."""
        return 2.0 * self.x * np.sqrt(0.5 * (1.0 - z))

    def _terms(self, ell, rec, log_scale, pi, tau, t_perp, t_par, w) -> None:
        """Write the terms of orders ell, ell+1, ... into the rows of t_perp, t_par.

        Row r of pi and tau holds the angular functions of order ell + r on
        the recurrence's scale, one column per element of `rec` (a `_Batch`,
        whose z and log_q are those of the columns); w is work space.
        term = w (ka pi + kb tau) and w (ka tau + kb pi), with
        w = |a_ell| q^(ell-1) / e^(log_scale), ka = c_ell sign(a_ell) and
        kb = c_ell b_ell/|a_ell|, c_ell = (2 ell + 1)/(ell (ell + 1)).
        """
        rows = pi.shape[0]
        index = slice(ell - 1, ell - 1 + rows)   # orders ell .. ell + rows - 1
        # (ell - 1) log q is the recurrence's log_offset at each order
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
        (sums,) = _sum_batches([(self, z.size)], z)
        return sums[0], sums[1], self._log_scale(z)


class _Batch:
    """The elements of one sum of an `ExactAmplitudes`, between ell-blocks.

    A batch sums the elements z (cos(Theta), with log_q the recurrence's)
    up to its `limit`, the last order of the coefficients that `_size`
    fits to them.  An element waits until the block that reaches its first
    order (see `ExactAmplitudes._first_orders`, never past the limit) and
    is summed from then on until it stops.  z, log_q, log_scale, the
    running sums and the calm flags are those of the summed elements, in
    the order they joined; `active` holds their places in `sums` (filled
    as they stop), and `cols` the column of each element in the
    recurrence (stale once it has stopped).
    """

    def __init__(self, amps: ExactAmplitudes, z, log_q):
        self.amps = amps
        log_scale = amps._log_scale(z)
        self.limit = amps._size(log_scale)
        self._z, self._log_q, self._log_scale = z, log_q, log_scale
        self._first = amps._first_orders(log_q, log_scale)
        self.waiting = np.argsort(self._first, kind="stable")
        self.cols = np.arange(z.size)
        self.sums = np.empty((2, z.size))
        self.active = np.empty(0, dtype=np.intp)
        self.z = self.log_q = self.log_scale = np.empty(0)
        self.running = np.zeros((2, 0))   # running sums after the last block
        self.settled = np.zeros((2, 0), dtype=bool)   # calm flags (see step) of the last two orders

    def start(self, ell: int) -> None:
        """Sum from now on the waiting elements whose first order is below ell."""
        n = np.searchsorted(self._first[self.waiting], ell)
        if n == 0:
            return
        new, self.waiting = self.waiting[:n], self.waiting[n:]
        self.active = np.concatenate((self.active, new))
        self.z = np.concatenate((self.z, self._z[new]))
        self.log_q = np.concatenate((self.log_q, self._log_q[new]))
        self.log_scale = np.concatenate((self.log_scale, self._log_scale[new]))
        self.running = np.concatenate((self.running, np.zeros((2, n))), axis=1)
        self.settled = np.concatenate((self.settled, np.zeros((2, n), dtype=bool)), axis=1)

    def step(self, ell, pi, pi_prev) -> bool:
        """Sum the orders ell, ell+1, ... in the rows of pi, pi_prev; True once all have stopped."""
        amps = self.amps
        rows, m = pi.shape
        last = ell + rows - 1
        tau, w, t_perp, t_par = (np.empty((rows, m)) for _ in range(4))
        angular_tau(np.arange(ell, last + 1.0)[:, None], self.z, pi, pi_prev, out=tau)
        amps._terms(ell, self, self.log_scale, pi, tau, t_perp, t_par, w)
        term = np.abs(t_perp, out=w)
        term += np.abs(t_par)
        t_perp[0] += self.running[0]
        t_par[0] += self.running[1]
        np.cumsum(t_perp, axis=0, out=t_perp)
        np.cumsum(t_par, axis=0, out=t_par)
        total = np.abs(t_perp, out=tau)
        total += np.abs(t_par)
        # calm: term < TOL * sum at an order > x (strict, so a sum that is
        # still 0 is never calm); the two rows carried from the last block
        # lead this block's rows
        settled = np.concatenate((self.settled, term < amps.TOL * total))
        settled[2: 2 + max(0, math.floor(amps.x) - ell + 1)] = False
        calm = settled[2:] & settled[1:-1] & settled[:-2]
        stop = calm.any(axis=0)
        at = calm.argmax(axis=0)[stop]
        self.sums[0, self.active[stop]] = t_perp[at, stop]
        self.sums[1, self.active[stop]] = t_par[at, stop]
        if stop.all() and self.waiting.size == 0:
            return True
        if last >= self.limit:
            worst = math.inf
            if last > amps.x:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(total[-1] > 0.0, term[-1] / total[-1], math.inf)
                worst = float(np.max(ratio[~stop]))
            raise TruncationError(
                f"partial-wave sum not converged by ell={last} (x={amps.x})",
                last,
                worst,
            )
        self.running = np.array((t_perp[-1], t_par[-1]))
        self.settled = settled[-2:]
        if stop.any():
            keep = ~stop
            self.z, self.log_q = self.z[keep], self.log_q[keep]
            self.log_scale, self.active = self.log_scale[keep], self.active[keep]
            self.running, self.settled = self.running[:, keep], self.settled[:, keep]
        return False


def _sum_batches(parts: list[tuple[ExactAmplitudes, int]], z: np.ndarray) -> list[np.ndarray]:
    """The sums (perp, par) of each part (amps, count) over z[:count], from one recurrence over z.

    Every partial-wave sum is set up here: each part becomes a `_Batch` of
    its own ExactAmplitudes, with its own coefficients and limit.  The
    recurrence steps one ell at a time into the rows of (ell-block x
    elements) arrays; each batch takes the rows of the columns it sums
    and evaluates its block (`_Batch.step`).  A batch's block spans no
    more than about BLOCK_ELEMENTS entries and the recurrence's no more
    than 4 BLOCK_ELEMENTS, and an element of z leaves the recurrence once
    every batch that sums it has stopped it.  Returns one (2, count) array
    per part, in their order.
    """
    rec = AngularRecurrence(z)
    batches = [_Batch(amps, z[:count], rec.log_q[:count]) for amps, count in parts]
    sums = [batch.sums for batch in batches]
    ell = 1     # first order of the next block
    while batches:
        m = rec.z.size
        for batch in batches:
            batch.start(ell + BLOCK_ROWS)
        widest = max(max(batch.active.size for batch in batches), 1)
        rows = max(1, min(BLOCK_ROWS, BLOCK_ELEMENTS // widest, 4 * BLOCK_ELEMENTS // m,
                          min(batch.limit for batch in batches) - ell + 1))
        pi, pi_prev = np.empty((rows, m)), np.empty((rows, m))
        for r in range(rows):
            if ell + r > rec.ell:
                rec.advance(pi[r], pi_prev[r])
            else:   # order 1, held before the first step
                pi[r] = rec.pi
                pi_prev[r] = rec.pi_prev
        left, dropped = [], False
        for batch in batches:
            active = batch.active.size
            if active:
                cols = batch.cols[batch.active]
                done = batch.step(ell, pi.take(cols, axis=1), pi_prev.take(cols, axis=1))
            else:   # every element still waits
                done = False
            if not done:
                left.append(batch)
            dropped = dropped or done or batch.active.size < active
        batches = left
        if dropped and batches:
            needed = np.zeros(m, dtype=bool)
            for batch in batches:
                needed[batch.cols[batch.active]] = True
                needed[batch.cols[batch.waiting]] = True
            if not needed.all():
                rec.keep(needed)
                # the columns of stopped elements are stale and never read
                batch_cols = np.cumsum(needed) - 1
                for batch in batches:
                    batch.cols = batch_cols[batch.cols]
        ell += rows
    return sums


# the Chebyshev tables of interpolated_amplitudes in use, by (xi, R) (see interpolation_tables)
_TABLES: dict[tuple[float, float], np.ndarray] = {}


def _panel_coordinate(z):
    """(sin(Theta/2), v, panel) at cos(Theta) = z: v = log sin(Theta/2) / log PANEL_RATIO.

    Panel k holds k <= v < k + 1.
    """
    half = np.sqrt(0.5 * (1.0 - z))
    v = np.log(half)
    v /= math.log(PANEL_RATIO)
    return half, v, v.astype(np.intp)


def _panel_nodes(panels: int) -> np.ndarray:
    """cos(Theta) at the Chebyshev nodes of panels 0 .. panels-1, panel by panel.

    Panel k has PANEL_NODES points t_j = cos(pi j/(n-1)) at v = k + (1 + t_j)/2,
    so the nodes of fewer panels are a leading part of these.
    """
    n = PANEL_NODES
    nodes = np.arange(panels)[:, None] + 0.5 + 0.5 * np.cos(np.pi / (n - 1) * np.arange(n))
    s_nodes = PANEL_RATIO ** nodes.ravel()
    return 1.0 - 2.0 * s_nodes * s_nodes


def _chebyshev_table(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients table[j][channel, panel] from the node values (2, panels * n)."""
    n = PANEL_NODES
    values = values.reshape(2, -1, n)
    # per panel from the FFT of the even extension (DCT-I)
    coef = np.fft.rfft(np.concatenate((values, values[..., -2:0:-1]), axis=-1), axis=-1).real
    coef /= n - 1
    coef[..., [0, -1]] *= 0.5
    return np.ascontiguousarray(coef.transpose(2, 0, 1))


def panel_tables(R: float, samples: dict) -> dict:
    """The tables of `interpolated_amplitudes` for several xi at one R, from one ell loop.

    A table holds the Chebyshev coefficients (`_chebyshev_table`) of the
    mantissas (perp, par) of the direct sum at the panel nodes
    (`_panel_nodes`), transformed once here.  samples maps each xi to the
    cos(Theta) values its calls will reach (or to the most negative of
    them); its table spans the panels up to the one holding the largest
    sin(Theta/2), and a xi without samples gets none.
    The panel nodes are the same for every xi, so `_sum_batches` sums all
    of them over one angular recurrence, the nodes of each xi as a batch of
    its own ExactAmplitudes(xi, R): a node's value is bit for bit that of
    any call of interpolated_amplitudes that sums it.  Returns
    {(xi, R): table} for `interpolation_tables`.
    """
    panels = {}
    for xi, z in samples.items():
        z = _cos_theta(z)
        if z.size:
            panels[xi] = int(_panel_coordinate(z)[2].max()) + 1
    if not panels:
        return {}
    z = _panel_nodes(max(panels.values()))
    sums = _sum_batches([(ExactAmplitudes(xi, R), count * PANEL_NODES)
                         for xi, count in panels.items()], z)
    return {(xi, R): _chebyshev_table(values) for xi, values in zip(panels, sums)}


@contextmanager
def interpolation_tables(tables: dict):
    """Let interpolated_amplitudes read the tables of `panel_tables` inside the block.

    The tables in use are those of the process, keyed by (xi, R); these
    are removed on leaving the block, by return or raise.
    """
    _TABLES.update(tables)
    try:
        yield
    finally:
        for key in tables:
            _TABLES.pop(key, None)


def interpolated_amplitudes(xi: float, R: float, z: np.ndarray):
    """ExactAmplitudes(xi, R)(z), read off Chebyshev interpolants of the mantissas.

    The WKB-normalised mantissas are smooth in s = sin(Theta/2) =
    sqrt((1 - z)/2) >= 1 and tend to -/+ (x/2)(1 + s_p/R + ...) as x s
    grows (x = xi R).  The range of s is cut into fixed panels,
    [PANEL_RATIO^k, PANEL_RATIO^(k+1)] for k = 0, 1, ..., and the direct sum
    runs over PANEL_NODES Chebyshev points in log s of every panel; each z
    is evaluated by Clenshaw's recurrence on its own panel.  The
    coefficients come from the (xi, R) table of `interpolation_tables` when
    one is in use and reaches the panel of the largest s of the call;
    otherwise the call sums the nodes of the panels up to that one itself
    and transforms them.  The panels do not depend on the call, a node's
    sum depends on its own z, and the Mie coefficients do not depend on
    their sizing, which the top panel sets, so an amplitude does not depend
    on the other values in its call, bit for bit.  The log scale is exact,
    and the mantissas agree with the direct sum to 1e-11 relative for x
    sin(Theta/2) up to ~2.5e3, the range tests/test_mie.py checks; at 7.8e4
    they differ by up to 2.5e-10, the direct sum's own rounding there.
    """
    z = _cos_theta(z)
    x = xi * R
    half, v, panel = _panel_coordinate(z)
    log_scale = 2.0 * x * half
    panels = int(panel.max(initial=-1)) + 1
    coef = _TABLES.get((xi, R))
    if coef is None or coef.shape[2] < panels:
        coef = _chebyshev_table(np.array(ExactAmplitudes(xi, R)(_panel_nodes(panels))[:2]))
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
