"""Matrix exponentials, exact covariance steps, time grids, reproducible noise.

Everything here is deterministic: ``mat_expm`` (``scipy.linalg.expm``
behind input guards) and the closed-form ``stable_expm2`` are the general
matrix exponentials, ``ou_increment`` steps a linear SDE's covariance
exactly over a given interval (its Van Loan blocks have bounded norm by
construction, so it takes one stacked Pade [7/7] step of its own, with no
scipy call, no squaring and no value check), ``geometric_times`` builds
explicit step schedules (no error-adaptive control), and the random
stream is counter-based, so a (seed, position) pair always yields the
same draw on every platform.

Stacks: ``mat_expm`` and ``ou_increment`` take a (..., n, n) stack of
matrices as well as one matrix, and treat each matrix of the stack
exactly as a call on that matrix alone would, bit for bit (a stacked
``ou_increment`` also takes one ``dt`` per matrix).  One call on a stack
replaces a Python loop of calls; ``mat_expm`` still loops over the stack
inside scipy, ``ou_increment`` does not.

Random numbers
--------------
``RngStream`` implements splitmix64: output ``j`` of stream ``s0`` is
``finalize(s0 + (j + 1) * GAMMA)`` with the standard finalizer constants.
Standard normals use Box-Muller on consecutive outputs; normal draw ``i``
consumes uint64 outputs ``2i`` and ``2i + 1``:

    u1 = (out[2i]   >> 11 + 1) * 2**-53   in (0, 1]
    u2 = (out[2i+1] >> 11)     * 2**-53   in [0, 1)
    z  = sqrt(-2 ln u1) * cos(2 pi u2)

Sub-streams: stream ``k`` of base seed ``s`` is the stream of the derived
seed ``finalize(s) XOR k`` (the base seed is finalized first so that
nearby integer seeds do not share key sets under the XOR).  Each Monte
Carlo trial owns one sub-stream, which makes ensembles independent of
batch splitting and worker count.

One kernel generates every draw, for ``RngStream`` and ``trial_normals``
alike: it works in cache-sized tiles of about ``_BLOCK_NORMALS`` normals
(a few streams at a time, or a stretch of positions of one long stream),
with in-place integer and float operations into a preallocated output.
Every draw is a pure function of its (stream, position), so the tiling
changes speed only: the bits are those of the formula above.  The plain
formula itself lives in the tests (``tests/rng_reference.py``), which
check the kernel against it bit for bit.
"""

from __future__ import annotations

import math
from array import array

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DimensionError, DivergenceError

# splitmix64 constants (Steele, Lea & Flood 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
_TWO53 = float(1 << 53)
_TWO_PI = 2.0 * np.pi
_BLOCK_NORMALS = 16384  # normals per generated tile (256 KB of uint64 outputs)


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer applied in place to uint64 ``x`` (wraps mod 2**64)."""
    with np.errstate(over="ignore"):
        np.right_shift(x, _U64(30), out=tmp)
        x ^= tmp
        x *= _U64(_MIX1)
        np.right_shift(x, _U64(27), out=tmp)
        x ^= tmp
        x *= _U64(_MIX2)
        np.right_shift(x, _U64(31), out=tmp)
        x ^= tmp


def _mix64(x) -> np.ndarray:
    """splitmix64 finalizer on a copy of uint64 ``x`` (wraps mod 2**64)."""
    x = np.array(x, dtype=_U64)
    _mix64_inplace(x, np.empty_like(x))
    return x


def _stream_normals(states: np.ndarray, start: int, n: int) -> np.ndarray:
    """Row k = normals [start, start+n) of the stream with state ``states[k]``.

    Works in tiles of about ``_BLOCK_NORMALS`` draws: a tile is a few rows
    of at most ``_BLOCK_NORMALS`` positions, so a single long stream is cut
    along its positions and many short ones are grouped by rows.  The even
    (u1) and odd (u2) outputs of a tile are laid out as two planes of
    contiguous rows, so every operation runs in place.
    """
    out = np.empty((len(states), n))
    if out.size == 0:
        return out
    width = min(n, _BLOCK_NORMALS)
    with np.errstate(over="ignore"):
        ctr = np.arange(2 * start + 1, 2 * (start + width) + 1, dtype=_U64)
        ctr *= _U64(_GAMMA)
    ctr = np.ascontiguousarray(ctr.reshape(width, 2).T)[:, None, :]   # (2, 1, width): u1, u2 planes
    advance = _U64(2 * width * _GAMMA & 0xFFFFFFFFFFFFFFFF)          # counter step per tile, mod 2**64
    rows = max(1, _BLOCK_NORMALS // width)
    raw = np.empty((2, min(rows, len(states)), width), dtype=_U64)
    tmp = np.empty_like(raw)
    unif = np.empty(raw.shape)
    for p0 in range(0, n, width):
        w = min(width, n - p0)
        if p0:
            ctr += advance
        for r0 in range(0, len(states), rows):
            m = min(rows, len(states) - r0)
            x, t, u = raw[:, :m, :w], tmp[:, :m, :w], unif[:, :m, :w]
            with np.errstate(over="ignore"):
                np.add(ctr[..., :w], states[None, r0:r0 + m, None], out=x)
            _mix64_inplace(x, t)
            x >>= _U64(11)
            u[...] = x                  # < 2**53, so the conversion is exact
            u[0] += 1.0
            u *= 1.0 / _TWO53           # power-of-two scaling: exact
            u1, u2 = u[0], u[1]
            np.log(u1, out=u1)
            u1 *= -2.0
            np.sqrt(u1, out=u1)
            u2 *= _TWO_PI
            np.cos(u2, out=u2)
            np.multiply(u1, u2, out=out[r0:r0 + m, p0:p0 + w])
    return out


class RngStream:
    """Counter-based standard-normal stream; reproducible and splittable."""

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.seed = seed
        self._state0 = _mix64(seed).reshape(1)   # the kernel takes one state per row
        self._pos = 0  # normals consumed so far

    def normals_at(self, start: int, n: int) -> np.ndarray:
        """Normals [start, start+n) by counter, without touching position."""
        return _stream_normals(self._state0, start, int(n))[0]

    def normals(self, n: int) -> np.ndarray:
        """Next n standard-normal draws, advancing the stream."""
        out = self.normals_at(self._pos, int(n))
        self._pos += int(n)
        return out


def spread_seed(seed: int) -> int:
    """Finalized base seed used as the root of the sub-stream family."""
    return int(_mix64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def trial_stream(seed: int, trial: int) -> RngStream:
    """Stream for Monte Carlo trial ``trial`` under base ``seed``."""
    return RngStream(spread_seed(seed) ^ int(trial))


def trial_normals(seed: int, trials: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Matrix of draws, row k = normals [start, start+n) of trial_stream(seed, trials[k]).

    Vectorized across trials and generated in cache-sized blocks; identical
    to calling each trial's stream.  Random access by position makes
    ensembles independent of how work is chunked across steps or workers.
    """
    trials = np.asarray(trials, dtype=np.int64)
    states = _mix64(_U64(spread_seed(seed)) ^ trials.astype(_U64))
    return _stream_normals(states, start, int(n))


# ---------------------------------------------------------------------------
# matrix exponential and linear covariance propagation
# ---------------------------------------------------------------------------

def mat_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix, or of every matrix of a (..., n, n) stack,
    by scipy.linalg.expm; non-square or non-finite input is rejected."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"mat_expm needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DivergenceError("mat_expm: non-finite entries in input")
    return scipy.linalg.expm(a)


def stable_expm2(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(m t) over a vector of times for a real 2x2 m with eigenvalues in
    the open left half plane: exp(tau t) [cosh(w t) I + sinh(w t) / w N],
    N = m - tau I, w^2 = -det N, from decaying exponentials only; a
    repeated eigenvalue (w = 0, m possibly defective) takes sinh(w t) / w = t."""
    tau = 0.5 * (m[0, 0] + m[1, 1])
    n = m - tau * np.eye(2)
    w = np.sqrt(complex(n[0, 1] * n[1, 0] - n[0, 0] * n[1, 1]))
    g, e = np.exp((tau + w) * t), np.expm1(-2.0 * w * t)
    c, s = (g * (1.0 + 0.5 * e)).real, (g * t if w == 0 else g * e / (-2.0 * w)).real
    return c[:, None, None] * np.eye(2) + s[:, None, None] * n


# Pade [7/7] coefficients of exp (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)


def _pade7(a: np.ndarray) -> np.ndarray:
    """The [7/7] Pade approximant of exp on a (m, k, k) stack, without
    scaling and squaring: backward-stable to unit roundoff for matrices of
    norm at most theta_7 = 0.95 in any consistent norm (Higham 2005)."""
    b = _PADE7
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def _halvings(v: np.ndarray) -> np.ndarray:
    """Least s >= 0 with v 2**-s <= 0.25, for finite v >= 0: ceil(log2(v /
    0.25)) read exactly from the binary exponent of v (NaN gives 0, inf 2)."""
    m, e = np.frexp(v)
    return np.where(v > 0.25, e + 2 - (m == 0.5), 0)


def _compose(phi2, g2, phi1, g1):
    """The covariance map P -> Phi2 (Phi1 P Phi1^T + G1) Phi2^T + G2 as one
    pair (Phi2 Phi1, Phi2 G1 Phi2^T + G2), on matching (..., n, n) stacks."""
    return phi2 @ phi1, phi2 @ g1 @ phi2.swapaxes(-1, -2) + g2


@np.errstate(over="ignore", invalid="ignore")   # the caller's check reports these
def ou_increment(alpha: np.ndarray, q: np.ndarray, dt: float | np.ndarray):
    """Exact one-step propagator for a linear SDE covariance.

    For dX = alpha X dt + (noise with intensity q), the covariance obeys
    P(t+dt) = Phi P(t) Phi^T + G with Phi = exp(alpha dt) and
    G = int_0^dt exp(alpha s) q exp(alpha^T s) ds.  Returns (Phi, G).

    On a sub-step h = dt 2**-s with ||alpha h||_1 <= 0.25, which keeps the
    growing block exp(-alpha h) of a stable generator well scaled, both
    come from one block exponential (Van Loan, IEEE TAC 23, 395, 1978):
    exp([[-alpha, q], [0, alpha^T]] h) = [[., F12], [0, F22]] gives
    Phi(h) = F22^T and G(h) = F22^T F12.  F12 is linear in q, so the q
    block enters scaled by an exact power of two, 2**-k, that brings
    sum |q_ij| h to at most 0.25, and G takes the factor 2**k back.  The
    block then has norm at most 0.5 in the operator norm of ||x||_1 +
    ||y||_inf on its two halves (alpha^T measured in the infinity norm is
    ||alpha||_1), below theta_7, so one Pade [7/7] approximant is the
    exponential to unit roundoff with no squaring.
    Interval doubling, (Phi, G)(2h) = (Phi, G)(h) composed with itself,
    assembles dt; it is unconditionally stable, so arbitrarily stiff
    stable generators are fine.

    Stacks: ``alpha`` and ``q`` may be (..., n, n) stacks with ``dt`` a
    scalar or an array of the leading shape; Phi and G then have the
    stack's shape.  Each matrix keeps its own s and k, all blocks go
    through one stacked Pade step, and doubling pass j touches only the
    matrices with more than j sub-steps (a prefix of the stack sorted by
    s), so matrix k of a stacked call equals the 2-D call on (alpha[k],
    q[k], dt[k]) bit for bit.

    Only shapes raise: a matrix with a non-finite entry or step norm gets
    NaN (Phi, G), one whose doubling overflows inf or NaN entries, silently
    and leaving the rest of the stack as it is; the caller checks them.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if alpha.ndim < 2 or alpha.shape[-1] != alpha.shape[-2] or q.shape != alpha.shape:
        raise DimensionError("ou_increment: alpha and q must be square and same size")
    shape, n = alpha.shape, alpha.shape[-1]
    alpha, q = alpha.reshape(-1, n, n), q.reshape(-1, n, n)
    dt = np.broadcast_to(np.asarray(dt, dtype=np.float64), shape[:-2]).reshape(-1)
    a_norm = np.abs(alpha).sum(axis=1).max(axis=1) * dt
    q_norm = np.abs(q).sum(axis=(1, 2)) * dt
    s = _halvings(a_norm)
    order = np.argsort(-s, kind="stable")   # most sub-steps first: each pass doubles a prefix
    alpha, q, dt, s = alpha[order], q[order], dt[order], s[order]
    bad = ~(np.isfinite(a_norm) & np.isfinite(q_norm))[order]
    k = _halvings(np.ldexp(q_norm[order], -s))
    h = np.ldexp(dt, -s)[:, None, None]
    block = np.zeros((len(s), 2 * n, 2 * n))
    block[:, :n, :n] = -alpha * h
    block[:, :n, n:] = np.ldexp(q * h, -k[:, None, None])
    block[:, n:, n:] = alpha.swapaxes(1, 2) * h
    block[bad] = 0.0   # an overflowing block can be exactly singular and fail the whole solve
    f = _pade7(block)
    f[bad] = np.nan
    phi = np.ascontiguousarray(f[:, n:, n:].swapaxes(1, 2))
    g = np.ldexp(phi @ f[:, :n, n:], k[:, None, None])
    for j in range(s.max(initial=0)):
        m = np.count_nonzero(s > j)
        phi[:m], g[:m] = _compose(phi[:m], g[:m], phi[:m], g[:m])
    out_phi, out_g = np.empty_like(phi), np.empty_like(g)
    out_phi[order], out_g[order] = phi, 0.5 * (g + g.swapaxes(1, 2))
    return out_phi.reshape(shape), out_g.reshape(shape)


def geometric_times(t_end: float, g: float, t_offset: float, cap: float = math.inf) -> np.ndarray:
    """Deterministic quasi-geometric grid from 0 to t_end.

    Steps grow as dt = min(g * (t + t_offset), cap), which tracks dynamics
    whose local timescale is proportional to elapsed time (Riccati
    transients); ``cap`` bounds the step once they saturate.  The growth
    step ``g`` is passed as is (not as a ratio 1 + g, whose subtraction
    would round), so the grid is a pure function of its arguments.
    """
    if not (g > 0 and 0 < t_offset < math.inf and t_end < math.inf):
        # the first step is g * t_offset: the loop would never advance
        raise ConfigurationError(f"geometric_times: need g > 0 and finite t_offset > 0 and t_end, "
                                 f"got g = {g}, t_offset = {t_offset}, t_end = {t_end}")
    times = array("d", (0.0,))
    t = 0.0
    while t < t_end:
        dt = g * (t + t_offset)
        if dt > cap:
            break
        t += dt
        if t > t_end:
            t = t_end
        times.append(t)
    # g * (t + t_offset) only grows with t, so from a capped step on every
    # step is capped: the tail t + cap + cap + ..., added in order by
    # cumsum, in blocks in case the sums round short of t_end
    tail = (t_end - t) / cap
    if not len(times) + tail + 2.0 <= np.iinfo(np.intp).max:
        raise ConfigurationError(f"geometric_times: the tail of {tail:.3g} steps of {cap:.3g} "
                                 f"to t_end = {t_end:.3g} exceeds numpy's largest index "
                                 f"{np.iinfo(np.intp).max}")
    count = int(tail) + 2
    grid = np.frombuffer(times)
    while grid[-1] < t_end:
        start = len(grid) - 1
        grid = np.pad(grid, (0, count), constant_values=cap)
        np.cumsum(grid[start:], out=grid[start:])
    end = int(np.searchsorted(grid, t_end))   # the first time at or past t_end
    grid[end] = t_end
    return grid[:end + 1]
