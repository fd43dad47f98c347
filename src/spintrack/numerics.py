"""Matrix exponentials, exact covariance steps, time grids, reproducible noise.

Everything here is deterministic: ``mat_expm`` (``scipy.linalg.expm``
behind input guards) and the closed-form ``stable_expm2`` are the matrix
exponentials, ``ou_increment`` steps a linear SDE's covariance exactly
over a given interval, ``geometric_times`` builds explicit step schedules
(no error-adaptive control), and the random stream is counter-based, so a
(seed, position) pair always yields the same draw on every platform.

Stacks: ``mat_expm`` and ``ou_increment`` take a (..., n, n) stack of
matrices as well as one matrix, and treat each matrix of the stack
exactly as a call on that matrix alone would, bit for bit (a stacked
``ou_increment`` also takes one ``dt`` per matrix).  One call on a stack
replaces a Python loop of calls.

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

``trial_normals`` generates its draws in cache-sized blocks of about
``_BLOCK_NORMALS`` normals (a few streams at a time), with in-place
integer and float operations into a preallocated output.  Every draw is a
pure function of its (stream, position), so the block size changes speed
only: the bits are those of the formula above.  ``RngStream.normals_at``
evaluates the formula directly and is the reference the blocked kernel
is tested against, bit for bit.
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
_BLOCK_NORMALS = 16384  # normals per generated block (256 KB of uint64 outputs)


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


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraps mod 2**64)."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=_U64).copy()
        x ^= x >> _U64(30)
        x *= _U64(_MIX1)
        x ^= x >> _U64(27)
        x *= _U64(_MIX2)
        x ^= x >> _U64(31)
    return x


def _raw_outputs(state0: int, start: int, count: int) -> np.ndarray:
    """uint64 outputs [start, start+count) of the splitmix64 stream."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + count + 1, dtype=_U64)
        return _mix64(idx * _U64(_GAMMA) + _U64(state0))


def _stream_normals(states: np.ndarray, start: int, n: int) -> np.ndarray:
    """Row k = normals [start, start+n) of the stream with state ``states[k]``.

    Works through the rows in blocks of about ``_BLOCK_NORMALS`` draws.  The
    even (u1) and odd (u2) outputs of a block are laid out as two contiguous
    planes, so every operation runs in place on contiguous memory.
    """
    out = np.empty((len(states), n))
    if out.size == 0:
        return out
    with np.errstate(over="ignore"):
        ctr = np.arange(2 * start + 1, 2 * (start + n) + 1, dtype=_U64)
        ctr *= _U64(_GAMMA)
    ctr = np.ascontiguousarray(ctr.reshape(n, 2).T)[:, None, :]   # (2, 1, n): u1, u2 planes
    rows = max(1, _BLOCK_NORMALS // n)
    raw = np.empty((2, min(rows, len(states)), n), dtype=_U64)
    tmp = np.empty_like(raw)
    unif = np.empty(raw.shape)
    for r0 in range(0, len(states), rows):
        m = min(rows, len(states) - r0)
        x, t, u = raw[:, :m], tmp[:, :m], unif[:, :m]
        with np.errstate(over="ignore"):
            np.add(ctr, states[None, r0:r0 + m, None], out=x)
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
        np.multiply(u1, u2, out=out[r0:r0 + m])
    return out


class RngStream:
    """Counter-based standard-normal stream; reproducible and splittable."""

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.seed = seed
        self._state0 = int(_mix64(np.array(seed, dtype=_U64)))
        self._pos = 0  # normals consumed so far

    def normals_at(self, start: int, n: int) -> np.ndarray:
        """Normals [start, start+n) by counter, without touching position.

        Written straight from the documented layout, independently of the
        blocked kernel behind ``trial_normals``, which the tests check
        against it bit for bit.
        """
        if n == 0:
            return np.empty(0)
        raw = _raw_outputs(self._state0, 2 * start, 2 * n)
        u1 = ((raw[0::2] >> _U64(11)).astype(np.float64) + 1.0) / _TWO53
        u2 = (raw[1::2] >> _U64(11)).astype(np.float64) / _TWO53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        """Next n standard-normal draws, advancing the stream."""
        out = self.normals_at(self._pos, int(n))
        self._pos += int(n)
        return out


def spread_seed(seed: int) -> int:
    """Finalized base seed used as the root of the sub-stream family."""
    return int(_mix64(np.array(int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=_U64)))


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


def ou_increment(alpha: np.ndarray, q: np.ndarray, dt: float | np.ndarray):
    """Exact one-step propagator for a linear SDE covariance.

    For dX = alpha X dt + (noise with intensity q), the covariance obeys
    P(t+dt) = Phi P(t) Phi^T + G with Phi = exp(alpha dt) and
    G = int_0^dt exp(alpha s) q exp(alpha^T s) ds.  Returns (Phi, G).

    On a sub-step h with ||alpha h||_1 <= 0.25, which keeps the growing
    block exp(-alpha h) of a stable generator well scaled, both come from
    one block exponential (Van Loan, IEEE TAC 23, 395, 1978):
    exp([[-alpha, q], [0, alpha^T]] h) = [[., F12], [0, F22]] gives
    Phi(h) = F22^T and G(h) = F22^T F12.  Interval doubling, G(2h) = G(h)
    + Phi(h) G(h) Phi(h)^T, assembles dt; it is unconditionally stable, so
    arbitrarily stiff stable generators are fine.

    Stacks: ``alpha`` and ``q`` may be (..., n, n) stacks with ``dt`` a
    scalar or an array of the leading shape; Phi and G then have the
    stack's shape.  Each matrix keeps its own sub-step count, all blocks
    go through one ``mat_expm`` call, and doubling pass j touches only the
    matrices with more than j sub-steps, so matrix k of a stacked call
    equals the 2-D call on (alpha[k], q[k], dt[k]) bit for bit.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if alpha.ndim < 2 or alpha.shape[-1] != alpha.shape[-2] or q.shape != alpha.shape:
        raise DimensionError("ou_increment: alpha and q must be square and same size")
    shape, n = alpha.shape, alpha.shape[-1]
    alpha, q = alpha.reshape(-1, n, n), q.reshape(-1, n, n)
    dt = np.broadcast_to(np.asarray(dt, dtype=np.float64), shape[:-2]).reshape(-1)
    norm = np.abs(alpha).sum(axis=1).max(axis=1) * dt   # ||alpha||_1 dt per matrix
    s = np.array([math.ceil(math.log2(v / 0.25)) if v > 0.25 else 0 for v in norm.tolist()],
                 dtype=np.int64)
    h = dt / 2.0 ** s
    block = np.zeros((len(s), 2 * n, 2 * n))
    block[:, :n, :n] = -alpha
    block[:, :n, n:] = q
    block[:, n:, n:] = alpha.swapaxes(1, 2)
    block *= h[:, None, None]
    f = mat_expm(block)
    phi = f[:, n:, n:].swapaxes(1, 2)
    g = phi @ f[:, :n, n:]
    for j in range(s.max(initial=0)):
        rows = np.flatnonzero(s > j)
        p, gj = phi[rows], g[rows]
        g[rows] = gj + p @ gj @ p.swapaxes(1, 2)
        phi[rows] = p @ p
    return phi.reshape(shape), (0.5 * (g + g.swapaxes(1, 2))).reshape(shape)


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
            dt = cap
        t += dt
        if t > t_end:
            t = t_end
        times.append(t)
    return np.frombuffer(times)
