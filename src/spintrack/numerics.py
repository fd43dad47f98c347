"""Matrix exponentials, exact covariance steps, time grids, reproducible noise.

Everything here is deterministic: ``mat_expm`` (scaling and squaring on
a Pade [7/7] step, behind input guards) is the general matrix
exponential, ``ou_increment`` steps a linear SDE's covariance exactly
over a given interval (its Van Loan blocks have bounded norm by
construction, so it takes the same Pade step with no squaring and no
value check), ``geometric_times`` builds explicit step schedules (no
error-adaptive control), and the random stream is counter-based, so a
(seed, position) pair always yields the same draw on every platform.
The module needs numpy only.

Stacks: ``mat_expm`` and ``ou_increment`` take a (..., n, n) stack of
matrices as well as one matrix, and treat each matrix of the stack
exactly as a call on that matrix alone would, bit for bit (a stacked
``ou_increment`` also takes one ``dt`` per matrix).  One call on a stack
replaces a Python loop of calls, and neither function loops over the
stack in Python.

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
The tiles of a call are spread over threads, one per CPU the process may
use and at most one per tile; the caller fills one share and helper
threads, started and joined within the call, the rest.  Every draw is a
pure function of its (stream, position), so neither the tiling nor the
thread count changes anything but speed: the bits are those of the
formula above.  The plain formula itself lives in the tests
(``tests/rng_reference.py``), which check the kernel against it bit for
bit.
"""

from __future__ import annotations

import math
import os
import threading
from array import array

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError, NumericalError

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


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Scratch planes of the calling thread, kept from call to call.  A fresh
# megabyte a call, freed at the top of the heap, is trimmed and faults its
# pages back in on the next call; the planes hold no result, so sharing
# them across the calls of one thread changes nothing but that.
_scratch = threading.local()


def _share_planes(threads: int) -> list:
    """One (raw, tmp) pair of flat uint64 planes of 2 ``_BLOCK_NORMALS``
    entries per share, allocated in (and kept by) the calling thread."""
    planes = getattr(_scratch, "planes", [])
    if len(planes) < threads or planes[0][0].size != 2 * _BLOCK_NORMALS:
        planes = _scratch.planes = [tuple(np.empty((2, 2 * _BLOCK_NORMALS), dtype=_U64))
                                    for _ in range(threads)]
    return planes[:threads]


def _stream_normals(states: np.ndarray, start: int, n: int, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Row k = normals [start, start+n) of the stream with state ``states[k]``,
    written into ``out`` when given (float64, shape (len(states), n)).

    Works in tiles of about ``_BLOCK_NORMALS`` draws: a tile is a few rows
    of at most ``_BLOCK_NORMALS`` positions, so a single long stream is cut
    along its positions and many short ones are grouped by rows.  The
    tiles are split into contiguous shares, one per thread, with up to one
    thread per CPU the process may use: the caller fills the first share
    and short-lived helper threads the others, joined before the call
    returns.  Every share's scratch comes from the calling thread.
    """
    if out is None:
        out = np.empty((len(states), n))
    elif out.shape != (len(states), n) or out.dtype != np.float64:
        raise DimensionError(f"normals: out is {out.dtype} {out.shape}, need float64 "
                             f"{(len(states), n)}")
    if out.size == 0:
        return out
    width = min(n, _BLOCK_NORMALS)
    rows = min(max(1, _BLOCK_NORMALS // width), len(states))
    with np.errstate(over="ignore"):
        ctr = np.arange(2 * start + 1, 2 * (start + width) + 1, dtype=_U64)
        ctr *= _U64(_GAMMA)
    ctr = np.ascontiguousarray(ctr.reshape(width, 2).T)[:, None, :]   # (2, 1, width): u1, u2 planes
    tiles = [(p0, r0) for p0 in range(0, n, width) for r0 in range(0, len(states), rows)]
    threads = min(_cpus(), len(tiles))
    shares = [(tiles[len(tiles) * i // threads:len(tiles) * (i + 1) // threads],) + planes
              for i, planes in enumerate(_share_planes(threads))]
    errors = []
    helpers = [threading.Thread(target=_fill_share, args=(errors, out, states, ctr, rows) + share)
               for share in shares[1:]]
    for helper in helpers:
        helper.start()
    try:
        _fill_tiles(out, states, ctr, rows, *shares[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return out


def _fill_share(errors: list, *args) -> None:
    """``_fill_tiles`` in a helper thread; its exception goes to ``errors``
    for the caller to raise."""
    try:
        _fill_tiles(*args)
    except BaseException as exc:   # re-raised in the calling thread
        errors.append(exc)


def _fill_tiles(out, states, ctr, rows, tiles, raw, tmp) -> None:
    """Fill the (p0, r0) tiles of ``out``, of ``rows`` rows and ``ctr``'s
    width, in order.  The even (u1) and odd (u2) outputs of a tile are
    laid out in ``raw`` as two planes of contiguous rows, so every
    operation runs in place; ``tmp`` takes the shifts of the mixing and
    then the uniforms."""
    width = ctr.shape[-1]
    advance = 2 * width * _GAMMA   # counter step from one position tile to the next
    with np.errstate(over="ignore"):   # errstate is per thread: a helper does not inherit it
        for p0, r0 in tiles:
            w, m = min(width, out.shape[1] - p0), min(rows, len(states) - r0)
            x, t = raw[:2 * m * w].reshape(2, m, w), tmp[:2 * m * w].reshape(2, m, w)
            np.add(ctr[..., :w], states[None, r0:r0 + m, None], out=x)
            if p0:   # the first tile's counters plus p0 // width advances, mod 2**64
                x += _U64((p0 // width) * advance & 0xFFFFFFFFFFFFFFFF)
            _mix64_inplace(x, t)
            x >>= _U64(11)
            u = t.view(np.float64)
            np.copyto(u, x.view(np.int64))   # < 2**53: exact, and int64 converts faster than uint64
            u1, u2 = u[0], u[1]
            u1 += 1.0
            u1 *= 1.0 / _TWO53          # power-of-two scaling: exact
            np.log(u1, out=u1)
            u1 *= -2.0
            np.sqrt(u1, out=u1)
            u2 *= _TWO_PI / _TWO53      # 2 pi (u2 2**-53) in one product: scaling commutes with rounding
            np.cos(u2, out=u2)
            np.multiply(u1, u2, out=out[r0:r0 + m, p0:p0 + w])


class RngStream:
    """Counter-based standard-normal stream, read by position only: the
    stream keeps no cursor, so a (seed, position) pair names one draw."""

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.seed = seed
        self._state0 = _mix64(seed).reshape(1)   # the kernel takes one state per row

    def normals_at(self, start: int, n: int) -> np.ndarray:
        """Normals [start, start+n) by counter."""
        return _stream_normals(self._state0, start, int(n))[0]


def spread_seed(seed: int) -> int:
    """Finalized base seed used as the root of the sub-stream family."""
    return int(_mix64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def trial_stream(seed: int, trial: int) -> RngStream:
    """Stream for Monte Carlo trial ``trial`` under base ``seed``."""
    return RngStream(spread_seed(seed) ^ int(trial))


def trial_normals(seed: int, trials: np.ndarray, n: int, start: int = 0,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of draws, row k = normals [start, start+n) of trial_stream(seed, trials[k]).

    Vectorized across trials and generated in cache-sized blocks; identical
    to calling each trial's stream.  Random access by position makes
    ensembles independent of how work is chunked across steps or workers.
    With ``out`` (float64, shape (len(trials), n)) the draws are written
    there and ``out`` is returned.
    """
    trials = np.asarray(trials, dtype=np.int64)
    states = _mix64(_U64(spread_seed(seed)) ^ trials.astype(_U64))
    return _stream_normals(states, start, int(n), out)


# ---------------------------------------------------------------------------
# matrix exponential and linear covariance propagation
# ---------------------------------------------------------------------------

def mat_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix, or of every matrix of a (..., n, n) stack;
    non-square or non-finite input is rejected.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179,
    2005): each matrix is scaled by an exact power of two 2**-s to a
    1-norm of at most 0.25 (``_halvings``), takes one Pade [7/7] step and
    is squared s times.  The stack is sorted by s, so squaring pass j
    works on the prefix of matrices with more than j squarings, and each
    matrix of a stacked call equals its 2-D call bit for bit.  No
    balancing: the callers with badly scaled matrices balance them
    themselves.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"mat_expm needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DivergenceError("mat_expm: non-finite entries in input")
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    s = _halvings(np.abs(a).sum(axis=1).max(axis=1, initial=0.0))
    order = np.argsort(-s, kind="stable")   # most squarings first: each pass squares a prefix
    s = s[order]
    e = _pade7(a[order] * np.ldexp(1.0, -s)[:, None, None])
    for j in range(s.max(initial=0)):
        m = np.count_nonzero(s > j)
        e[:m] = e[:m] @ e[:m]
    out = np.empty_like(e)
    out[order] = e
    return out.reshape(shape)


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


_BALANCE_LIMIT = 128   # largest |log2| of a balancing factor


def _balancing(a: np.ndarray) -> np.ndarray:
    """Exponents e, shape (m, n), of a diagonal similarity D = diag(2**e)
    per matrix of an (m, n, n) stack, such that D^-1 a D has column and
    row 1-norms (diagonal included, as in LAPACK's gebal) close to each
    other: Parlett & Reinsch, Numer. Math. 13, 293 (1969), swept until no
    factor moves.  Powers of two, so scaling is exact and commutes with
    rounding in matrix products.  Each matrix is swept on its own values
    only, and a sweep that moves nothing leaves the next sweep unchanged,
    so a stacked call gives every matrix the exponents of its 2-D call; a
    matrix with a non-finite or zero row or column norm keeps e = 0 there.
    """
    b = np.abs(a)
    e = np.zeros(b.shape[:2], dtype=np.int64)
    for _ in range(2 * _BALANCE_LIMIT):   # a guard only: the sweeps end when nothing moves
        moved = np.zeros(len(b), dtype=bool)
        for i in range(b.shape[-1]):
            c, r = b[:, :, i].sum(axis=1), b[:, i, :].sum(axis=1)
            ok = (c > 0) & (r > 0) & np.isfinite(c) & np.isfinite(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.where(ok, np.rint(0.5 * (np.log2(r) - np.log2(c))), 0.0).astype(np.int64)
            k = np.clip(k, -_BALANCE_LIMIT - e[:, i], _BALANCE_LIMIT - e[:, i])
            f = np.ldexp(1.0, k)
            step = ok & (k != 0) & (c * f + r / f < 0.95 * (c + r))
            k = np.where(step, k, 0)
            b[:, :, i] = np.ldexp(b[:, :, i], k[:, None])
            b[:, i, :] = np.ldexp(b[:, i, :], -k[:, None])
            e[:, i] += k
            moved |= step
        if not moved.any():
            break
    return e


def _square(x: float, name: str) -> float:
    """x ** 2 of a Python float, or NumericalError naming the quantity
    ``name`` where the square overflows (float ** raises OverflowError)."""
    try:
        return x ** 2
    except OverflowError:
        raise NumericalError(f"{name} = {x:.6g}: its square overflows") from None


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

    The step first balances alpha by an exact power-of-two similarity D
    (``_balancing``) and works on D^-1 alpha D and D^-1 q D^-1, mapping
    back Phi -> D Phi D^-1 and G -> D G D at the end.  Without it the
    largest entry alone sets s and the LU pivots of the Pade solve, and
    the small entries lose digits: a mismatched field-tracking generator,
    whose entries span from gamma_b to gamma (J' - J), kept only 5 to 6
    digits of sigma_bE per step.  Scaling by powers of two is exact and
    commutes with rounding in the doubling products, so only the norm
    and the Pade step see it.

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
    stack's shape.  Each matrix keeps its own D, s and k, all blocks go
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
    bad = ~(np.isfinite(np.abs(alpha).sum(axis=1).max(axis=1) * dt)
            & np.isfinite(np.abs(q).sum(axis=(1, 2)) * dt))
    e = _balancing(alpha)
    alpha = np.ldexp(alpha, e[:, None, :] - e[:, :, None])
    q = np.ldexp(q, -e[:, None, :] - e[:, :, None])
    a_norm = np.abs(alpha).sum(axis=1).max(axis=1) * dt
    q_norm = np.abs(q).sum(axis=(1, 2)) * dt
    bad |= ~(np.isfinite(a_norm) & np.isfinite(q_norm))
    s = _halvings(a_norm)
    order = np.argsort(-s, kind="stable")   # most sub-steps first: each pass doubles a prefix
    alpha, q, dt, s, bad = alpha[order], q[order], dt[order], s[order], bad[order]
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
    out_phi = np.ldexp(out_phi, e[:, :, None] - e[:, None, :])
    out_g = np.ldexp(out_g, e[:, :, None] + e[:, None, :])
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
