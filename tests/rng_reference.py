"""The random-draw layout of ``numerics`` written straight from its
docstring, kept in the tests as the plain reference that the tiled kernel
behind ``RngStream`` and ``trial_normals`` must equal bit for bit."""

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraps mod 2**64)."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=_U64).copy()
        x ^= x >> _U64(30)
        x *= _U64(0xBF58476D1CE4E5B9)
        x ^= x >> _U64(27)
        x *= _U64(0x94D049BB133111EB)
        x ^= x >> _U64(31)
    return x


def _raw_outputs(state0: int, start: int, count: int) -> np.ndarray:
    """uint64 outputs [start, start+count) of the splitmix64 stream."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + count + 1, dtype=_U64)
        return _mix64(idx * _U64(_GAMMA) + _U64(state0))


def reference_normals(seed: int, start: int, n: int) -> np.ndarray:
    """Normals [start, start+n) of the stream ``RngStream(seed)``."""
    if n == 0:
        return np.empty(0)
    state0 = int(_mix64(np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=_U64)))
    raw = _raw_outputs(state0, 2 * start, 2 * n)
    u1 = ((raw[0::2] >> _U64(11)).astype(np.float64) + 1.0) / 2.0**53
    u2 = (raw[1::2] >> _U64(11)).astype(np.float64) / 2.0**53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
