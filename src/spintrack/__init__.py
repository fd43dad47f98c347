"""Continuous-measurement spin-ensemble magnetometry toolkit.

Simulation of the classical-equivalent plant (spin precession driven by an
Ornstein-Uhlenbeck or constant field, with a shot-noise-limited record),
Kalman/LQG estimation and control, Riccati covariance analysis, joint
truth-plus-estimator covariance propagation under spin-number mismatch,
frequency-domain loop analysis and robust controller design, and a
small-spin stochastic-master-equation oracle that validates the Gaussian
reduction.

Importing the package defaults BLAS to one thread (a value already set in
the environment is kept).  Its largest products are (rows x 33) @ (33 x 33)
and most are 4x4 or 8x8, where extra BLAS threads only contend for the
cores; the default takes effect only if numpy has not been imported yet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
