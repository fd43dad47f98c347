"""Default BLAS to one thread before any test module imports numpy, as the
package itself does on import, and have a failing hypothesis property print
the @reproduce_failure blob that replays it."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings   # after the BLAS defaults, in case it loads numpy

# the default profile but for print_blob
settings.register_profile("spintrack", print_blob=True)
settings.load_profile("spintrack")
