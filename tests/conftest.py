"""Run the suite with one BLAS thread, the setting the benchmark runs under.

numpy's np.dot splits long vectors over OpenBLAS threads, which changes the
order of its float sums, so outputs pinned here are compared under the same
thread count on any machine.  The variables must be set before numpy is
imported; a value already in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
