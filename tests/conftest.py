"""Pin BLAS to one thread before numpy loads, so bitwise-reproducibility tests
do not depend on the host's core count. An explicit setting still wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
