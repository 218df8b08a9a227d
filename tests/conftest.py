"""Pin BLAS to one thread before numpy loads.

Tier-1 runs many small matrix operations; on a few-core machine BLAS
threading makes them several times slower. ``setdefault`` keeps any value
the caller exported. The bit-for-bit data-path tests (``TestColumnSlices``,
``TestInPlace``) assume this pin.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
