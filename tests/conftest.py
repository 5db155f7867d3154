"""Test set-up: at most one BLAS thread per usable CPU.

A numpy process starts one BLAS thread per CPU, so the suite beside another
numpy process (a benchmark run, say) would oversubscribe the CPUs.  The
caps are set before numpy loads, as perfbench/run.py does; a setting
already lower is kept, and none is raised.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))


_cap_blas_threads()
