"""Frame-level evaluation toolkit for surgical phase recognition."""

import os

from .errors import PhaseEvalError

# No phaseeval code calls BLAS, so OpenBLAS's worker threads are pure start-up
# cost: most of numpy's import time, and stalls of the main thread meanwhile.
# Set before any numpy import; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["PhaseEvalError"]
__version__ = "0.1.0"
