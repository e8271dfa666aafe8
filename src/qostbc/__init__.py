"""Quasi-orthogonal space-time block codes.

Construction and validation of the Q4/Q8/T8 code families and their
rotated (CR) and group-mixed (GCLT) full-diversity variants, minimum
determinant and diversity-product analysis, grouped maximum-likelihood
decoding, and a seeded Rayleigh-fading BER simulator. Importing it sets one
BLAS thread before numpy loads, and on glibc fixed heap thresholds, unless
the user set the variables (see README).
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: glibc's mallopt parameters and the values set: the ceiling of glibc's
#: dynamic mmap threshold, and twice that as the trim threshold, the ratio
#: glibc keeps when it raises the mmap threshold itself
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _fix_malloc_thresholds(environ) -> bool:
    """Fix glibc's mmap and trim thresholds; returns whether it did.

    glibc raises its mmap threshold as large blocks are freed and trims the
    heap top whenever the free space there passes the trim threshold, so a
    simulate chunk's arrays would be mapped, faulted in and returned to the
    system again on every chunk. Nothing is done off glibc, or when
    ``environ`` holds one of glibc's own settings for them
    (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
    ``glibc.malloc.*`` entry of ``GLIBC_TUNABLES``).
    """
    tunables = environ.get("GLIBC_TUNABLES", "")
    if ("MALLOC_MMAP_THRESHOLD_" in environ
            or "MALLOC_TRIM_THRESHOLD_" in environ
            or any(entry.startswith("glibc.malloc.")
                   for entry in tunables.split(":"))):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr or no glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = [mallopt(param, value) for param, value in (
        (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
        (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))]
    return all(done)


_fix_malloc_thresholds(os.environ)

from .catalog import CODE_NAMES, CodeDefinition, build, encode, validate_power
from .gain import diversity_product, min_det_search
from .modem import Constellation, make_qam

__all__ = [
    "CODE_NAMES",
    "CodeDefinition",
    "Constellation",
    "build",
    "diversity_product",
    "encode",
    "make_qam",
    "min_det_search",
    "validate_power",
]

__version__ = "0.1.0"
