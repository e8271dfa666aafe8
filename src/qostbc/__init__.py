"""Quasi-orthogonal space-time block codes.

Construction and validation of the Q4/Q8/T8 code families and their
rotated (CR) and group-mixed (GCLT) full-diversity variants, minimum
determinant and diversity-product analysis, grouped maximum-likelihood
decoding, and a seeded Rayleigh-fading BER simulator. Importing it sets one
BLAS thread before numpy loads, unless the variables are set (see README).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
