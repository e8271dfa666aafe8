import os
import sys
from pathlib import Path

# one BLAS thread, however the suite is started (the benchmark sets the same):
# numpy reads these when it is first imported, which is after this file
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# allow running pytest from a fresh checkout without installing the package
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
