"""Cross-version anchor: every benchmark artifact at seed 0 still hashes to
its digest in ``bench/pins.json``.

The calls are the benchmark's own (``bench/run.py``): the seedless gain
calls and seed 0 of the seeded ``simulate`` curves and ``search-t8``. A
change that moves one byte of any of them fails here.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

PINS = run.load_pins()
CALLS = [call for workload in run.WORKLOADS.values()
         for task in workload.tasks for call in task.calls]


@pytest.mark.parametrize("call", CALLS, ids=lambda call: call.key)
def test_artifact_matches_its_pin(call):
    want = run.pinned_digest(PINS, call, 0)
    assert want is not None, f"no pin for {call.key} at seed 0"
    assert run.digest(call.run(0)) == want
