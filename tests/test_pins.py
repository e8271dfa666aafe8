"""Cross-version anchor: every benchmark artifact at seed 0 still hashes to
its digest in ``bench/pins.json``.

The calls are the benchmark's own (``bench/run.py``): the seedless gain
calls and seed 0 of the seeded ``simulate`` curves and ``search-t8``, and
``search-t8`` at its 31 further pinned seeds. A change that moves one byte
of any of them fails here.
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


SEARCH_T8 = next(call for call in CALLS if call.key.startswith("search-t8"))


@pytest.mark.parametrize("seed", range(1, 32))
def test_search_t8_matches_its_pin_at_more_seeds(seed):
    # the golden-section search compares objective values bit for bit, so a
    # change in their last bits can move the angles at one seed and not at
    # another
    want = run.pinned_digest(PINS, SEARCH_T8, seed)
    assert want is not None, f"no pin for {SEARCH_T8.key} at seed {seed}"
    assert run.digest(SEARCH_T8.run(seed)) == want
