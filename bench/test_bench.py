"""Tests of the benchmark driver's own checks, on a one-chunk-per-point curve.

Run with ``python3 -m pytest bench``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY = run.Curve("Q4_LT", "4qam", 1, "0:5:5")
SEED = 7


@pytest.fixture
def tiny(monkeypatch):
    """Replace the ber_detect workload by one cheap curve."""
    monkeypatch.setitem(run.WORKLOADS, "ber_detect",
                        run._ber_workload("ber_detect", (TINY,)))
    return run.Call(TINY.key, curve=TINY)


@pytest.fixture(scope="module")
def tiny_text():
    return run.Call(TINY.key, curve=TINY).run(SEED)


def test_pinned_digest_passes_and_tampered_digest_fails(tiny, tiny_text):
    good = {"seeded": {TINY.key: {str(SEED): run.digest(tiny_text)}}}
    checker = run.Checker(good, SEED)
    assert checker.run(tiny) == tiny_text
    assert (checker.attempted, checker.failed) == (1, 0)

    tampered = {"seeded": {TINY.key: {str(SEED): "0" * 64}}}
    checker = run.Checker(tampered, SEED)
    assert checker.run(tiny) is None
    assert (checker.attempted, checker.failed) == (1, 1)


def test_tampered_digest_makes_the_run_incorrect(tiny, tiny_text):
    pins = {"seeded": {TINY.key: {str(SEED): run.digest(tiny_text)}}}
    result = run.run("ber_detect", SEED, 0.01, False, pins=pins, probes=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mib"}

    pins["seeded"][TINY.key][str(SEED)] = "f" * 64
    result = run.run("ber_detect", SEED, 0.01, False, pins=pins, probes=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_seedless_digest_is_checked():
    call = run.WORKLOADS["gain_search"].tasks[0].calls[0]
    assert not call.seeded
    text = call.run(SEED)
    assert run.Checker({"fixed": {call.key: run.digest(text)}}, SEED).run(
        call) == text
    checker = run.Checker({"fixed": {call.key: "0" * 64}}, SEED)
    assert checker.run(call) is None and checker.failed == 1


def test_replica_reproduces_run_ber(tiny_text):
    replica = run.replica_curve(TINY, SEED)
    assert replica["counts"] == run.curve_counts(tiny_text)
    assert replica["chunks"] == len(TINY.grid())
    assert replica["candidates"] == replica["codewords"] * 4 * 2 ** 2


@pytest.mark.parametrize("stage, scale", [
    ("equivalent_channel_batch", 2.0),     # 6 dB stronger channel
    ("detect_from_equivalent_batch", -1.0),  # every decision flipped
])
def test_replica_check_catches_a_perturbed_stage(tiny, monkeypatch, stage,
                                                 scale):
    original = getattr(run.decoder, stage)
    monkeypatch.setattr(run.decoder, stage,
                        lambda *args: scale * original(*args))
    result = run.run("ber_detect", SEED, 0.01, True, pins={}, probes=1)
    assert not result["correct"] and result["failed"] == 1


def test_traced_run_reports_every_per_layer_metric(tiny):
    result = run.run("ber_detect", SEED, 0.01, True, pins={}, probes=1)
    assert result["correct"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["simulate.chunks"] == 2
    assert 0.0 < layers["decoder.detect_share"] < 1.0


def test_ber_far_from_the_reference_is_flagged(tiny_text):
    rows = [[snr, bits, be, fe] for snr, bits, be, _, fe
            in run.curve_counts(tiny_text)]
    assert run.check_curve(TINY, SEED, tiny_text, rows) == []
    shifted = [[snr, bits, be * 10, fe * 10] for snr, bits, be, fe in rows]
    assert run.check_curve(TINY, SEED, tiny_text, shifted)


def test_search_t8_rescoring_catches_a_wrong_zeta():
    call = run.WORKLOADS["gain_search"].tasks[3].calls[0]
    text = call.run(SEED)
    assert run.check_search_t8(text) == []
    payload = json.loads(text)
    payload["zeta"] *= 1.001
    assert run.check_search_t8(json.dumps(payload))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ber_detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
