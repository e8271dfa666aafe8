"""Command-line interface tests: artifacts, determinism, exit codes."""

import concurrent.futures
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qostbc
from qostbc import analysis, catalog, checks, cli, simulate

from closed_form import decode_code_json


def run_cli(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCatalog:
    def test_single_code(self, capsys):
        status, out, _ = run_cli(capsys, ["catalog", "--code", "Q4"])
        assert status == 0
        data = json.loads(out)
        assert data["name"] == "Q4"
        assert len(data["matrices"]) == 8
        assert data["grouping"] == [[1, 4], [2, 3], [5, 8], [6, 7]]

    def test_all_codes(self, capsys):
        status, out, _ = run_cli(capsys, ["catalog", "--all"])
        assert status == 0
        assert len(json.loads(out)) == 10

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "q4.json"
        status, out, _ = run_cli(capsys, ["catalog", "--code", "Q4",
                                          "--out", str(path)])
        assert status == 0 and out == ""
        assert json.loads(path.read_text())["name"] == "Q4"


class TestAnalyze:
    def test_grouping_payload(self, capsys):
        status, out, _ = run_cli(capsys, ["analyze", "--code", "Q4"])
        assert status == 0
        data = json.loads(out)
        assert data["grouping"] == [[1, 4], [2, 3], [5, 8], [6, 7]]
        assert data["symbols_per_group"] == 2
        table = data["qo_table"]
        assert len(table) == 8 and len(table[0]) == 8
        assert table[0][0] is False and table[0][1] is True


class TestTransform:
    def test_gclt_reproduces_catalog_variant(self, capsys):
        theta = math.degrees(0.5 * math.atan(0.5))
        status, out, _ = run_cli(capsys, ["transform", "--code", "Q4",
                                          "--gclt-theta", repr(theta)])
        assert status == 0
        data = json.loads(out)
        dispersion, _ = decode_code_json(data)
        want = catalog.build("Q4_LT")
        assert np.abs(dispersion - want.dispersion).max() < 1e-12
        assert data["transform"]["type"] == "gclt"
        assert data["transform"]["theta"]["deg"][0] == pytest.approx(theta)

    def test_cr_reproduces_catalog_variant(self, capsys):
        status, out, _ = run_cli(capsys, ["transform", "--code", "Q4",
                                          "--cr-angle", "45",
                                          "--cr-symbols", "3,4"])
        assert status == 0
        dispersion, grouping = decode_code_json(json.loads(out))
        want = catalog.build("Q4_CR").dispersion
        assert np.abs(dispersion - want).max() < 1e-12
        assert grouping == ((1, 4, 5, 8), (2, 3, 6, 7))
        assert analysis.components_from_stack(dispersion) == grouping

    def test_quad_group_mixing(self, capsys):
        args = ["transform", "--code", "T8", "--gclt-givens",
                "-45.66", "9.13", "37.78", "9.43", "44.24", "-46.11"]
        status, out, _ = run_cli(capsys, args)
        assert status == 0
        data = json.loads(out)
        assert data["grouping"][0] == [1, 4, 6, 7]
        assert data["transform"]["angles"]["deg"][0] == pytest.approx(-45.66)

    def test_pair_mixing_rejected_on_quad_groups(self, capsys):
        status, _, err = run_cli(capsys, ["transform", "--code", "T8",
                                          "--gclt-theta", "10"])
        assert status == 1
        assert "needs a 4x4 mixing matrix" in err

    def test_requires_exactly_one_transform(self, capsys):
        status, _, err = run_cli(capsys, ["transform", "--code", "Q4"])
        assert status == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("argv", [
        ["--code", "Q4", "--gclt-theta", "inf"],
        ["--code", "T8", "--gclt-givens", "0", "0", "inf", "0", "0", "0"],
    ])
    def test_non_finite_angle_names_the_option(self, capsys, argv):
        status, _, err = run_cli(capsys, ["transform"] + argv)
        assert status == 1
        assert argv[2] in err and "inf is not finite" in err

    def test_cr_needs_symbols(self, capsys):
        status, _, err = run_cli(capsys, ["transform", "--code", "Q4",
                                          "--cr-angle", "45"])
        assert status == 1
        assert "cr-symbols" in err

    def test_cr_symbols_need_the_cr_angle(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        status, stdout, err = run_cli(capsys, [
            "transform", "--code", "Q4", "--gclt-theta", "10",
            "--cr-symbols", "1,2", "--out", str(out)])
        assert status == 1 and stdout == ""
        assert err.startswith("--cr-symbols requires --cr-angle\n")
        assert not out.exists()


class TestGainCommands:
    def test_divprod_mixed_four_antenna(self, capsys):
        status, out, _ = run_cli(capsys, ["divprod", "--code", "Q4_LT",
                                          "--mod", "4qam"])
        assert status == 0
        data = json.loads(out)
        assert data["zeta"] == pytest.approx(0.3344, abs=1e-3)
        assert data["full_diversity"] is True

    def test_mindet_within_group(self, capsys):
        status, out, _ = run_cli(capsys, ["mindet", "--code", "Q4", "--mod",
                                          "4qam"])
        assert status == 0
        data = json.loads(out)
        assert data["min_det"] == pytest.approx(0.0, abs=1e-9)
        assert len(data["per_group"]) == 4

    def test_mindet_budget_exit_code(self, capsys):
        status, _, err = run_cli(capsys, ["mindet", "--code", "T8", "--mod",
                                          "16qam", "--scope", "full"])
        assert status == 3
        assert "exceeds budget" in err

    def test_sweep_theta_csv(self, capsys):
        status, out, _ = run_cli(capsys, ["sweep-theta", "--mod", "4qam",
                                          "--step", "0.5"])
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",")[:2] == ["theta_deg", "min_det"]
        rows = [line.split(",") for line in lines[2:]]
        best = max(rows, key=lambda r: float(r[1]))
        assert abs(float(best[0]) - 13.2825) <= 0.5

    def test_csv_line_keeps_signed_zeros_apart(self):
        # a repeated value is formatted once, but 0.0 == -0.0 must not
        # merge the two zeros
        x = 0.1 + 0.2
        assert (cli._csv_line([0.0, -0.0, x, x])
                == "0.0,-0.0,0.30000000000000004,0.30000000000000004")
        assert cli._csv_line([-0.0, 0.0]) == "-0.0,0.0"

    def test_search_t8_reports_angles(self, capsys):
        status, out, _ = run_cli(capsys, ["search-t8", "--starts", "2",
                                          "--seed", "1", "--workers", "1"])
        assert status == 0
        data = json.loads(out)
        assert len(data["angles"]["deg"]) == 6
        assert data["zeta"] > 0.0


class TestSimulateCommand:
    ARGS = ["simulate", "--code", "Q4_LT", "--mod", "4qam", "--nr", "1",
            "--snr", "0:4:8", "--seed", "7", "--min-errors", "100",
            "--max-uses", "8192"]

    def test_csv_shape(self, capsys):
        status, out, _ = run_cli(capsys, self.ARGS)
        assert status == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # echo + header + 3 points
        assert lines[1].split(",")[0] == "code"

    def test_byte_identical_across_runs_and_workers(self, capsys):
        _, a, _ = run_cli(capsys, self.ARGS + ["--workers", "1"])
        _, b, _ = run_cli(capsys, self.ARGS + ["--workers", "1"])
        _, c, _ = run_cli(capsys, self.ARGS + ["--workers", "3"])
        assert a == b == c

    def test_mixed_modulation_curves(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        args = ["simulate", "--code", "Q4_LT,G4C:16qam", "--mod", "4qam",
                "--snr", "0:4:4", "--seed", "3", "--min-errors", "50",
                "--max-uses", "4096", "--svg", str(svg)]
        status, out, _ = run_cli(capsys, args)
        assert status == 0
        body = out.strip().split("\n")
        assert any(row.startswith("G4C,16qam") for row in body)
        assert any(row.startswith("Q4_LT,4qam") for row in body)
        assert svg.read_text().count("<polyline") == 2

    def test_svg_of_a_single_ber_decade(self, capsys, tmp_path):
        # the one point has BER 0.1 (4 of 40 bits), so the plot's BER range
        # is a single power of ten until the plot widens it
        csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
        status, _, err = run_cli(capsys, [
            "simulate", "--code", "Q4", "--snr", "0:1:0", "--max-uses", "5",
            "--min-errors", "1", "--seed", "10", "--workers", "1",
            "--out", str(csv), "--svg", str(svg)])
        assert (status, err) == (0, "")
        assert csv.read_text().splitlines()[2].split(",")[4:7] == [
            "40", "4", "0.1"]
        assert svg.read_text().count("<polyline") == 1

    def test_bad_snr_grid(self, capsys):
        status, _, err = run_cli(capsys, ["simulate", "--code", "Q4",
                                          "--snr", "10:2:0"])
        assert status == 1


class TestErrors:
    def test_unknown_code(self, capsys):
        status, _, err = run_cli(capsys, ["analyze", "--code", "Q99"])
        assert status == 1
        assert "unknown code" in err

    def test_unknown_flag(self, capsys):
        status, _, err = run_cli(capsys, ["analyze", "--code", "Q4",
                                          "--bogus"])
        assert status == 1

    def test_unknown_modulation(self, capsys):
        status, _, err = run_cli(capsys, ["divprod", "--code", "Q4", "--mod",
                                          "9qam"])
        assert status == 1

    def test_unwritable_output_path(self, capsys):
        status, _, err = run_cli(capsys, ["catalog", "--code", "Q4", "--out",
                                          "/nonexistent-dir/q4.json"])
        assert status == 1
        assert err.strip()


    def test_failed_open_keeps_the_existing_file(self, capsys, monkeypatch,
                                                 tmp_path):
        # e.g. a read-only file for a user other than root: open() fails
        # before truncating, so the file must survive
        path = tmp_path / "keep.json"
        path.write_text("old\n")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        status, _, err = run_cli(capsys, ["catalog", "--code", "Q4", "--out",
                                          str(path)])
        assert status == 1
        assert "Permission denied" in err and "Traceback" not in err
        assert path.read_text() == "old\n"

    def test_failed_write_removes_the_truncated_file(self, capsys,
                                                     monkeypatch, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError(28, "No space left on device")

        def full_disk(*args, **kwargs):
            return FullDisk(open(*args, **kwargs))

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        status, _, err = run_cli(capsys, ["catalog", "--code", "Q4", "--out",
                                          str(path)])
        assert status == 1 and "No space left" in err
        assert not path.exists()


SIMULATE = ["simulate", "--code", "Q4", "--max-uses", "4096"]


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--snr", "0:2:4", "--nr", "0"],
    SIMULATE + ["--snr", "0:2:4", "--nr", "-1"],
    SIMULATE + ["--snr", "0:1:1", "--nr", str(simulate.MAX_NR + 1)],
    SIMULATE + ["--snr", "0:1:1", "--nr", "100000000"],
    SIMULATE + ["--snr", "0:1:inf"],
    SIMULATE + ["--snr", "0:nan:4"],
    ["sweep-theta", "--mod", "4qam", "--step", "0"],
    ["sweep-theta", "--mod", "4qam", "--step", "-1"],
    ["sweep-theta", "--mod", "4qam", "--step", "nan"],
    ["search-t8", "--starts", "1", "--workers", "0"],
    ["search-t8", "--starts", "1", "--workers", "-1"],
    SIMULATE + ["--snr", "0:1e-6:1"],
    SIMULATE + ["--snr", "4000:1:4000"],
    SIMULATE + ["--snr", "-1e308:1:1e308"],
    SIMULATE + ["--snr", "1e16:1:1e16"],
    SIMULATE + ["--snr", "1e308:1:1e308"],
    ["sweep-theta", "--mod", "4qam", "--step", "1e-6"],
    ["search-t8", "--workers", "1000000", "--starts", "1000000"],
    ["search-t8", "--starts", "1", "--workers", "1000000"],
    ["search-t8", "--starts", str(cli.MAX_STARTS + 1)],
    SIMULATE + ["--snr", "0:2:4", "--workers", str(cli.MAX_WORKERS + 1)],
    ["verify", "--ber", "--workers", "100000"],
    ["search-t8", "--starts", "1", "--seed", "-1", "--workers", "2"],
    ["transform", "--code", "Q4", "--gclt-theta", "nan"],
    ["transform", "--code", "Q4", "--gclt-theta", "inf"],
    ["transform", "--code", "T8", "--gclt-givens", "inf", "0", "0", "0", "0",
     "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_bad_input_exits_one_without_output(capsys, monkeypatch, tmp_path,
                                            argv):
    def no_threads(*args, **kwargs):
        raise AssertionError("rejected input started a thread pool")

    # a rejected value must never reach a thread pool, even a huge one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_threads)
    out = tmp_path / "out.txt"
    # verify writes no artifact and has no --out option
    extra = [] if argv[0] == "verify" else ["--out", str(out)]
    status, stdout, err = run_cli(capsys, argv + extra)
    assert status == 1
    assert err.strip() and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


#: command lines run in turn through one parser; the third and fifth exit
#: with a usage error before the lines after them reuse the parser
REUSED_PARSER_LINES = [
    ["divprod", "--code", "Q4_LT", "--mod", "16qam"],
    ["mindet", "--code", "G4C", "--scope", "full"],
    ["divprod", "--code", "Q4", "--mod", "9qam"],
    ["divprod", "--code", "Q4"],
    ["sweep-theta", "--step", "nan"],
    ["sweep-theta", "--mod", "4qam", "--step", "5"],
    ["analyze", "--code", "Q4", "--bogus"],
    ["catalog", "--code", "G4C"],
]


def test_reused_parser_gives_the_bytes_of_fresh_ones(capsys):
    fresh = []
    for argv in REUSED_PARSER_LINES:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    assert [status for status, _, _ in fresh] == [0, 0, 1, 0, 1, 0, 1, 0]
    parser = cli.build_parser()
    assert [run_cli(capsys, argv) for argv in REUSED_PARSER_LINES] == fresh
    assert cli.build_parser() is parser


def test_largest_counts_are_accepted():
    args = cli.build_parser().parse_args(
        ["search-t8", "--starts", str(cli.MAX_STARTS),
         "--workers", str(cli.MAX_WORKERS)])
    assert (args.starts, args.workers) == (cli.MAX_STARTS, cli.MAX_WORKERS)
    assert 1 <= cli.build_parser().parse_args(["verify"]).workers \
        <= cli.MAX_WORKERS


#: ``divprod --code T8_CR --mod 16qam`` as printed by the unscreened scan,
#: which scored all 2 x 5 764 800 error patterns with the exact determinant
#: (114 s); the factor-form screen must reproduce it byte for byte
T8_CR_16QAM_DIVPROD = """{
  "code": "T8_CR",
  "mod": "16qam",
  "zeta": 0.0,
  "full_diversity": false,
  "min_det": 5.021352759028095e-14
}
"""


def test_divprod_t8_cr_16qam_is_pinned(capsys):
    status, out, _ = run_cli(capsys, ["divprod", "--code", "T8_CR",
                                      "--mod", "16qam"])
    assert status == 0
    assert out == T8_CR_16QAM_DIVPROD


@pytest.mark.parametrize("argv", [
    [cmd, "--code", "T8_CR", "--mod", mod]
    for cmd in ("divprod", "mindet") for mod in ("64qam", "256qam")
], ids=" ".join)
def test_within_group_budget_exits_three_without_output(capsys, tmp_path,
                                                        argv):
    # 15^8 - 1 and 31^8 - 1 patterns per group: rejected before any group
    # is scored
    out = tmp_path / "out.json"
    status, _, err = run_cli(capsys, argv + ["--out", str(out)])
    assert status == 3
    assert "exceeds budget" in err and "Traceback" not in err
    assert not out.exists()


def test_failed_plot_leaves_no_csv(capsys, tmp_path):
    out = tmp_path / "out.csv"
    status, _, err = run_cli(capsys, SIMULATE + [
        "--snr", "0:1:0", "--max-uses", "64", "--out", str(out),
        "--svg", str(tmp_path / "missing" / "plot.svg")])
    assert status == 1
    assert err.strip() and "Traceback" not in err
    assert not out.exists()


def test_plot_path_equal_to_the_csv_path_is_rejected(capsys, tmp_path,
                                                     monkeypatch):
    # the SVG would overwrite the CSV: the paths match once made absolute,
    # and the command stops before any chunk runs
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(simulate, "run_ber") as run_ber:
        status, stdout, err = run_cli(capsys, SIMULATE + [
            "--snr", "0:1:0", "--out", "out.csv",
            "--svg", str(tmp_path / "out.csv")])
    assert status == 1 and stdout == ""
    assert "would overwrite the CSV" in err
    assert not run_ber.called
    assert list(tmp_path.iterdir()) == []


def test_csv_and_plot_may_both_go_to_stdout(capsys):
    status, out, _ = run_cli(capsys, SIMULATE + [
        "--snr", "0:1:0", "--max-uses", "64", "--out", "-", "--svg", "-"])
    assert status == 0
    assert out.startswith("# qostbc simulate Q4/4qam")
    assert "<svg" in out


#: SHA-256 of code artifacts that no other test pins byte for byte
CODE_DIGESTS = {
    "catalog --all":
        "7c384679cdd999cbbfc8679e9b575c68baf11aeaa6872f7fda3424dd7304b4a4",
    "transform --code T8 --cr-angle 10 --cr-symbols 2,5,8":
        "48ad259f13b79c5979b7ad5e1ae6db0763f7dee912e96849cf9c581811a0585d",
}


@pytest.mark.parametrize("command", CODE_DIGESTS)
def test_code_artifact_is_pinned(capsys, command):
    status, out, _ = run_cli(capsys, command.split())
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CODE_DIGESTS[command]


def test_too_many_candidates_exits_three_without_output(capsys, tmp_path):
    out = tmp_path / "out.csv"
    status, _, err = run_cli(capsys, ["simulate", "--code", "T8_CR", "--mod",
                                      "64qam", "--snr", "0:2:4",
                                      "--out", str(out)])
    assert status == 3
    assert "cap" in err and "Traceback" not in err
    assert not out.exists()


#: ``qostbc verify`` stdout, pinned byte for byte: a drifted detail string
#: fails here even when every check still passes
VERIFY_STDOUT = """\
[pass] power traces: max deviation 1.78e-15
[pass] grouping regressions: mismatches: none
[pass] joint-detection sizes: mismatches: none
[pass] gram block-diagonality: max off-group ratio 1.66e-16
[pass] group mixing preserves grouping/power: 30 random specs
[pass] diversity products: max |zeta error| 1.10e-04
[pass] grouped vs exhaustive ML: 160 trials
[pass] modem round trip / unit energy: all orders
all verification checks passed
"""


def test_verify_passes(capsys):
    status, out, _ = run_cli(capsys, ["verify"])
    assert status == 0
    assert out == VERIFY_STDOUT


def flat_ber(config):
    """A stand-in for ``simulate.run_ber``: BER 0.5 at every SNR."""
    return simulate.BerCurve(config, tuple(
        simulate.BerPoint(snr, bits=1000, bit_errors=500, frames=10,
                          frame_errors=10) for snr in config.snr_db))


def test_verify_ber_reports_curves_that_never_cross_as_failures(capsys):
    with mock.patch.object(simulate, "run_ber", flat_ber):
        status, out, err = run_cli(capsys, ["verify", "--ber",
                                            "--workers", "1"])
    assert status == cli.EXIT_VERIFY
    assert out.startswith(VERIFY_STDOUT.rsplit("all verification", 1)[0])
    assert ("[FAIL] four-antenna gap at BER 1e-3: no SNR at BER 1e-3 for "
            "Q4_LT, Q4_CR\n") in out
    assert ("[FAIL] eight-antenna gap at BER 1e-3: no SNR at BER 1e-3 for "
            "Q8_LT, Q8_CR\n") in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("slope, want", [
    (None, {"full-diversity slope agreement": "no slope for Q4_LT, G4C",
            "unmixed code visibly shallower": "no slope for Q4, Q4_LT"}),
    (0.0, {"full-diversity slope agreement":
           "0.000 vs 0.000 per dB (within 25%, benchmark <= -0.3)",
           "unmixed code visibly shallower": "no slope for Q4_LT"}),
])
def test_ber_checks_without_a_usable_slope_fail_and_name_the_curve(slope,
                                                                   want):
    with mock.patch.object(simulate, "run_ber", flat_ber), \
            mock.patch.object(simulate, "final_decade_slope",
                              lambda curve: slope):
        results = {name: (ok, detail) for name, ok, detail
                   in checks.ber_relationships(workers=1)}
    assert len(results) == 4
    for name, detail in want.items():
        assert results[name] == (False, detail)


# --------------------------------------------------------------------------
# fuzzing: every command line drawn from a bounded, fast domain exits 0, 1
# or 3 without a traceback, and a failed run leaves no artifact

#: (valid, invalid) values of each drawn option; an example breaks at most
#: one option, so that most command lines get past parsing
OPTIONS = {
    "code": (catalog.CODE_NAMES, ("Q99", "", "q4")),
    "mod": (("4qam", "16qam", "64qam", "256qam"), ("9qam", "qam", "2qam")),
    "workers": ((1, 2), (0, -1, cli.MAX_WORKERS + 1, 10 ** 6)),
    "scope": (("within_group", "full"), ("everything",)),
    "angle": ((0.0, 10.0, -45.66, 13.2825, 89.75, 400.0),
              (math.nan, math.inf, -math.inf)),
    "symbols": (("1", "3,4", "4,5,6", "2,5,8"), ("0", "9", "1,1", "a", ",")),
    "step": ((1.0, 5.0, 15.0, 45.0, 100.0), (0.0, -1.0, math.nan, math.inf,
                                              1e-6)),
    "starts": ((1, 2), (0, -1, cli.MAX_STARTS + 1)),
    "seed": ((0, 5), (-1,)),
    "snr": (("0:5:10", "0:1:0", "-5:5:0"),
            ("10:2:0", "0:nan:4", "4000:1:4000", "0:0:4", "0:1")),
    "nr": ((1, 2), (0, -1, simulate.MAX_NR + 1)),
    "min-errors": ((1, 20), (0, -3)),
    "max-uses": ((64, 256), (0, -1)),
}
#: (code, mod, scope) searches that would take seconds; every other drawn
#: search finishes fast or is rejected before it starts
SLOW_GAIN = {("T8_CR", "16qam", "within_group")} | {
    (name, "256qam", "within_group") for name in ("Q8_CR", "T8", "T8_LT")} | {
    (name, "16qam", "full") for name in ("Q4", "Q4_CR", "Q4_LT", "G4C")}
COMMANDS = {
    "catalog": ("code",), "analyze": ("code",),
    "transform": ("code", "angle", "symbols"),
    "mindet": ("code", "mod", "scope"), "divprod": ("code", "mod"),
    "sweep-theta": ("mod", "step"), "search-t8": ("starts", "seed", "workers"),
    "simulate": ("code", "mod", "snr", "nr", "seed", "min-errors",
                 "max-uses", "workers"),
    "verify": ("workers",),
}


@st.composite
def command_lines(draw):
    """(argv, workers): a command line and the --workers value it passes,
    or None."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = COMMANDS[command]
    broken = draw(st.sampled_from((None,) + names))
    value = {name: draw(st.sampled_from(OPTIONS[name][name == broken]))
             for name in names}
    text = {name: repr(v) if isinstance(v, float) else str(v)
            for name, v in value.items()}
    if command in ("mindet", "divprod"):
        if (value["code"], value["mod"], value.get("scope", "within_group")) \
                in SLOW_GAIN:
            text["mod"] = "4qam"
    if command == "transform":
        kind = draw(st.sampled_from(("gclt-theta", "gclt-givens", "cr-angle",
                                     "none", "two")))
        argv = ["transform", f"--code={text['code']}"]
        if kind in ("gclt-theta", "two"):
            argv += [f"--gclt-theta={text['angle']}"]
        if kind in ("gclt-givens", "two"):
            argv += ["--gclt-givens"] + [text["angle"]] * 6
        if kind == "cr-angle":
            argv += [f"--cr-angle={text['angle']}",
                     f"--cr-symbols={text['symbols']}"]
        return argv, None
    if command == "simulate":
        text["code"] += draw(st.sampled_from(("", ",Q4_LT", ":16qam")))
    if command == "verify":
        # the Monte Carlo checks take most of a minute: only a rejected
        # worker count reaches --ber
        if value["workers"] in OPTIONS["workers"][0]:
            return ["verify"], None
        return ["verify", "--ber", f"--workers={text['workers']}"], \
            value["workers"]
    if command == "catalog" and draw(st.booleans()):
        return ["catalog", "--all"], None
    # --name=value keeps a negative value from reading as an option
    return ([command] + [f"--{name}={text[name]}" for name in names],
            value.get("workers"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command_lines(), st.sampled_from((None, "plot.svg", "no/plot.svg")))
def test_fuzzed_command_lines_fail_cleanly(case, plot):
    argv, workers = case
    rejected = workers is not None and not 1 <= workers <= cli.MAX_WORKERS
    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(*args, **kwargs):
        pools.append(args or kwargs)
        return real_pool(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor",
                              recording_pool), \
            mock.patch.object(simulate, "ThreadPoolExecutor",
                              recording_pool), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        out = os.path.join(tmp, "out")
        if argv[0] != "verify":
            argv = argv + ["--out", out]
        if argv[0] == "simulate" and plot:  # no/ does not exist
            argv = argv + ["--svg", os.path.join(tmp, plot)]
        status = cli.main(argv)
        assert status in (0, 1, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if status != 0:
            assert not os.path.exists(out), argv
        if rejected:
            assert status == 1 and not pools, argv


def test_library_value_error_prints_the_help_hint(capsys, tmp_path):
    # a bad value the library rejects is bad input like an unknown flag:
    # one message, then the hint, exit 1 and no artifact
    out = tmp_path / "out.json"
    status, stdout, err = run_cli(capsys, [
        "transform", "--code", "Q4", "--cr-angle", "45", "--cr-symbols", "9",
        "--out", str(out)])
    assert status == 1 and stdout == ""
    assert err == ("symbol index 9 outside 1..4\n"
                   "run 'qostbc --help' for usage\n")
    assert not out.exists()


#: BLAS thread variables the package sets on import unless already set
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: imports the package in a fresh interpreter and prints each BLAS variable
#: as numpy saw it when numpy was first imported
BLAS_PROBE = """
import json, os, sys
seen = {}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in %r)
sys.meta_path.insert(0, Probe())
import qostbc
print(json.dumps(seen))
""" % (BLAS_VARS,)


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_package_import_sets_one_blas_thread_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    run = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == dict.fromkeys(BLAS_VARS, want)


#: glibc's own settings of the heap thresholds the package fixes on import
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "GLIBC_TUNABLES")

#: in a fresh interpreter, prints the minor page faults of each of the
#: first six 4096-frame 4-QAM chunks of the code named by argv[1] at the
#: receive-antenna count argv[2]
FAULT_PROBE = """
import json, resource, sys
from qostbc import build, make_qam, simulate
code, nr, qam = build(sys.argv[1]), int(sys.argv[2]), make_qam(4)
faults = []
for chunk in range(6):
    rng = simulate._chunk_rng(0, 0, chunk)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate._simulate_chunk(code, qam, nr, 10.0, rng, simulate.CHUNK_FRAMES)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def chunk_faults(name: str, nr: int) -> list:
    """:data:`FAULT_PROBE`'s page faults per chunk, at glibc's defaults
    aside from the package's own heap thresholds."""
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE, name, str(nr)],
                         env=env, capture_output=True, text=True, check=True)
    faults = json.loads(run.stdout)
    assert len(faults) == 6
    return faults


@pytest.mark.skipif(not on_glibc(), reason="the heap policy is glibc's")
def test_steady_state_chunks_fault_almost_no_pages():
    # at glibc's drifting defaults each of these chunks faulted 1 574 pages
    # in, as the heap was trimmed and mapped again
    faults = chunk_faults("T8_CR", 1)
    assert all(count < 64 for count in faults[2:]), faults


@pytest.mark.skipif(not on_glibc(), reason="the heap policy is glibc's")
def test_steady_state_blocked_chunks_fault_almost_no_pages():
    # T8_LT at nr = 2 runs each chunk in several blocks of frames, whose
    # arrays the heap reuses from block to block and chunk to chunk
    faults = chunk_faults("T8_LT", 2)
    assert all(count < 64 for count in faults[2:]), faults


class TestHeapPolicy:
    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """Stands a recorder in for the C library; nothing reaches glibc."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: mock.Mock(mallopt=mallopt))
        return calls

    @pytest.mark.parametrize("preset", [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES":
         "glibc.cpu.hwcaps=-AVX2:glibc.malloc.trim_threshold=0"},
    ])
    def test_a_preset_glibc_variable_leaves_the_heap_alone(self, preset,
                                                           mallopt_calls):
        assert qostbc._fix_malloc_thresholds(preset) is False
        assert mallopt_calls == []

    @pytest.mark.skipif(not on_glibc(), reason="the heap policy is glibc's")
    @pytest.mark.parametrize("environ", [
        {}, {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2"}])
    def test_fixes_glibc_thresholds_at_its_ceiling(self, environ,
                                                   mallopt_calls):
        # M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at twice it
        assert qostbc._fix_malloc_thresholds(environ) is True
        assert mallopt_calls == [(-3, 32 << 20), (-1, 64 << 20)]
