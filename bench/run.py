"""qostbc benchmark: BER campaigns and coding-gain searches.

Run one workload in a fresh process and print its metrics::

    python3 bench/run.py --workload ber_detect [--seed 7] [--seconds 40] \\
        [--trace 0]

Workloads (single-threaded: ``--workers 1`` and OpenBLAS held at 1 thread):

``ber_detect``
    Three ``simulate`` curves at nr=1 where grouped ML detection dominates
    chunk time (256 candidates x 8 rails, 256 x 4, 64 x 2).
``ber_channel``
    Three ``simulate`` curves at nr=2 where the equivalent channel dominates
    and detection has at most 4 candidates per rail group.
``gain_search``
    The coding-gain calls (``divprod``, ``mindet --scope full``,
    ``sweep-theta``, ``search-t8``, ``search_q8_cr_angle``); never calls the
    decoder or the simulator.

The seed drives the ``simulate --seed`` of every BER curve and the
``search-t8 --seed`` of the gain workload; the other gain calls take no seed.

Untraced runs (``--trace 0``) repeat whole passes over the workload's tasks
until ``--seconds`` is used up, then report the fastest repetition of each
task, scaled to its reference size for BER curves. Only the program's calls
are timed; the checks below run after the clock stops. Set-up (import, code
build, constellation, expansion stacks) is timed in fresh interpreters, a few
before the passes and one after each task, and reported as their median.
Every artifact is checked:

* against the SHA-256 pinned in ``bench/pins.json`` when one exists for it
  (always for the seedless gain calls, for the pinned seeds otherwise);
* for equal bytes on every repetition within the run;
* ``simulate`` CSVs for their count invariants and for BER agreement with
  the pooled reference curves of the pinned seeds;
* ``search-t8`` by re-scoring its angles through the public mixing and
  diversity-product functions.

Traced runs (``--trace 1``) time each layer from outside: the BER curves are
rebuilt chunk by chunk from public calls (RNG draws, ``modulate``,
``equivalent_channel_batch``, transmission, ``detect_from_equivalent_batch``,
``demap``), and that replica must reproduce the CLI's counts exactly; the
gain calls are made directly through ``qostbc.gain``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the machine facts, every artifact digest and a readable summary.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Must be set before numpy is imported: every workload runs single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"

if not (SRC / "qostbc" / "__init__.py").is_file():
    raise SystemExit(f"bench: no qostbc sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qostbc import analysis, catalog, cli, decoder, gain, modem  # noqa: E402
from qostbc import simulate, transforms  # noqa: E402

if Path(catalog.__file__).resolve().parent != SRC / "qostbc":
    raise SystemExit(f"bench: qostbc imported from {catalog.__file__}, "
                     f"not from {SRC}")

DEFAULT_SEED = 7
MIN_ERRORS = 200
MAX_USES = 2_000_000
SETUP_PROBES = 4
#: largest |log BER ratio| / its standard error accepted against the
#: pooled reference curve; a broken detector lands far beyond it
BER_Z_LIMIT = 8.0
#: relative tolerance when re-scoring a search-t8 result
ZETA_RTOL = 1e-9

STAGES = ("rng", "modulate", "equivalent_channel", "transmit", "detect",
          "demap", "count")


# --------------------------------------------------------------------------
# workload definitions

@dataclass(frozen=True)
class Curve:
    """One ``simulate`` curve; ``snr`` is the CLI's start:step:stop grid."""

    code: str
    mod: str
    nr: int
    snr: str

    @property
    def key(self) -> str:
        return f"simulate {self.code}:{self.mod} nr={self.nr} snr={self.snr}"

    def argv(self, seed: int, workers: int = 1) -> list:
        return ["simulate", "--code", self.code, "--mod", self.mod,
                "--nr", str(self.nr), "--snr", self.snr, "--seed", str(seed),
                "--min-errors", str(MIN_ERRORS), "--max-uses", str(MAX_USES),
                "--workers", str(workers)]

    def grid(self) -> tuple:
        """The SNR grid exactly as the CLI expands it."""
        start, step, stop = (float(p) for p in self.snr.split(":"))
        grid, value = [], start
        while value <= stop + 1e-9:
            grid.append(round(value, 10))
            value += step
        return tuple(grid)


#: placeholder in a call's argv for the benchmark seed
SEED = "<seed>"


@dataclass(frozen=True)
class Call:
    """One artifact-producing call: a CLI argv, or ``search_q8_cr_angle``
    (which has no subcommand) when ``argv`` is empty. ``seeded`` artifacts
    depend on the seed."""

    key: str
    argv: tuple = ()
    curve: Curve = None

    @property
    def seeded(self) -> bool:
        return self.curve is not None or SEED in self.argv

    def run(self, seed: int, workers: int = 1) -> str:
        """The artifact text; raises RuntimeError on a nonzero exit."""
        if self.curve is not None:
            argv = self.curve.argv(seed, workers)
        elif self.argv:
            argv = [str(seed) if a == SEED else a for a in self.argv]
        else:
            return repr(gain.search_q8_cr_angle()) + "\n"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"exit {status}: {err.getvalue().strip()}")
        return out.getvalue()


@dataclass(frozen=True)
class Task:
    """A timed group of calls."""

    name: str
    calls: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple
    codes: tuple
    mods: tuple

    @property
    def curves(self) -> tuple:
        return tuple(c.curve for t in self.tasks for c in t.calls if c.curve)


def _ber_workload(name: str, curves) -> Workload:
    tasks = tuple(Task(c.key, (Call(c.key, curve=c),)) for c in curves)
    return Workload(name, tasks, tuple(dict.fromkeys(c.code for c in curves)),
                    tuple(dict.fromkeys(c.mod for c in curves)))


#: (code, mod) pairs of the divprod task; T8_CR at 16-QAM is excluded (it
#: runs for minutes with a 1.8 GiB peak and no budget guard)
DIVPROD_CASES = tuple(
    (code, mod) for mod in ("4qam", "16qam") for code in catalog.CODE_NAMES
    if (code, mod) != ("T8_CR", "16qam")
)
MINDET_FULL = ("Q8_LT", "4qam")
SWEEP = ("16qam", "0.01")
T8_STARTS = 8


WORKLOADS = {
    "ber_detect": _ber_workload("ber_detect", (
        Curve("T8_CR", "4qam", 1, "0:3:12"),
        Curve("Q4_CR", "16qam", 1, "0:4:24"),
        Curve("Q4_LT", "64qam", 1, "0:5:30"),
    )),
    "ber_channel": _ber_workload("ber_channel", (
        Curve("Q8_LT", "4qam", 2, "0:2:8"),
        Curve("T8_LT", "4qam", 2, "0:2:8"),
        Curve("G4C", "16qam", 2, "0:4:12"),
    )),
    "gain_search": Workload(
        "gain_search",
        (
            Task("divprod", tuple(
                Call(f"divprod {c}:{m}", ("divprod", "--code", c, "--mod", m))
                for c, m in DIVPROD_CASES)),
            Task("mindet_full", (Call(
                f"mindet {MINDET_FULL[0]}:{MINDET_FULL[1]} full",
                ("mindet", "--code", MINDET_FULL[0], "--mod", MINDET_FULL[1],
                 "--scope", "full")),)),
            Task("sweep_theta", (Call(
                f"sweep-theta {SWEEP[0]} step={SWEEP[1]}",
                ("sweep-theta", "--mod", SWEEP[0], "--step", SWEEP[1])),)),
            Task("search_t8", (Call(
                f"search-t8 starts={T8_STARTS}",
                ("search-t8", "--starts", str(T8_STARTS), "--seed", SEED,
                 "--workers", "1")),)),
            Task("search_q8_cr", (Call("search_q8_cr_angle"),)),
        ),
        catalog.CODE_NAMES,
        ("4qam", "16qam"),
    ),
}


# --------------------------------------------------------------------------
# artifact checks

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: Path = PINS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digest(pins: dict, call: Call, seed: int):
    """The pinned digest of a call's artifact, or None if none is pinned."""
    if call.seeded:
        return pins.get("seeded", {}).get(call.key, {}).get(str(seed))
    return pins.get("fixed", {}).get(call.key)


def parse_curve_csv(text: str) -> list:
    """Rows of a single-curve simulate CSV as dicts of column strings."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# qostbc simulate "):
        raise ValueError("missing simulate CSV echo line")
    header = lines[1].split(",")
    if tuple(header) != simulate.CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[1]!r}")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def curve_counts(text: str) -> list:
    """(snr_db, bits, bit_errors, frames, frame_errors) per CSV row."""
    return [(float(r["snr_db"]), int(r["bits"]), int(r["bit_errors"]),
             int(r["frames"]), int(r["frame_errors"]))
            for r in parse_curve_csv(text)]


def check_curve(curve: Curve, seed: int, text: str, reference) -> list:
    """Problems found in a simulate CSV (empty when it is sound)."""
    code = catalog.build(curve.code)
    qam = modem.parse_modulation(curve.mod)
    rows = parse_curve_csv(text)
    grid = curve.grid()
    if [float(r["snr_db"]) for r in rows] != list(grid):
        return [f"SNR column differs from grid {grid}"]
    problems = []
    for row in rows:
        snr = row["snr_db"]
        bits, be = int(row["bits"]), int(row["bit_errors"])
        frames, fe = int(row["frames"]), int(row["frame_errors"])
        if (row["code"], row["mod"], row["nr"], row["seed"]) != (
                curve.code, curve.mod, str(curve.nr), str(seed)):
            problems.append(f"{snr} dB: config columns {row}")
        if bits != frames * code.K * qam.bits_per_symbol:
            problems.append(f"{snr} dB: bits {bits} != frames x bits/frame")
        if not (0 <= fe <= frames and fe <= be <= bits):
            problems.append(f"{snr} dB: inconsistent error counts")
        if be < MIN_ERRORS and frames < MAX_USES:
            problems.append(f"{snr} dB: stopped before the error budget")
        if frames % simulate.CHUNK_FRAMES and frames != MAX_USES:
            problems.append(f"{snr} dB: {frames} frames is not whole chunks")
        if row["ber"] != str(be / bits) or row["fer"] != str(fe / frames):
            problems.append(f"{snr} dB: BER/FER columns disagree with counts")
    if reference is not None and not problems:
        problems += _check_against_reference(rows, reference)
    return problems


def _check_against_reference(rows, reference) -> list:
    """BER agreement with a pooled reference curve.

    The standard error of log BER is taken from the frame-error counts,
    since bit errors arrive in bursts within an erroneous frame.
    """
    problems = []
    for row, (snr, ref_bits, ref_be, ref_fe) in zip(rows, reference):
        be, fe = int(row["bit_errors"]), int(row["frame_errors"])
        if be == 0 or ref_be == 0:
            continue
        ratio = (be / int(row["bits"])) / (ref_be / ref_bits)
        z = abs(math.log(ratio)) / math.sqrt(1.0 / fe + 1.0 / ref_fe)
        if z > BER_Z_LIMIT:
            problems.append(f"{snr} dB: BER {be / int(row['bits']):.3e} is "
                            f"{z:.1f} standard errors from the reference")
    return problems


def check_search_t8(text: str) -> list:
    """Re-score the reported angles through the public mixing functions."""
    payload = json.loads(text)
    base = catalog.build("T8")
    spec = transforms.GcltSpec.givens_4d_spec(base.grouping,
                                              payload["angles"]["rad"])
    zeta = gain.diversity_product(transforms.apply_gclt(base, spec),
                                  modem.make_qam(4)).zeta
    if not math.isclose(zeta, payload["zeta"], rel_tol=ZETA_RTOL):
        return [f"angles score zeta {zeta!r}, reported {payload['zeta']!r}"]
    return []


class Checker:
    """Counts attempted and failed artifacts and records their digests."""

    def __init__(self, pins: dict, seed: int):
        self.pins = pins
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def fail(self, key: str, problem: str):
        self.failed += 1
        print(f"FAIL {key}: {problem}", file=sys.stderr)

    def run(self, call: Call, workers: int = 1):
        """Make one call and check its artifact; returns the text or None."""
        return self.check(call, self.make(call, workers))

    def make(self, call: Call, workers: int = 1):
        """Make one call; returns its artifact, or None if it failed."""
        self.attempted += 1
        try:
            return call.run(self.seed, workers)
        except Exception as exc:  # any failure of the program is counted
            self.fail(call.key, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, call: Call, text):
        """Check an artifact of ``make``; returns it, or None if it failed."""
        if text is None:
            return None
        problems = self.problems(call, text)
        for problem in problems:
            print(f"FAIL {call.key}: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return text

    def problems(self, call: Call, text: str) -> list:
        got = digest(text)
        problems = []
        want = pinned_digest(self.pins, call, self.seed)
        if want is not None and got != want:
            problems.append(f"digest {got} != pinned {want}")
        seen = self.digests.setdefault(call.key, got)
        if seen != got:
            problems.append(f"digest {got} differs from an earlier {seen}")
        try:
            if call.curve is not None:
                reference = self.pins.get("reference", {}).get(call.key)
                problems += check_curve(call.curve, self.seed, text,
                                        reference)
            elif call.argv[:1] == ("search-t8",):
                problems += check_search_t8(text)
        except (ValueError, KeyError) as exc:
            problems.append(f"malformed artifact: {exc}")
        return problems


# --------------------------------------------------------------------------
# set-up probe

def prepare(workload: Workload) -> dict:
    """Build what the workload's calls need; returns per-layer times (ms)."""
    t0 = perf_counter()
    codes = [catalog.build(name) for name in workload.codes]
    for mod in workload.mods:
        modem.parse_modulation(mod)
    t1 = perf_counter()
    for code in codes:
        analysis.expansion_stack(code)
    t2 = perf_counter()
    return {"build_ms": 1e3 * (t1 - t0), "expansion_stack_ms": 1e3 * (t2 - t1)}


class SetupProbe:
    """Times set-up in fresh interpreters, from process start to ready.

    Samples are taken between the timed tasks too, so that their median
    spans the machine's load over the whole run.
    """

    def __init__(self, workload: Workload):
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--probe-setup", "--workload", workload.name]
        self.walls, self.builds, self.stacks = [], [], []

    def sample(self):
        t0 = perf_counter()
        done = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, check=False)
        self.walls.append(perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        layer = json.loads(done.stdout.splitlines()[-1])
        self.builds.append(layer["build_ms"])
        self.stacks.append(layer["expansion_stack_ms"])

    def medians(self) -> dict:
        return {"setup_s": statistics.median(self.walls),
                "catalog.build_ms": statistics.median(self.builds),
                "analysis.expansion_stack_ms": statistics.median(self.stacks)}


# --------------------------------------------------------------------------
# untraced run

def reference_codewords(pins: dict, curve: Curve):
    """Mean codewords per seed of a curve over the pinned seeds, or None."""
    rows = pins.get("reference", {}).get(curve.key)
    if not rows:
        return None
    bits_per_codeword = (catalog.build(curve.code).K
                         * modem.parse_modulation(curve.mod).bits_per_symbol)
    return sum(r[1] for r in rows) / bits_per_codeword / len(pins["seeds"])


def run_untraced(workload: Workload, checker: Checker, seconds: float,
                 probe: SetupProbe):
    """Run the tasks round-robin until the next one would overrun the time,
    with a set-up probe after each task.

    Returns each task's times, as measured and at its reference size, and
    the codewords simulated per pass. The error stop rule makes the work of
    a BER curve depend on the seed, so a curve's time is scaled by its mean
    codewords over the pinned seeds divided by the codewords simulated
    here; its cost per codeword does not depend on the seed.
    """
    times = {task.name: [] for task in workload.tasks}
    scaled = {task.name: [] for task in workload.tasks}
    codewords = {}
    start = perf_counter()
    while True:
        for task in workload.tasks:
            if (times[task.name] and perf_counter() - start
                    + times[task.name][-1] > seconds):
                return times, scaled, sum(codewords.values())
            t0 = perf_counter()
            texts = [checker.make(call) for call in task.calls]
            elapsed = perf_counter() - t0
            texts = [checker.check(c, t) for c, t in zip(task.calls, texts)]
            times[task.name].append(elapsed)
            for call, text in zip(task.calls, texts):
                if call.curve is None or text is None:
                    continue
                done = sum(p[3] for p in curve_counts(text))
                codewords[call.key] = done
                ref = reference_codewords(checker.pins, call.curve)
                elapsed *= (ref or done) / done
            scaled[task.name].append(elapsed)
            probe.sample()


# --------------------------------------------------------------------------
# traced run

def replica_curve(curve: Curve, seed: int) -> dict:
    """Rebuild ``run_ber`` chunk by chunk from public calls, timing stages.

    Follows the simulator's determinism contract: chunk ``c`` of point ``i``
    draws bits, channel and noise, in that order, from
    ``Philox(SeedSequence([seed, i, c]))``.
    """
    code = catalog.build(curve.code)
    qam = modem.parse_modulation(curve.mod)
    stack = analysis.expansion_stack(code)
    nr, bps = curve.nr, qam.bits_per_symbol
    per_group = [qam.levels_per_rail ** len(g) for g in code.grouping]
    stage = dict.fromkeys(STAGES, 0.0)
    points, point_s = [], []
    chunks = candidates = peak_bytes = 0
    for i, snr in enumerate(curve.grid()):
        rho = 10.0 ** (snr / 10.0)
        gain_factor = math.sqrt(rho / code.nt)
        bit_errors = frame_errors = frames = bits = chunk_index = 0
        point_start = perf_counter()
        while bit_errors < MIN_ERRORS and frames < MAX_USES:
            n = min(simulate.CHUNK_FRAMES, MAX_USES - frames)
            t0 = perf_counter()
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([seed, i, chunk_index])))
            sent = rng.integers(0, 2, size=(n, code.K * bps))
            h = (rng.standard_normal((n, code.nt, nr))
                 + 1j * rng.standard_normal((n, code.nt, nr))) / math.sqrt(2.0)
            noise = rng.standard_normal((n, 2 * code.T * nr)) * math.sqrt(0.5)
            t1 = perf_counter()
            s = qam.modulate(sent)
            t2 = perf_counter()
            H = decoder.equivalent_channel_batch(code, h, stack)
            t3 = perf_counter()
            r = gain_factor * np.einsum("btp,bp->bt", H, s) + noise
            t4 = perf_counter()
            decided = decoder.detect_from_equivalent_batch(code, qam, H, r,
                                                           rho)
            t5 = perf_counter()
            received = qam.demap(decided)
            t6 = perf_counter()
            per_frame = (received != sent).sum(axis=1)
            bit_errors += int(per_frame.sum())
            frame_errors += int(np.count_nonzero(per_frame))
            frames += n
            bits += int(sent.size)
            t7 = perf_counter()
            for name, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                         t5 - t4, t6 - t5, t7 - t6)):
                stage[name] += dt
            chunk_index += 1
            chunks += 1
            candidates += n * sum(per_group)
            peak_bytes = max(peak_bytes, n * max(per_group) * 8)
        point_s.append(perf_counter() - point_start)
        points.append((snr, bits, bit_errors, frames, frame_errors))
    return {
        "counts": points,
        "stage_s": stage,
        "point_s": point_s,
        "chunks": chunks,
        "codewords": sum(p[3] for p in points),
        "candidates": candidates,
        "peak_candidate_bytes": peak_bytes,
    }


PER_LAYER = (
    ("decoder.detect_ms", "ms"),
    ("decoder.detect_share", "fraction"),
    ("decoder.candidates", "count"),
    ("decoder.peak_candidate_bytes", "B"),
    ("decoder.equivalent_channel_ms", "ms"),
    ("decoder.equivalent_channel_share", "fraction"),
    ("simulate.rng_ms", "ms"),
    ("simulate.transmit_ms", "ms"),
    ("simulate.count_ms", "ms"),
    ("modem.modulate_ms", "ms"),
    ("modem.demap_ms", "ms"),
    ("simulate.chunks", "count"),
    ("simulate.codewords", "count"),
    ("simulate.kcw_per_s", "kcw/s"),
    ("simulate.slowest_point_share", "fraction"),
    ("simulate.speedup_2w", "x"),
    ("gain.divprod_ms", "ms"),
    ("gain.min_det_full_s", "s"),
    ("gain.patterns", "count"),
    ("gain.sweep_theta_s", "s"),
    ("gain.search_t8_s", "s"),
    ("gain.search_q8_cr_s", "s"),
    ("catalog.build_ms", "ms"),
    ("analysis.expansion_stack_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
)


def trace_ber(workload: Workload, checker: Checker, seconds: float) -> dict:
    """Per-layer numbers of a BER workload, medians over traced passes."""
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        row = dict.fromkeys(("cli_s", "cli_2w_s", "replica_s"), 0.0)
        row.update(dict.fromkeys(STAGES, 0.0))
        counts = dict.fromkeys(("chunks", "codewords", "candidates"), 0)
        peak_bytes, slowest = 0, 0.0
        for curve in workload.curves:
            call = Call(curve.key, curve=curve)
            t0 = perf_counter()
            text = checker.make(call)
            t1 = perf_counter()
            text = checker.check(call, text)
            t2 = perf_counter()
            replica = replica_curve(curve, checker.seed)
            t3 = perf_counter()
            row["cli_s"] += t1 - t0
            row["replica_s"] += t3 - t2
            checker.attempted += 1
            if text is not None and replica["counts"] != curve_counts(text):
                checker.fail(curve.key, "replica counts differ from run_ber")
            t0 = perf_counter()
            text_2w = checker.make(call, workers=2)
            row["cli_2w_s"] += perf_counter() - t0
            checker.check(call, text_2w)  # must repeat the 1-worker bytes
            for name in STAGES:
                row[name] += replica["stage_s"][name]
            for name in counts:
                counts[name] += replica[name]
            peak_bytes = max(peak_bytes, replica["peak_candidate_bytes"])
            slowest = max(slowest,
                          max(replica["point_s"]) / sum(replica["point_s"]))
        passes.append(row)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    med = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    chunk_s = sum(med[name] for name in STAGES)
    return {
        "decoder.detect_ms": 1e3 * med["detect"],
        "decoder.detect_share": med["detect"] / chunk_s,
        "decoder.candidates": counts["candidates"],
        "decoder.peak_candidate_bytes": peak_bytes,
        "decoder.equivalent_channel_ms": 1e3 * med["equivalent_channel"],
        "decoder.equivalent_channel_share":
            med["equivalent_channel"] / chunk_s,
        "simulate.rng_ms": 1e3 * med["rng"],
        "simulate.transmit_ms": 1e3 * med["transmit"],
        "simulate.count_ms": 1e3 * med["count"],
        "modem.modulate_ms": 1e3 * med["modulate"],
        "modem.demap_ms": 1e3 * med["demap"],
        "simulate.chunks": counts["chunks"],
        "simulate.codewords": counts["codewords"],
        "simulate.kcw_per_s": counts["codewords"] / med["cli_s"] / 1e3,
        "simulate.slowest_point_share": slowest,
        "simulate.speedup_2w": med["cli_s"] / med["cli_2w_s"],
        "trace.overhead_frac": med["replica_s"] / med["cli_s"] - 1.0,
    }


def patterns_enumerated() -> int:
    """Error patterns enumerated by the divprod and mindet-full calls."""
    total = 0
    for code_name, mod in DIVPROD_CASES:
        code, qam = catalog.build(code_name), modem.parse_modulation(mod)
        mult = 2 * qam.levels_per_rail - 1
        total += sum(mult ** len(g) - 1 for g in code.grouping)
    code = catalog.build(MINDET_FULL[0])
    mult = 2 * modem.parse_modulation(MINDET_FULL[1]).levels_per_rail - 1
    return total + mult ** (2 * code.K) - 1


def trace_gain(workload: Workload, checker: Checker, seconds: float) -> dict:
    """Per-layer numbers of the gain workload: direct ``qostbc.gain`` calls,
    each compared with the CLI artifact of the same call."""
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        untraced = 0.0
        texts = {}
        for task in workload.tasks:
            t0 = perf_counter()
            for call in task.calls:
                texts[call.key] = checker.make(call)
            untraced += perf_counter() - t0
            for call in task.calls:
                texts[call.key] = checker.check(call, texts[call.key])
        row = _traced_gain_calls(texts, checker)
        row["untraced_s"] = untraced
        passes.append(row)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    med = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    traced = sum(v for k, v in med.items() if k != "untraced_s")
    return {
        "gain.divprod_ms": 1e3 * med["divprod"],
        "gain.min_det_full_s": med["mindet_full"],
        "gain.patterns": patterns_enumerated(),
        "gain.sweep_theta_s": med["sweep_theta"],
        "gain.search_t8_s": med["search_t8"],
        "gain.search_q8_cr_s": med["search_q8_cr"],
        "trace.overhead_frac": traced / med["untraced_s"] - 1.0,
    }


def _traced_gain_calls(texts: dict, checker: Checker) -> dict:
    """Time each gain call and compare its result with the CLI artifact."""
    row = {}

    def compare(key, same):
        checker.attempted += 1
        text = texts.get(key)
        if text is not None and not same(text):
            checker.fail(key, "direct gain call disagrees with the CLI")

    t0 = perf_counter()
    reports = {(c, m): gain.diversity_product(catalog.build(c),
                                              modem.parse_modulation(m))
               for c, m in DIVPROD_CASES}
    row["divprod"] = perf_counter() - t0
    for (c, m), rep in reports.items():
        compare(f"divprod {c}:{m}",
                lambda t, rep=rep: json.loads(t)["zeta"] == rep.zeta)

    code, mod = MINDET_FULL
    t0 = perf_counter()
    rep = gain.min_det_search(catalog.build(code),
                              modem.parse_modulation(mod), scope="full")
    row["mindet_full"] = perf_counter() - t0
    compare(f"mindet {code}:{mod} full",
            lambda t: json.loads(t)["min_det"] == rep.min_det)

    t0 = perf_counter()
    rows = list(gain.case_sweep_rows(modem.parse_modulation(SWEEP[0]),
                                     step_deg=float(SWEEP[1])))
    row["sweep_theta"] = perf_counter() - t0
    compare(f"sweep-theta {SWEEP[0]} step={SWEEP[1]}",
            lambda t: [line.split(",")[1] for line in t.splitlines()[2:]]
            == [str(overall) for _, overall, _ in rows])

    t0 = perf_counter()
    found = gain.search_t8_angles(starts=T8_STARTS, seed=checker.seed,
                                  workers=1)
    row["search_t8"] = perf_counter() - t0
    compare(f"search-t8 starts={T8_STARTS}",
            lambda t: json.loads(t)["zeta"] == found.zeta)

    t0 = perf_counter()
    q8 = gain.search_q8_cr_angle()
    row["search_q8_cr"] = perf_counter() - t0
    compare("search_q8_cr_angle", lambda t: t == repr(q8) + "\n")
    return row


# --------------------------------------------------------------------------
# reporting

def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        pins: dict = None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result object."""
    workload = WORKLOADS[workload_name]
    pins = load_pins() if pins is None else pins
    checker = Checker(pins, seed)
    print(f"bench {workload.name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print("machine " + json.dumps(machine_facts()))
    probe = SetupProbe(workload)
    for _ in range(probes):
        probe.sample()
    if trace:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        if workload.curves:
            layers.update(trace_ber(workload, checker, seconds))
        else:
            layers.update(trace_gain(workload, checker, seconds))
        layers.update((k, v) for k, v in probe.medians().items()
                      if k in layers)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        times, scaled, codewords = run_untraced(workload, checker, seconds,
                                                probe)
        # Other processes on the machine only ever add time, in episodes
        # that can cover a whole repetition; the fastest repetition of each
        # task is the steadiest estimate of the program's own cost.
        fastest = {name: min(ts) for name, ts in times.items()}
        metrics = {
            "setup_s": {"value": probe.medians()["setup_s"], "unit": "s"},
            "wall_s": {"value": sum(min(ts) for ts in scaled.values()),
                       "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "unit": "MiB"},
        }
        print(f"{len(probe.walls)} set-up probes; repetitions "
              + json.dumps({k: len(ts) for k, ts in times.items()})
              + "; fastest task times (s): "
              + json.dumps({k: round(v, 4) for k, v in fastest.items()}))
        if codewords:
            rate = codewords / sum(fastest.values()) / 1e3
            print(f"ber_kcw_per_s {rate:.4f} kcw/s "
                  f"({codewords} codewords per pass)")
    print("digests " + json.dumps(checker.digests, sort_keys=True))
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(f"failed_frac {checker.failed / max(checker.attempted, 1)} "
          f"({checker.failed}/{checker.attempted})")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        print(json.dumps(prepare(WORKLOADS[args.workload])))
        return 0
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
