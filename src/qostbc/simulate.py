"""Rayleigh flat-fading Monte Carlo engine for BER/FER curves.

Transmission model per codeword (quasi-static fading, one independent
channel draw per codeword, known at the receiver):

    r = sqrt(rho / Nt) * H s + noise

where H is the real equivalent channel of the drawn fading matrix, s holds
the 2K unit-average-energy QAM rails and the noise is white Gaussian with
unit variance per complex sample (0.5 per real rail). With the codes'
power-normalised dispersion matrices this makes rho the per-receive-antenna
SNR, independent of the number of transmit antennas.

Every stage takes a batch of n codewords, from (n, Nt, Nr) channels to
(n, 2K) decisions; one codeword is a batch of one. A chunk draws its bits,
channels and noise whole and detects them from each frame's channel
covariance over the decoder's blocks (:meth:`decoder.DetectionPlan.detect`):
it never forms the equivalent channel H, the received vector r or the full
Gram, which :func:`transmit` and :func:`decoder.detect_from_equivalent_batch`
still take. Demapping and counting run on the whole chunk.

Determinism contract: every SNR point consumes a sequence of fixed-size
chunks; chunk ``c`` of point ``i`` draws all its randomness from
``Philox(SeedSequence([seed, i, c]))`` in the order bits, channel, noise.
Results therefore depend only on (config, seed) -- never on scheduling or
the worker count, which parallelises across SNR points only. A "channel
use" is one codeword transmission.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .catalog import CodeDefinition, build
from .decoder import _check_batch, detection_plan
from .modem import Constellation, make_qam, modulation_name

#: codewords simulated per deterministic chunk
CHUNK_FRAMES = 4096

#: most threads a campaign here or a search in :mod:`qostbc.gain` may start
MAX_WORKERS = 256

#: most receive antennas a campaign may simulate; at this cap a T8 chunk
#: peaks at about 22 MiB of arrays, 16 MiB of them its channel and noise
#: draws
MAX_NR = 16

#: largest |SNR| in dB a campaign may simulate; 10^(snr/10) overflows a
#: float above about 3083 dB
MAX_SNR_DB = 1000.0

CSV_COLUMNS = ("code", "mod", "nr", "snr_db", "bits", "bit_errors", "ber",
               "frames", "frame_errors", "fer", "seed")


def draw_channel(rng: np.random.Generator, nt: int, nr: int,
                 n: int) -> np.ndarray:
    """An (n, Nt, Nr) stack of independent (Nt, Nr) channels of
    unit-variance circular complex Gaussian gains: the real parts are drawn
    first, then the imaginary parts, and both are scaled by 1/sqrt(2) in
    place (the bits of ``(a + 1j * b) / math.sqrt(2.0)``)."""
    h = np.empty((n, nt, nr), dtype=np.complex128)
    h.real = rng.standard_normal((n, nt, nr))
    h.imag = rng.standard_normal((n, nt, nr))
    h /= math.sqrt(2.0)
    return h


def transmit(code: CodeDefinition, H: np.ndarray, real_symbols: np.ndarray,
             rho: float, noise: np.ndarray) -> np.ndarray:
    """Send a batch of codewords: r = sqrt(rho/Nt) * H s + noise.

    ``H`` holds the equivalent channels (n, 2*T*Nr, 2K), ``real_symbols``
    the rails (n, 2K) and ``noise`` the stacked noise (n, 2*T*Nr), drawn by
    the caller with variance 0.5 per rail; ``rho`` must be finite and
    positive; no shape is broadcast. Returns the received batch.
    """
    noise = _check_batch(code, H, noise, rho, "noise")
    if np.shape(real_symbols) != (len(H), 2 * code.K):
        raise ValueError(f"symbols have shape {np.shape(real_symbols)}, "
                         f"expected ({len(H)}, {2 * code.K})")
    scale = math.sqrt(rho / code.nt)
    return scale * np.einsum("btp,bp->bt", H, real_symbols) + noise


@dataclass(frozen=True)
class SimConfig:
    code: str
    modulation: int
    nr: int = 1
    snr_db: tuple = ()
    min_bit_errors: int = 200
    max_channel_uses: int = 2_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        grid = tuple(float(v) for v in self.snr_db)
        object.__setattr__(self, "snr_db", grid)
        if not grid:
            raise ValueError("snr grid is empty")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ValueError("snr grid must be strictly increasing")
        if self.min_bit_errors <= 0 or self.max_channel_uses <= 0:
            raise ValueError("budgets must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")
        if not 1 <= self.nr <= MAX_NR:
            raise ValueError(f"nr must be between 1 and {MAX_NR}")
        if not all(abs(v) <= MAX_SNR_DB for v in grid):
            raise ValueError(f"snr points must lie within +-{MAX_SNR_DB} dB")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bits: int
    bit_errors: int
    frames: int
    frame_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames


@dataclass(frozen=True)
class BerCurve:
    config: SimConfig
    points: tuple


def _chunk_rng(seed: int, point_index: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, point_index, chunk_index]))
    )


def _decide_chunk(code: CodeDefinition, constellation: Constellation,
                  nr: int, rho: float, rng: np.random.Generator, n: int):
    """Draw n codewords from ``rng`` (bits, channels, noise, in that order),
    send and detect them; returns (bits, decided rails)."""
    bits = rng.integers(0, 2, size=(n, code.K * constellation.bits_per_symbol))
    h = draw_channel(rng, code.nt, nr, n)
    noise = rng.standard_normal((n, 2 * code.T * nr))
    noise *= math.sqrt(0.5)
    s = constellation.modulate(bits)
    return bits, detection_plan(code, constellation).detect(h, noise, s,
                                                             rho)


def _simulate_chunk(code: CodeDefinition, constellation: Constellation,
                    nr: int, rho: float, rng: np.random.Generator, n: int):
    """Simulate n codewords; returns (bit_errors, frame_errors, bits)."""
    bits, decided = _decide_chunk(code, constellation, nr, rho, rng, n)
    errors = constellation.demap(decided) != bits
    per_frame = errors.sum(axis=1)
    return int(per_frame.sum()), int(np.count_nonzero(per_frame)), int(bits.size)


def _run_point(code: CodeDefinition, constellation: Constellation,
               config: SimConfig, point_index: int) -> BerPoint:
    snr_db = config.snr_db[point_index]
    rho = 10.0 ** (snr_db / 10.0)
    bit_errors = frame_errors = frames = bits = 0
    chunk_index = 0
    while bit_errors < config.min_bit_errors and frames < config.max_channel_uses:
        n = min(CHUNK_FRAMES, config.max_channel_uses - frames)
        rng = _chunk_rng(config.seed, point_index, chunk_index)
        be, fe, nb = _simulate_chunk(code, constellation, config.nr, rho,
                                     rng, n)
        bit_errors += be
        frame_errors += fe
        frames += n
        bits += nb
        chunk_index += 1
    return BerPoint(
        snr_db=snr_db, bits=bits, bit_errors=bit_errors,
        frames=frames, frame_errors=frame_errors,
    )


def run_ber(config: SimConfig) -> BerCurve:
    """Run the Monte Carlo campaign described by ``config``.

    Each SNR point loops deterministic chunks (draw channel, random bits,
    modulate, encode, transmit, grouped ML detection, demap, count) until
    the bit-error or channel-use budget is met. Workers parallelise across
    SNR points; the curve is bit-identical for any worker count. Raises
    :class:`~qostbc.decoder.CandidateBudgetError` before any chunk runs when
    a symbol group has too many candidates for grouped detection.
    """
    code = build(config.code)
    constellation = make_qam(config.modulation)
    detection_plan(code, constellation)
    indices = range(len(config.snr_db))
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            points = list(pool.map(
                lambda i: _run_point(code, constellation, config, i),
                indices,
            ))
    else:
        points = [_run_point(code, constellation, config, i) for i in indices]
    return BerCurve(config=config, points=tuple(points))


# --------------------------------------------------------------------------
# artifacts

def curve_csv(curves) -> str:
    """CSV dump of a list of curves: config echo line, header, one row per
    SNR point."""
    echo = " ".join(
        f"{c.config.code}/{modulation_name(c.config.modulation)}"
        f"(nr={c.config.nr},seed={c.config.seed},"
        f"min_errors={c.config.min_bit_errors},"
        f"max_uses={c.config.max_channel_uses})"
        for c in curves
    )
    lines = [f"# qostbc simulate {echo}", ",".join(CSV_COLUMNS)]
    for curve in curves:
        cfg = curve.config
        for p in curve.points:
            lines.append(",".join(str(v) for v in (
                cfg.code, modulation_name(cfg.modulation), cfg.nr, p.snr_db,
                p.bits, p.bit_errors, p.ber, p.frames, p.frame_errors, p.fer,
                cfg.seed,
            )))
    return "\n".join(lines) + "\n"


def curve_svg(curves) -> str:
    """Minimal 640 x 480 standalone SVG of BER (log scale) versus SNR, one
    polyline per curve of a list. Zero-error points are omitted from their
    polyline."""
    width, height = 640, 480
    pts = [(c, [(p.snr_db, p.ber) for p in c.points if p.ber > 0.0])
           for c in curves]
    xs = [x for _, series in pts for x, _ in series]
    ys = [y for _, series in pts for _, y in series]
    if not xs:
        xs, ys = [0.0, 1.0], [1e-6, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = 10.0 ** math.floor(math.log10(min(ys)))
    y_hi = 10.0 ** math.ceil(math.log10(max(ys)))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:  # every BER the same power of ten
        y_hi = y_lo * 10.0
    margin, pw, ph = 50, width - 100, height - 100

    def sx(x):
        return margin + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return margin + ph * (math.log10(y_hi) - math.log10(y)) \
            / (math.log10(y_hi) - math.log10(y_lo))

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>',
    ]
    decade = int(math.log10(y_lo))
    while decade <= math.log10(y_hi):
        y = 10.0 ** decade
        parts.append(
            f'<line x1="{margin}" y1="{sy(y):.2f}" x2="{margin + pw}" '
            f'y2="{sy(y):.2f}" stroke="#ddd"/>'
            f'<text x="4" y="{sy(y) + 4:.2f}" font-size="11">1e{decade}</text>'
        )
        decade += 1
    for i, (curve, series) in enumerate(pts):
        color = colors[i % len(colors)]
        label = (f"{curve.config.code}/"
                 f"{modulation_name(curve.config.modulation)}")
        if series:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{margin + pw - 150}" y="{margin + 16 + 14 * i}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{margin + pw // 2 - 30}" y="{height - 10}" '
        'font-size="12">SNR (dB)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# curve analysis used by the reproduction checks

def snr_at_ber(curve: BerCurve, level: float):
    """SNR (dB) at which the curve crosses a BER level, log-interpolated.

    Returns None when the curve never reaches the level.
    """
    series = [(p.snr_db, p.ber) for p in curve.points if p.ber > 0.0]
    for (x0, y0), (x1, y1) in zip(series, series[1:]):
        if (y0 - level) * (y1 - level) <= 0.0 and y0 != y1:
            t = (math.log10(level) - math.log10(y0)) \
                / (math.log10(y1) - math.log10(y0))
            return x0 + t * (x1 - x0)
    return None


def final_decade_slope(curve: BerCurve):
    """Least-squares slope of log10(BER) per dB over the lowest BER decade.

    Points with fewer than 20 bit errors carry no usable slope information
    and are excluded before the decade window (relative to the remaining
    curve floor) is applied. Returns None if fewer than two points survive.
    """
    series = [(p.snr_db, p.ber) for p in curve.points
              if p.ber > 0.0 and p.bit_errors >= 20]
    if not series:
        return None
    floor = min(y for _, y in series)
    sel = [(x, math.log10(y)) for x, y in series if y <= floor * 10.0]
    if len(sel) < 2:
        return None
    xs = np.array([x for x, _ in sel])
    ys = np.array([y for _, y in sel])
    return float(np.polyfit(xs, ys, 1)[0])
