"""Square M-QAM constellations as two independent PAM rails with Gray labeling.

A square M-QAM symbol is treated throughout the package as a pair of
independent sqrt(M)-ary PAM symbols (the I and Q rails). Constellations are
normalised to unit average symbol energy, which fixes the minimum distance
at d_min = sqrt(6 / (M - 1)).

Bit convention: each complex symbol carries log2(M) bits; the first half of
a symbol's bits selects the I rail, the second half the Q rail. Per rail,
the all-zero bit pattern maps to the most positive level and adjacent levels
differ in exactly one bit (binary-reflected Gray order). For 4-QAM this puts
bits 00 at (+1/sqrt(2), +1/sqrt(2)).
"""

from dataclasses import dataclass, field

import numpy as np

SUPPORTED_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy square QAM decomposed into two PAM rails.

    ``pam_levels`` holds the rail levels in descending order; position ``i``
    carries the Gray code of ``i`` as its bit label.
    """

    order: int
    pam_levels: np.ndarray = field(repr=False)
    d_min: float
    bits_per_symbol: int

    @property
    def bits_per_rail(self) -> int:
        return self.bits_per_symbol // 2

    @property
    def levels_per_rail(self) -> int:
        return len(self.pam_levels)

    def modulate(self, bits) -> np.ndarray:
        """Map bits of shape (..., K*log2(M)) to rails (..., 2K).

        Rail order is I rails of all K symbols followed by Q rails, so that
        symbol q is rails[q] + 1j * rails[K + q].
        """
        bits = np.asarray(bits, dtype=np.int64)
        bps = self.bits_per_symbol
        if bits.shape[-1] == 0 or bits.shape[-1] % bps != 0:
            raise ValueError(
                f"bit count {bits.shape[-1]} is not a positive multiple of {bps}"
            )
        K = bits.shape[-1] // bps
        b = self.bits_per_rail
        rows = bits.reshape(*bits.shape[:-1], 2 * K, b)
        weights = 1 << np.arange(b - 1, -1, -1)
        gray = rows @ weights
        pos = gray.copy()
        shift = 1
        while shift <= b:  # Gray-to-binary prefix xor
            pos ^= pos >> shift
            shift *= 2
        rails_iq = self.pam_levels[pos]  # (..., 2K) in I1,Q1,I2,Q2,... order
        i_rails = rails_iq[..., 0::2]
        q_rails = rails_iq[..., 1::2]
        return np.concatenate([i_rails, q_rails], axis=-1)

    def demap(self, real_symbols) -> np.ndarray:
        """Slice rails (..., 2K) back to bits (..., K*log2(M)).

        Each rail goes to its nearest PAM level, a tie to the higher level,
        so ML decisions (which are exact constellation points) round-trip
        bit for bit. A rail is clipped to the outer levels and its level
        index read off arithmetically, ceil((top - x) / d_min - 0.5); one
        distance comparison with each neighbouring level then settles a rail
        within rounding of a midpoint exactly as a nearest-level search
        does.
        """
        rails = np.asarray(real_symbols, dtype=np.float64)
        if rails.shape[-1] == 0 or rails.shape[-1] % 2 != 0:
            raise ValueError(f"expected 2K rail values, got shape {rails.shape}")
        if np.isnan(rails).any():
            raise ValueError("rail values must not be NaN")
        K = rails.shape[-1] // 2
        L = self.levels_per_rail
        top, bottom = self.pam_levels[0], self.pam_levels[-1]
        x = np.clip(rails, bottom, top)
        # 1 + the level index, into the levels padded with NaN at both ends
        pos = np.ceil((top - x) / self.d_min - 0.5).astype(np.intp) + 1
        padded = np.concatenate([[np.nan], self.pam_levels, [np.nan]])
        here = np.abs(x - padded.take(pos))
        pos -= np.abs(x - padded.take(pos - 1)) <= here
        pos += np.abs(x - padded.take(pos + 1)) < here
        pos -= 1
        b = self.bits_per_rail
        gray = np.arange(L) ^ (np.arange(L) >> 1)
        labels = (gray[:, None] >> np.arange(b - 1, -1, -1)) & 1  # (L, b)
        iq = np.stack([pos[..., :K], pos[..., K:]], axis=-1)  # (..., K, 2)
        return labels.take(iq, axis=0).reshape(*rails.shape[:-1], K * 2 * b)


def lex_vectors(values: np.ndarray, width: int, index=None) -> np.ndarray:
    """Rows of the lexicographic product ``values`` ** ``width``.

    Row ``i`` is vector number ``index[i]`` of the product (all of them in
    order by default), first column slowest, decoded from the
    base-len(values) digits of the index one column at a time: the order of
    ``itertools.product``.
    """
    values = np.asarray(values)
    if index is None:
        index = np.arange(len(values) ** width)
    rows = np.empty((len(index), width))
    for col in reversed(range(width)):
        index, digit = np.divmod(index, len(values))
        rows[:, col] = values[digit]
    return rows


def make_qam(order: int) -> Constellation:
    """Build the unit-energy square QAM constellation of the given order."""
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported QAM order {order}; expected one of {SUPPORTED_ORDERS}"
        )
    levels_per_rail = int(round(np.sqrt(order)))
    d_min = np.sqrt(6.0 / (order - 1))
    # descending odd multiples of d_min/2, symmetric about zero
    k = np.arange(levels_per_rail - 1, -levels_per_rail, -2, dtype=np.float64)
    levels = k * (d_min / 2.0)
    levels.setflags(write=False)
    return Constellation(
        order=order,
        pam_levels=levels,
        d_min=float(d_min),
        bits_per_symbol=int(round(np.log2(order))),
    )


def modulation_name(order: int) -> str:
    return f"{order}qam"


def parse_modulation(name: str) -> Constellation:
    """Parse a CLI-style modulation name such as ``4qam`` or ``16qam``."""
    text = name.strip().lower()
    if not text.endswith("qam"):
        raise ValueError(f"unknown modulation {name!r}")
    try:
        order = int(text[:-3])
    except ValueError:
        raise ValueError(f"unknown modulation {name!r}") from None
    return make_qam(order)
