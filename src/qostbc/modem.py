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


#: half-width, in units of d_min, of the band around each midpoint between
#: two levels in which :meth:`Constellation.demap` compares distances; over
#: 100 times the most by which the arithmetic index can disagree with them
MIDPOINT_TOL = 2.0 ** -40


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy square QAM of a supported order, decomposed into
    two PAM rails; everything else is built from the order.

    ``pam_levels`` holds the rail levels in descending order, the odd
    multiples of d_min / 2; position ``i`` carries the Gray code of ``i``
    as its bit label. The modem reads two read-only tables built from them:
    the level of each label and the MSB-first bits of each position's label.
    """

    order: int
    pam_levels: np.ndarray = field(init=False, repr=False, compare=False)
    d_min: float = field(init=False)
    bits_per_symbol: int = field(init=False)
    _level_of_label: np.ndarray = field(init=False, repr=False, compare=False)
    _label_bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported QAM order {self.order}; "
                             f"expected one of {SUPPORTED_ORDERS}")
        L = int(round(np.sqrt(self.order)))
        d_min = np.sqrt(6.0 / (self.order - 1))
        levels = np.arange(L - 1, -L, -2, dtype=np.float64) * (d_min / 2.0)
        b = int(round(np.log2(self.order))) // 2
        gray = np.arange(L) ^ (np.arange(L) >> 1)
        level_of_label = np.empty(L)
        level_of_label[gray] = levels
        label_bits = (gray[:, None] >> np.arange(b - 1, -1, -1)) & 1  # (L, b)
        for table in (levels, level_of_label, label_bits):
            table.setflags(write=False)
        for name, value in (("pam_levels", levels), ("d_min", float(d_min)),
                            ("bits_per_symbol", 2 * b),
                            ("_level_of_label", level_of_label),
                            ("_label_bits", label_bits)):
            object.__setattr__(self, name, value)

    @property
    def bits_per_rail(self) -> int:
        return self.bits_per_symbol // 2

    @property
    def levels_per_rail(self) -> int:
        return len(self.pam_levels)

    def modulate(self, bits) -> np.ndarray:
        """Map bits of shape (..., K*log2(M)) to rails (..., 2K).

        Rail order is I rails of all K symbols followed by Q rails, so that
        symbol q is rails[q] + 1j * rails[K + q]. Every bit must be 0 or 1.
        Each rail's bits are read MSB first as its Gray label, whose level
        comes from the label-to-level table.
        """
        bits = np.asarray(bits, dtype=np.int64)
        bps = self.bits_per_symbol
        if bits.shape[-1] == 0 or bits.shape[-1] % bps != 0:
            raise ValueError(
                f"bit count {bits.shape[-1]} is not a positive multiple of {bps}"
            )
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise ValueError(f"bits must be 0 or 1, got values in "
                             f"[{bits.min()}, {bits.max()}]")
        lead, K = bits.shape[:-1], bits.shape[-1] // bps
        rows = bits.reshape(*lead, K, 2, self.bits_per_rail)  # symbol, I/Q
        label = rows[..., 0]
        for j in range(1, self.bits_per_rail):
            label = label << 1 | rows[..., j]
        rails = self._level_of_label.take(label)  # (..., K, 2)
        return rails.swapaxes(-1, -2).reshape(*lead, 2 * K)

    def demap(self, real_symbols) -> np.ndarray:
        """Slice rails (..., 2K) back to bits (..., K*log2(M)).

        Each rail goes to its nearest PAM level, a tie to the higher level,
        so ML decisions (which are exact constellation points) round-trip
        bit for bit; a NaN rail raises ValueError. A rail is clipped to the
        outer levels and its level index read off arithmetically,
        ceil(t) with t = (top - x) / d_min - 0.5, whose integers are the
        midpoints between levels.

        Rounding bound: with u = 2^-53 and L levels per rail, that index
        can disagree with a nearest-level search over the float levels only
        when t lies within about 5 (L - 1) u of an integer (8.3e-15 at
        256-QAM). t is computed in three rounded steps, off by at most about
        3 (L - 1) u; the float levels sit within (L - 1) u d_min of
        top - i d_min; comparing two rounded distances adds about u more.
        Only the rails with t within MIDPOINT_TOL = 2^-40 (over 100 times
        that) of an integer compare their distances to the chosen level and
        its two neighbours, as the search does.
        """
        rails = np.asarray(real_symbols, dtype=np.float64)
        if rails.shape[-1] == 0 or rails.shape[-1] % 2 != 0:
            raise ValueError(f"expected 2K rail values, got shape {rails.shape}")
        if np.isnan(rails).any():
            raise ValueError("rail values must not be NaN")
        lead, K = rails.shape[:-1], rails.shape[-1] // 2
        top, bottom = self.pam_levels[0], self.pam_levels[-1]
        x = np.clip(rails, bottom, top)
        t = (top - x) / self.d_min - 0.5
        pos = np.ceil(t)
        frac = pos - t  # in [0, 1), 0 at a midpoint
        near = np.flatnonzero((frac < MIDPOINT_TOL)
                              | (frac > 1 - MIDPOINT_TOL))
        pos = pos.astype(np.intp)
        if near.size:  # a closer neighbour wins, the higher one also a tie
            x_near = x.flat[near]
            # 1 + the level index, into the levels padded with NaN at both ends
            p = pos.flat[near] + 1
            padded = np.concatenate([[np.nan], self.pam_levels, [np.nan]])
            here = np.abs(x_near - padded.take(p))
            p -= np.abs(x_near - padded.take(p - 1)) <= here
            p += np.abs(x_near - padded.take(p + 1)) < here
            pos.flat[near] = p - 1
        iq = pos.reshape(*lead, 2, K).swapaxes(-1, -2)  # (..., K, 2)
        return self._label_bits.take(iq, axis=0).reshape(*lead, 2 * K
                                                         * self.bits_per_rail)


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
    """The unit-energy square QAM constellation of the given order."""
    return Constellation(order)


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
