"""Fixed-width binary representation of scalars and the entropy objective.

A ``BitString`` is a width-annotated unsigned integer: exactly ``width`` bits,
most significant first, leading zeros preserved.  The binary Shannon entropy
of the 0/1 proportions is the fitness function the optimizer maximizes; it is
1.0 exactly when the ones and zeros counts are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BitString",
    "shannon_entropy",
    "to_bits",
]


@dataclass(frozen=True)
class BitString:
    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise OverflowError(
                f"value {self.value} does not fit in {self.width} bits"
            )

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")

    @property
    def ones(self) -> int:
        return self.value.bit_count()

    @property
    def zeros(self) -> int:
        return self.width - self.value.bit_count()


def to_bits(k: int, width: int) -> BitString:
    """Encode ``k`` as a width-bit string, MSB first, zero-padded."""
    if k < 0:
        raise OverflowError(f"scalar must be non-negative, got {k}")
    return BitString(k, width)


def shannon_entropy(s: BitString) -> float:
    """Binary Shannon entropy of the bit proportions, in [0, 1].

    H = -p0*log2(p0) - p1*log2(p1) with the usual 0*log(0) = 0 convention,
    so constant strings score exactly 0.0 and balanced strings exactly 1.0.
    """
    ones = s.value.bit_count()
    if ones == 0 or ones == s.width:
        return 0.0
    p1 = ones / s.width
    p0 = 1.0 - p1
    return -(p0 * math.log2(p0) + p1 * math.log2(p1))
