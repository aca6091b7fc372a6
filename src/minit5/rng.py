"""Self-contained 64-bit PRNG: splitmix64 seeding feeding xoshiro256**.

Used wherever random draws must reproduce bit-for-bit across platforms and
library versions (masking decisions, per-example seed derivation). The
generator is fixed forever; changing it would invalidate cached data.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def check_seed(seed: int, name: str = "seed") -> None:
    """Seeds lie in [0, 2**64): one outside would alias its value mod 2**64."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


def mix64(x: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit value."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-example seed from a global seed, stable under reordering."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a single seed."""

    def __init__(self, seed: int):
        s = seed & MASK64
        lanes = []
        for _ in range(4):
            s = (s + GOLDEN) & MASK64
            lanes.append(mix64(s))
        self._s = lanes

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)
