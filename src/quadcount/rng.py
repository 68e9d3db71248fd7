"""numpy's seeded random streams, reproduced bit for bit on Python ints.

The detector needs a few hundred seeded draws per job, and loading numpy
for them would cost more than the detector itself.  This module gives the
two numpy streams it draws from:

- `spawned_seeds(seed, count)` is
  `[int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(count)]`;
- `Generator(seed)` is `np.random.default_rng(seed)`: PCG64 (a 128-bit
  LCG with the XSL-RR output, O'Neill 2014) seeded from
  `SeedSequence(seed).generate_state(4, np.uint64)`.  Its `uniform` and
  `integers` give the values numpy's `Generator` gives for the same calls
  in the same order.
"""

from __future__ import annotations

__all__ = ["Generator", "spawned_seeds"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, hash_const: list[int]) -> int:
    value ^= hash_const[0]
    hash_const[0] = hash_const[0] * 0x931E8875 & _MASK32
    value = value * hash_const[0] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _words(n: int) -> list[int]:
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _pool(seed: int, child: int | None = None) -> list[int]:
    """The 4-word entropy pool of SeedSequence(seed), or of its spawned
    child number `child`."""
    entropy = _words(seed)
    if child is not None:
        entropy += [0] * (4 - len(entropy)) + _words(child)
    hash_const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, hash_const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    return pool


def _state_words(pool: list[int], count: int) -> list[int]:
    """SeedSequence.generate_state(count) as uint32 words."""
    hash_const = 0x8B51F9DD
    out = []
    for i in range(count):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


def spawned_seeds(seed: int, count: int) -> list[int]:
    """The first 32-bit state word of each of `count` spawned children."""
    return [_state_words(_pool(seed, i), 1)[0] for i in range(count)]


class Generator:
    """PCG64 with numpy's `uniform` and `integers` on top."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _state_words(_pool(seed), 8)
        # generate_state(4, uint64) pairs the words little-end first
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._next64()
        self._half: int | None = None  # upper half of a 64-bit draw, kept for next32

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def uniform(self, low: float, high: float, size: int | None = None):
        """One float, or a list of `size` floats, uniform in [low, high)."""
        width = high - low
        if size is None:
            return low + width * ((self._next64() >> 11) * 2.0**-53)
        return [low + width * ((self._next64() >> 11) * 2.0**-53) for _ in range(size)]

    def integers(self, low: int, high: int | None = None) -> int:
        """One int uniform in [low, high), or in [0, low) without `high`:
        Lemire's multiply-and-reject on 32-bit draws, as numpy does for
        ranges below 2^32."""
        if high is None:
            low, high = 0, low
        span = high - low - 1
        if not 0 <= span < _MASK32:
            raise ValueError(f"empty or too wide range [{low}, {high})")
        if span == 0:
            return low
        bound = span + 1
        m = self._next32() * bound
        if m & _MASK32 < bound:
            threshold = (_MASK32 - span) % bound
            while m & _MASK32 < threshold:
                m = self._next32() * bound
        return low + (m >> 32)
