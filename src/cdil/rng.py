"""Seeded randomness for every stochastic step in the benchmark.

The generator is xoshiro256** (Blackman & Vigna), a 64-bit xorshift-family
generator with a 256-bit state, seeded by expanding a single 64-bit seed
through splitmix64. It is implemented here, not taken from a library; the
platform `random` module and numpy's default streams are never used. Its
integer outputs, and so fold assignments and shuffles, are the same on every
host. Normals call the host libm's log, cos and sin through `math`, so a
stream, projection or head init may differ in its last bits between hosts.

A generator is its state, four 64-bit words, and `_s1s` is the one Python loop
that steps it. `normals` draws blocks equal bit for bit to scalar Box-Muller
draws, one cosine, sine pair from each two words, an odd draw's last sine
dropped: the state update is GF(2)-linear, so lanes started by jumps are the
sequential stream laid end to end; numpy does only what IEEE 754 fixes exactly,
and log, sin and cos stay on `math`. `u64_blocks` draws several
generators' blocks as the lanes of one array, and `normal_rows` draws several
generators' normals from one such draw; `normals` is its one-generator case.
`shuffle_plans` takes every word of E successive Fisher-Yates shuffles by each
of several generators from one such draw, bit for bit as E per-shuffle draws; a
generator whose words hold one `randbelow` would reject is restored and makes
its picks one `randbelow` at a time. `shuffle` is its one-generator,
one-shuffle case.

Substreams are derived by hashing an ordered tuple of purpose tags
(experiment seed, session index, protocol name, ...) with SHA-256 and
taking the first 8 bytes as the child seed. Distinct tag tuples therefore
give statistically independent streams, and re-running with the same tags
reproduces every draw.
"""

from __future__ import annotations

import hashlib
import math
from typing import MutableSequence, Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

SeedPart = int | str


def derive_seed(*parts: SeedPart) -> int:
    """Hash an ordered tuple of tags into a 64-bit substream seed."""
    h = hashlib.sha256()
    for part in parts:
        raw = str(part).encode("utf-8")
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return int.from_bytes(h.digest()[:8], "big")


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


# below _MIN_BLOCK words in all, for 1 to 10 generators, the scalar loop is faster than
# jumping the lanes (timeit, 2-CPU x86)
_LANE_STEPS, _MIN_BLOCK = 64, 1600  # lane length, least block
_CHUNK = 4096  # words per pass of the scrambler and of Box-Muller, bounding their temporaries
_JUMPS: list[np.ndarray] = []  # [k]: (64, 16, 4) table of _LANE_STEPS * 2**k steps, built on use


def _math(f, a: np.ndarray) -> np.ndarray:
    """`f` from `math` applied to each entry of the float64 array `a`."""
    return np.fromiter(map(f, memoryview(a)), np.float64, len(a))


def _step(s: np.ndarray) -> None:
    """Advance the (4, lanes) uint64 states one step in place."""
    t = s[1] << np.uint64(17)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[3:1:-1]  # s0 ^= s3, s1 ^= s2
    s[2] ^= t
    s[3] = (s[3] << np.uint64(45)) | (s[3] >> np.uint64(19))


def _scrambled(s1s: np.ndarray) -> np.ndarray:
    """The outputs, rotl(s1 * 5, 7) * 9, of the uint64 s1 values of successive steps,
    written over them, _CHUNK at a time."""
    flat = s1s.reshape(-1)
    for lo in range(0, len(flat), _CHUNK):
        x = flat[lo:lo + _CHUNK]
        x *= np.uint64(5)
        high = x >> np.uint64(57)
        x <<= np.uint64(7)
        x |= high
        x *= np.uint64(9)
    return s1s


def _jump(s: np.ndarray, k: int) -> np.ndarray:
    """The (4, lanes) states advanced _LANE_STEPS * 2**k steps. The map is GF(2)-linear:
    entry [p, v] of its table is the image of the state whose only nonzero 4-bit
    group, the p-th, holds v, and a state's image is the XOR over its groups."""
    while len(_JUMPS) <= k:  # the first steps the 256 one-bit states, the rest square
        if _JUMPS:  # the last jump applied to its own one-bit images, 64 at a time
            ones = _JUMPS[-1][:, [1, 2, 4, 8]].reshape(256, 4).T
            images = np.hstack([_jump(part, len(_JUMPS) - 1) for part in np.hsplit(ones, 4)])
        else:
            images = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
            images = images.view(np.uint64).T.copy()
            for _ in range(_LANE_STEPS):
                _step(images)
        images = images.T.reshape(64, 4, 4)
        table = np.zeros((64, 16, 4), dtype=np.uint64)
        for b in range(4):
            table[:, 1 << b:2 << b] = table[:, :1 << b] ^ images[:, b, None]
        _JUMPS.append(table)
    groups = np.ascontiguousarray(s.T).view(np.uint8)
    groups = np.stack([groups & 15, groups >> 4], axis=2).reshape(len(groups), 64)
    return np.bitwise_xor.reduce(_JUMPS[k][np.arange(64), groups], axis=1).T.copy()


class Xoshiro256StarStar:
    """xoshiro256** seeded from a single 64-bit integer via splitmix64."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state, words = seed & _MASK64, []
        for _ in range(4):
            state, word = _splitmix64(state)
            words.append(word)
        self._s = tuple(words) if any(words) else (1, 0, 0, 0)  # all-zero is invalid

    def next_u64(self) -> int:
        x = (_s1s(self, 1)[0] * 5) & _MASK64
        return (((x << 7) | (x >> 57)) * 9) & _MASK64  # rotl(s1 * 5, 7) * 9

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling: a word is
        kept below the largest multiple of n up to 2**64, where each residue
        has the same count of words."""
        if not 1 <= n <= 1 << 64:  # past 2**64 no word would be kept
            raise ValueError(f"randbelow requires 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - (1 << 64) % n
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, j = randbelow(i + 1) for i = n-1..1:
        the one-shuffle case of `shuffle_plans`."""
        permute(items, shuffle_plans([self], [len(items)], 1)[0][0])

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array of standard normal draws in row-major fill order, bit for bit
        scalar Box-Muller draws: the one-generator case of `normal_rows`."""
        shape = shape if isinstance(shape, tuple) else (shape,)
        if any(n < 0 for n in shape):
            raise ValueError(f"normals requires a shape without negative sizes, got {shape}")
        return normal_rows([self], math.prod(shape))[0].reshape(shape)


def _s1s(gen: Xoshiro256StarStar, n: int) -> list[int]:
    """The unscrambled s1 words of gen's next n steps, leaving it n steps on."""
    s0, s1, s2, s3 = gen._s
    s1s = []
    for _ in range(n):
        s1s.append(s1)
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    gen._s = (s0, s1, s2, s3)
    return s1s


def substream(*parts: SeedPart) -> Xoshiro256StarStar:
    """Generator for the substream identified by the given tag tuple."""
    return Xoshiro256StarStar(derive_seed(*parts))


def u64_blocks(gens: Sequence[Xoshiro256StarStar], counts: Sequence[int]) -> list[np.ndarray]:
    """The next counts[i] outputs of each of the distinct generators gens[i],
    leaving each where counts[i] `next_u64` calls would. Below _MIN_BLOCK
    words in all, each generator steps alone. Otherwise lane j of generator i,
    column j * len(gens) + i of one (4, columns) array, starts j * _LANE_STEPS
    steps on; every generator gets the lanes of the longest draw, all are
    jumped and stepped together, and each draw ends in its own last lane."""
    if sum(counts) < _MIN_BLOCK:
        return [_scrambled(np.array(_s1s(gen, n), dtype=np.uint64))
                for gen, n in zip(gens, counts)]
    g, lanes = len(gens), -(-max(counts) // _LANE_STEPS)
    s = np.array([gen._s for gen in gens], dtype=np.uint64).T.copy()
    for k in range((lanes - 1).bit_length()):  # lanes [2**k, 2**(k+1)) from [0, 2**k)
        s = np.concatenate([s, _jump(s[:, :(lanes - s.shape[1] // g) * g], k)], axis=1)
    ends: dict[int, list[int]] = {}  # step in the last lane -> the draws that end there
    for i, n in enumerate(counts):
        if n:
            ends.setdefault((n - 1) % _LANE_STEPS + 1, []).append(i)
    s1s = np.empty((g, lanes, _LANE_STEPS), dtype=np.uint64)  # [i, j]: lane j of generator i
    into, s1 = s1s.transpose(2, 1, 0), s[1].reshape(lanes, g)  # views; `_step` works in place
    for step in range(1, _LANE_STEPS + 1):
        into[step - 1] = s1
        _step(s)
        for i in ends.get(step, ()):
            gens[i]._s = tuple(s[:, (counts[i] - 1) // _LANE_STEPS * g + i].tolist())
    # row i holds generator i's lanes laid end to end
    words = _scrambled(s1s.reshape(g, -1))
    return [row[:n] for row, n in zip(words, counts)]


def normal_rows(gens: Sequence[Xoshiro256StarStar], n: int) -> np.ndarray:
    """Row i: the next n standard normals of the distinct generator gens[i], bit
    for bit scalar Box-Muller draws of one cosine, sine pair from each two words;
    an odd n's last sine value is dropped. Every word comes from one `u64_blocks`
    draw, and Box-Muller runs over the pairs of all rows, _CHUNK words at a time."""
    if n < 0:
        raise ValueError("normal_rows requires n >= 0")
    words = u64_blocks(gens, [n + n % 2] * len(gens))
    x = words[0] if len(words) == 1 else np.concatenate([np.empty(0, np.uint64), *words])
    del words
    values = x.view(np.float64)  # each chunk's words, once read, hold its pairs' cos, sin
    for lo in range(0, len(x), _CHUNK):
        chunk = x[lo:lo + _CHUNK] >> np.uint64(11)
        u1 = (chunk[0::2] + np.uint64(1)).astype(np.float64) * 2.0**-53  # (0, 1]
        u2 = chunk[1::2].astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * _math(math.log, u1))
        theta = 2.0 * math.pi * u2
        values[lo:lo + len(chunk)] = (r * np.array([_math(math.cos, theta),
                                                    _math(math.sin, theta)])).T.reshape(-1)
    return values.reshape(len(gens), n + n % 2)[:, :n]


def shuffle_plans(gens: Sequence[Xoshiro256StarStar], sizes: Sequence[int],
                  epochs: int) -> list[np.ndarray]:
    """The Fisher-Yates picks of `epochs` successive shuffles of sizes[i] items
    by each of the distinct generators gens[i]: row e of plan i holds shuffle
    e's j = randbelow(m + 1) for m = n-1..1, bit for bit. Every word comes from
    one `u64_blocks` draw. A generator one of whose words `randbelow` would
    reject is restored and makes its picks one `randbelow` at a time."""
    saved = [gen._s for gen in gens]
    widths = [max(n - 1, 0) for n in sizes]
    blocks = u64_blocks(gens, [epochs * width for width in widths])
    mask, plans = np.uint64(_MASK64), []
    for gen, state, width, words in zip(gens, saved, widths, blocks):
        bounds = np.arange(width + 1, 1, -1, dtype=np.uint64)
        words = words.reshape(epochs, width)
        # randbelow's test, word < 2**64 - 2**64 % bound, in 64-bit arithmetic
        if (words <= mask - (mask % bounds + np.uint64(1)) % bounds).all():
            plans.append(words % bounds)
        else:
            gen._s = state
            picks = [gen.randbelow(m + 1) for _ in range(epochs) for m in range(width, 0, -1)]
            plans.append(np.array(picks, dtype=np.uint64).reshape(epochs, width))
    return plans


def permute(items: MutableSequence, picks: np.ndarray) -> None:
    """Swap items[i] and items[picks[n-1-i]] for i = n-1..1, in place."""
    for i, j in zip(range(len(items) - 1, 0, -1), picks.tolist()):
        items[i], items[j] = items[j], items[i]
