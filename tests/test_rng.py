import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdil import rng as rng_module
from cdil.rng import (Xoshiro256StarStar, derive_seed, normal_rows, permute, shuffle_plans,
                      substream, u64_blocks)


def scalar_normals(rng, n):
    """The scalar reference `normals(n)` must equal: one Box-Muller pair, cosine
    then sine, from each two `next_u64` words; an odd n's last sine is dropped."""
    values = []
    for _ in range(0, n, 2):
        u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = (rng.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        values += [r * math.cos(theta), r * math.sin(theta)]
    return np.array(values[:n], dtype=np.float64)


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(1234)
    b = Xoshiro256StarStar(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_derive_seed_is_order_and_boundary_sensitive():
    assert derive_seed(1, "split", 2) != derive_seed(1, 2, "split")
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(7, "x") == derive_seed(7, "x")


def test_randbelow_covers_all_residues():
    rng = Xoshiro256StarStar(5)
    counts = [0] * 7
    for _ in range(7000):
        counts[rng.randbelow(7)] += 1
    assert min(counts) > 700  # roughly uniform

    with pytest.raises(ValueError):
        rng.randbelow(0)


def stub_words(monkeypatch, words):
    """Every word drawn, by `next_u64` or by `u64_blocks`, comes from `words`."""
    stream = iter(words)
    monkeypatch.setattr(Xoshiro256StarStar, "next_u64", lambda self: next(stream))
    monkeypatch.setattr(rng_module, "u64_blocks", lambda gens, counts: [
        np.array([next(stream) for _ in range(n)], dtype=np.uint64) for n in counts])


# 2**64 - 1 is the one word at or past the largest multiple of 3 up to 2**64, so
# randbelow(3) rejects it; 2 divides 2**64, so randbelow(2) keeps every word
@pytest.mark.parametrize("n, expected", [(3, 4 % 3), (2, (2**64 - 1) % 2)])
def test_randbelow_keeps_exactly_the_words_below_the_largest_multiple(monkeypatch, n, expected):
    stub_words(monkeypatch, [2**64 - 1, 4])
    assert Xoshiro256StarStar(0).randbelow(n) == expected


def test_randbelow_takes_bounds_up_to_2_64(monkeypatch):
    stub_words(monkeypatch, [2**64 - 1])
    assert Xoshiro256StarStar(0).randbelow(2**64) == 2**64 - 1
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).randbelow(2**64 + 1)


@pytest.mark.parametrize("n, picks", [(3, [4 % 3, 4 % 2]), (2, [(2**64 - 1) % 2])])
def test_shuffle_plans_keep_exactly_randbelows_words(monkeypatch, n, picks):
    # a 3-item shuffle rejects its block's first word, 2**64 - 1, and falls back to
    # randbelow(3), which draws 2**64 - 1 again, rejects it and keeps 4; a 2-item
    # shuffle keeps the block's 2**64 - 1
    stub_words(monkeypatch, [2**64 - 1] + [4] * (n - 2) + [2**64 - 1, 4, 4])
    assert shuffle_plans([Xoshiro256StarStar(0)], [n], 1)[0].tolist() == [picks]


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(25))
    a = items.copy()
    b = items.copy()
    Xoshiro256StarStar(42).shuffle(a)
    Xoshiro256StarStar(42).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # 25 elements: identity permutation is absurdly unlikely


def test_normals_moments_and_shape():
    rng = substream(3, "moments")
    draws = rng.normals(20000)
    assert abs(float(np.mean(draws))) < 0.05
    assert abs(float(np.std(draws)) - 1.0) < 0.05
    grid = substream(3, "grid").normals((4, 5))
    assert grid.shape == (4, 5)


def test_substreams_are_independent_of_each_other():
    one = substream(17, "noise", 1).normals(8)
    two = substream(17, "noise", 2).normals(8)
    assert not np.allclose(one, two)


# Known answers, computed with the one-value-at-a-time generator.
KAT_U64 = {
    0: [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F],
    1234: [0x0BAB45D9A0E3AE53, 0xD7C640660C19433E, 0xB0DEDAA0D09A6691, 0xDEC9F41B58EC86EB,
           0x19E4A6B7ACDA0AE0, 0xE4BC1C79FD36E5CB, 0x737261121DBF96E7, 0x33DC37AB08116070],
}
KAT_NORMALS_SHA256 = "153b436d7cd9aa9322f772a24ebe4613297c14a3cac511e21d90075003b89f38"


@pytest.mark.parametrize("seed", sorted(KAT_U64))
def test_first_outputs_known_answer(seed):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(8)] == KAT_U64[seed]


def test_block_normals_known_answer():
    draws = substream(7, "kat").normals(50_000)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == KAT_NORMALS_SHA256


# sizes next to the scalar/block threshold, lane multiples and normals chunks
BOUNDARIES = [0, rng_module._LANE_STEPS, rng_module._MIN_BLOCK, 5 * rng_module._LANE_STEPS
              + rng_module._MIN_BLOCK, rng_module._CHUNK, 2 * rng_module._CHUNK,
              3 * rng_module._CHUNK + rng_module._LANE_STEPS // 2]
SIZES = st.one_of(st.integers(0, 40_000),
                  st.builds(lambda base, offset: max(0, base + offset),
                            st.sampled_from(BOUNDARIES), st.integers(-3, 3)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 3), n=SIZES)
def test_block_normals_equal_scalar_normals_bitwise(seed, first, n):
    # an odd draw first drops its last sine and leaves no value pending
    block, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert block.normals(first).tobytes() == scalar_normals(scalar, first).tobytes()
    assert block.normals(n).tobytes() == scalar_normals(scalar, n).tobytes()
    assert block._s == scalar._s
    assert block.normals(1).tobytes() == scalar_normals(scalar, 1).tobytes()


@pytest.mark.parametrize("n", sorted({max(0, base + offset) for base in BOUNDARIES
                                      for offset in (-1, 0, 1)}))
def test_normals_take_n_words_rounded_up_to_even(n):
    block, scalar = substream(n, "parity"), substream(n, "parity")
    block.normals(n)
    for _ in range(n + n % 2):
        scalar.next_u64()
    assert block._s == scalar._s


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), odd_firsts=st.lists(st.booleans(), max_size=6),
       n=st.one_of(st.integers(0, 1500), st.sampled_from(BOUNDARIES)))
def test_normal_rows_equal_each_generators_scalar_normals(seed, odd_firsts, n):
    # generators that made an odd draw first stand where a draw one longer would leave them
    gens = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(odd_firsts))]
    scalars = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(odd_firsts))]
    for gen, scalar, odd_first in zip(gens, scalars, odd_firsts):
        if odd_first:
            assert gen.normals(1).tobytes() == scalar_normals(scalar, 1).tobytes()
    rows = normal_rows(gens, n)
    assert rows.shape == (len(gens), n)
    for gen, scalar, row in zip(gens, scalars, rows):
        assert row.tobytes() == scalar_normals(scalar, n).tobytes()
        assert gen._s == scalar._s


def test_a_negative_normals_size_is_refused():
    with pytest.raises(ValueError):
        substream(1, "negative").normals(-1)


def test_a_negative_normals_dimension_is_refused_before_any_draw():
    gen = substream(1, "negative")
    state = gen._s
    with pytest.raises(ValueError):
        gen.normals((-1, -2))
    assert gen._s == state


@pytest.mark.parametrize("n", [0, 1, rng_module._MIN_BLOCK - 1, rng_module._MIN_BLOCK,
                               rng_module._MIN_BLOCK + 1, 40 * rng_module._LANE_STEPS,
                               40 * rng_module._LANE_STEPS + 1, 40 * rng_module._LANE_STEPS + 63,
                               9999])
def test_block_u64s_equal_next_u64(n):
    block, scalar = substream(n, "u64"), substream(n, "u64")
    assert u64_blocks([block], [n])[0].tolist() == [scalar.next_u64() for _ in range(n)]
    assert block._s == scalar._s


def test_import_builds_no_jump_table():
    src = str(Path(rng_module.__file__).parents[1])
    code = "import cdil, cdil.rng; print(len(cdil.rng._JUMPS))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "0"


def reference_shuffle(rng, items):
    """Fisher-Yates with one `randbelow` draw per position."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


def test_block_shuffle_equals_randbelow_fisher_yates():
    # one generator pair across every length 0..1500: both `u64_blocks` paths, and
    # the state each shuffle leaves is the next one's start
    block, scalar = substream(3, "shuffle"), substream(3, "shuffle")
    for n in range(1501):
        shuffled, expected = list(range(n)), list(range(n))
        block.shuffle(shuffled)
        reference_shuffle(scalar, expected)
        assert shuffled == expected, n
        assert block._s == scalar._s, n


@pytest.mark.parametrize("n", [0, 1, 2, 19, 20, 1500])
def test_every_shuffle_draws_one_block(monkeypatch, n):
    # small or large, a shuffle draws its n-1 words in one `u64_blocks` call and,
    # with no word rejected, never calls `randbelow`
    calls = []

    def counted(gens, counts):
        calls.append(list(counts))
        return u64_blocks(gens, counts)

    def no_randbelow(self, bound):
        raise AssertionError("randbelow drew a shuffle position")

    monkeypatch.setattr(rng_module, "u64_blocks", counted)
    monkeypatch.setattr(Xoshiro256StarStar, "randbelow", no_randbelow)
    substream(5, "branch").shuffle(list(range(n)))
    assert calls == [[max(n - 1, 0)]]


def test_block_shuffle_falls_back_to_randbelow_on_a_rejected_word(monkeypatch):
    # 2**64 - 1 is past randbelow(40)'s acceptance bound, so the first word of a
    # 40-item shuffle is rejected: the block is discarded and the state restored
    randbelow, calls = Xoshiro256StarStar.randbelow, []

    def poisoned(gens, counts):
        blocks = u64_blocks(gens, counts)
        blocks[0][0] = np.uint64(2**64 - 1)
        return blocks

    def counted(self, n):
        calls.append(n)
        return randbelow(self, n)

    monkeypatch.setattr(rng_module, "u64_blocks", poisoned)
    monkeypatch.setattr(Xoshiro256StarStar, "randbelow", counted)
    block, scalar = substream(4, "reject"), substream(4, "reject")
    shuffled = list(range(40))
    block.shuffle(shuffled)
    assert calls == list(range(40, 1, -1))
    expected = list(range(40))
    reference_shuffle(scalar, expected)
    assert shuffled == expected
    assert block._s == scalar._s


# per-generator counts around the lane length and the scalar/lane threshold
LANE_COUNTS = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 1599, 1600]), st.integers(0, 3000))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), counts=st.lists(LANE_COUNTS, min_size=1, max_size=6))
def test_lane_draw_equals_each_generators_next_u64(seed, counts):
    # totals below _MIN_BLOCK step each generator alone, the rest as lanes of one array
    gens = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(counts))]
    scalars = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(counts))]
    blocks = u64_blocks(gens, counts)
    for gen, scalar, n, block in zip(gens, scalars, counts, blocks):
        assert block.tolist() == [scalar.next_u64() for _ in range(n)]
        assert gen._s == scalar._s
        assert gen.next_u64() == scalar.next_u64()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), epochs=st.integers(0, 25),
       sizes=st.lists(st.integers(0, 120), min_size=1, max_size=6))
def test_shuffle_plans_equal_successive_randbelow_shuffles(seed, epochs, sizes):
    gens = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(sizes))]
    scalars = [Xoshiro256StarStar(derive_seed(seed, i)) for i in range(len(sizes))]
    plans = shuffle_plans(gens, sizes, epochs)
    for gen, scalar, n, plan in zip(gens, scalars, sizes, plans):
        assert plan.shape == (epochs, max(n - 1, 0))
        shuffled, expected = list(range(n)), list(range(n))
        for picks in plan:
            permute(shuffled, picks)
            reference_shuffle(scalar, expected)
            assert shuffled == expected
        assert gen._s == scalar._s
