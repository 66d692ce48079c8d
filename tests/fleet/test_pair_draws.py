"""Block pair draws replicate ``Generator.choice(n, 2, replace=False)``.

:func:`repro.fleet.pairs.choice_pairs` decodes numpy's Floyd + shuffle
consumption of 32-bit words by hand, so these tests pin it to the real
``choice`` on the installed numpy: the pairs, and the generator's next
draw afterwards. Lemire rejections are too rare to meet by chance, so
one test crafts an MT19937 stream that contains them.
"""

import numpy as np
import pytest

from repro.fleet.pairs import choice_pairs, decode_pair_block


def _scalar_pairs(rng, n, m):
    pairs = np.array([rng.choice(n, size=2, replace=False) for _ in range(m)])
    return pairs.reshape(m, 2)


def _untemper(y):
    """Invert MT19937's output tempering (so a state word can be chosen
    to make the generator emit a given 32-bit value)."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def _crafted_generator(words):
    """A Generator whose next ``len(words)`` 32-bit outputs are ``words``."""
    bit_generator = np.random.MT19937(0)
    state = bit_generator.state
    key = np.array(state["state"]["key"], dtype=np.uint32)
    key[: len(words)] = [_untemper(int(w)) for w in words]
    state["state"]["key"] = key
    state["state"]["pos"] = 0
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class TestChoicePairs:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 64])
    def test_matches_scalar_choice(self, n):
        for seed in range(24):
            fast_rng = np.random.default_rng(seed)
            slow_rng = np.random.default_rng(seed)
            first, second = choice_pairs(fast_rng, n, 300)
            assert first.dtype == second.dtype == np.int64
            expected = _scalar_pairs(slow_rng, n, 300)
            np.testing.assert_array_equal(first, expected[:, 0])
            np.testing.assert_array_equal(second, expected[:, 1])
            assert fast_rng.integers(2**63) == slow_rng.integers(2**63)

    def test_empty_draw_leaves_the_stream(self):
        rng = np.random.default_rng(2)
        first, second = choice_pairs(rng, 4, 0)
        assert len(first) == len(second) == 0
        assert rng.integers(2**63) == np.random.default_rng(2).integers(2**63)

    def test_rejects_a_single_node(self):
        with pytest.raises(ValueError):
            choice_pairs(np.random.default_rng(0), 1, 3)


class TestLemireRejection:
    def test_crafted_stream_replays_itself(self):
        words = np.random.default_rng(9).integers(0, 2**32, 64, dtype=np.uint32)
        rng = _crafted_generator(words)
        np.testing.assert_array_equal(
            rng.integers(0, 2**32, 64, dtype=np.uint32), words
        )

    @pytest.mark.parametrize("n", [3, 5, 10, 64])
    def test_rejecting_words_match_scalar_sequence(self, n):
        # A zero word rejects for every range > 1 that is not a power of
        # two: plant one in the first-index slot and one in the
        # second-index slot of different pairs.
        words = np.random.default_rng(n).integers(0, 2**32, 400, dtype=np.uint32)
        words[3 * 4] = 0
        words[3 * 20 + 1] = 0
        words[3 * 21 + 1] = 0
        _first, _second, accepted = decode_pair_block(words[:240], n)
        assert accepted < 80, "the crafted block must contain a rejection"

        fast_rng = _crafted_generator(words)
        slow_rng = _crafted_generator(words)
        first, second = choice_pairs(fast_rng, n, 100)
        expected = _scalar_pairs(slow_rng, n, 100)
        np.testing.assert_array_equal(first, expected[:, 0])
        np.testing.assert_array_equal(second, expected[:, 1])
        assert fast_rng.integers(2**32) == slow_rng.integers(2**32)

    def test_decode_stops_before_the_rejected_pair(self):
        words = np.random.default_rng(4).integers(0, 2**32, 9, dtype=np.uint32)
        words[4] = 0  # second pair, second-index slot, range 10
        first, second, accepted = decode_pair_block(words, 10)
        assert accepted == 1
        assert len(first) == len(second) == 1
