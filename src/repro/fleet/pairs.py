"""Block draws of distinct node pairs, stream-exact with numpy's ``choice``.

Power-of-two-choices placement draws one pair of distinct nodes per
client. :func:`choice_pairs` draws ``m`` such pairs as arrays and leaves
them — and the generator's stream position — exactly as ``m`` scalar
``rng.choice(n, 2, replace=False)`` calls would, so a vectorized shard
replays the per-client sharding bit for bit.

What one scalar call consumes (numpy's ``Generator.choice`` without
replacement, which uses Floyd's algorithm for a pair, then shuffles):

1. ``a`` uniform in ``[0, n-2]`` — no draw at all when ``n == 2``;
2. ``b`` uniform in ``[0, n-1]``, replaced by ``n-1`` if ``b == a``;
3. ``s`` uniform in ``[0, 1]``; the pair is ``(b, a)`` when ``s == 0``.

Each uniform is Lemire's bounded method on one 32-bit word: for range
``r`` the value is ``(u * r) >> 32``, and the word is rejected (and a
fresh one drawn) when the low 32 bits fall below ``2**32 mod r``.
Rejections are rare (at most ``r / 2**32`` per word) but they shift the
stream, so a block containing one is accepted only up to the affected
pair; the generator is rewound to that point and the pair is taken from
``rng.choice`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["choice_pairs", "decode_pair_block"]

_U32 = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)


def _lemire(words: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """``(values in [0, r), rejected mask)`` for 32-bit words under
    Lemire's method with range ``r``."""
    product = words.astype(np.uint64) * np.uint64(r)
    threshold = (2**32 - r) % r
    return (product >> _U32).astype(np.int64), (product & _LOW) < threshold


def decode_pair_block(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode whole pairs from a block of 32-bit words.

    Returns ``(first, second, accepted)``: the pairs decoded from the
    words of every pair before the first one that hits a Lemire
    rejection (``accepted`` of them; all of them when none rejects).
    """
    per = 2 if n == 2 else 3
    block = np.asarray(words, dtype=np.uint32).reshape(-1, per)
    if n == 2:
        a = np.zeros(len(block), dtype=np.int64)
        b, rejected = _lemire(block[:, 0], 2)
    else:
        a, rejected_a = _lemire(block[:, 0], n - 1)
        b, rejected_b = _lemire(block[:, 1], n)
        rejected = rejected_a | rejected_b
    s, rejected_s = _lemire(block[:, -1], 2)
    rejected |= rejected_s
    accepted = int(np.argmax(rejected)) if rejected.any() else len(block)
    a, b, s = a[:accepted], b[:accepted], s[:accepted]
    b = np.where(b == a, n - 1, b)
    swap = s == 0
    return np.where(swap, b, a), np.where(swap, a, b), accepted


def choice_pairs(
    rng: np.random.Generator, n: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """``m`` pairs of distinct indexes in ``[0, n)``, as two int64
    arrays, identical to ``m`` successive ``rng.choice(n, 2,
    replace=False)`` calls, which leave ``rng`` at the same position."""
    if n < 2:
        raise ValueError(f"a distinct pair needs n >= 2, got {n}")
    per = 2 if n == 2 else 3
    firsts = [np.zeros(0, dtype=np.int64)]
    seconds = [np.zeros(0, dtype=np.int64)]
    done = 0
    while done < m:
        state = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=per * (m - done), dtype=np.uint32)
        first, second, accepted = decode_pair_block(words, n)
        firsts.append(first)
        seconds.append(second)
        done += accepted
        if done < m:
            # A rejection in pair `accepted`: replay the stream up to
            # it, then let numpy resolve that one pair.
            rng.bit_generator.state = state
            rng.integers(0, 2**32, size=per * accepted, dtype=np.uint32)
            pair = rng.choice(n, size=2, replace=False)
            firsts.append(pair[:1].astype(np.int64))
            seconds.append(pair[1:].astype(np.int64))
            done += 1
    return np.concatenate(firsts), np.concatenate(seconds)
