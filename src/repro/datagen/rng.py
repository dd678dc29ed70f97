"""Seeded randomness helpers shared by the dataset generators.

Everything downstream of a seed is deterministic: generators create their
own ``random.Random`` instances (never the global RNG) so datasets are
reproducible record-for-record across runs and machines.
"""

from __future__ import annotations

import datetime
import random
from typing import Callable

__all__ = ["make_rng", "make_below", "random_phrase", "date_range_days",
           "add_days", "iso_days", "zipf_sampler", "WORDS"]

#: A small neutral corpus for text columns (TPC-H-flavoured).
WORDS = (
    "almond antique aquamarine azure beige bisque blanched blue blush "
    "brown burlywood burnished chartreuse chiffon chocolate coral cornflower "
    "cream cyan dark deep dim dodger drab firebrick floral forest frosted "
    "gainsboro ghost goldenrod green grey honeydew hot indian ivory khaki "
    "lace lavender lawn lemon light lime linen magenta maroon medium metallic "
    "midnight mint misty moccasin navajo navy olive orange orchid pale "
    "papaya peach peru pink plum powder puff purple red rose rosy royal "
    "saddle salmon sandy seashell sienna sky slate smoke snow spring steel "
    "tan thistle tomato turquoise violet wheat white yellow"
).split()


def make_rng(seed: int, stream: str = "") -> random.Random:
    """A dedicated RNG for one generator stream.

    Distinct ``stream`` labels decorrelate tables generated from the same
    top-level seed without consuming each other's sequences.
    """
    if stream:
        seed = seed * 1_000_003 + sum(ord(c) for c in stream)
    return random.Random(seed)


def make_below(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: a uniform int in ``[0, n)``, drawn from ``rng``'s
    public ``getrandbits`` by the stdlib's own rule (``n <= 0`` raises
    ``ValueError``, as an empty ``randrange`` does).

    The stdlib draws ``k = n.bit_length()`` bits and redraws while the
    result is ``>= n``; CPython 3.10 to 3.13 share that rule, so
    ``below`` consumes ``rng`` exactly as these do, value for value:

    * ``rng.randrange(a, b)`` is ``a + below(b - a)``;
    * ``rng.choice(seq)`` is ``seq[below(len(seq))]``;
    * ``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``.

    Generators draw through it because it is one Python call per draw
    where ``randrange`` and ``choice`` are two or three, and because it
    does not lean on ``random``'s private helpers.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        if n <= 0:
            raise ValueError(f"empty range for below({n})")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


_NUM_WORDS = len(WORDS)


def random_phrase(rng: random.Random, num_words: int) -> str:
    """A short text phrase, e.g. for part names and comments: the words
    ``rng.choice(WORDS)`` would draw, one after another."""
    below = make_below(rng)
    return " ".join([WORDS[below(_NUM_WORDS)] for __ in range(num_words)])


def zipf_sampler(rng: random.Random, n: int, s: float = 1.0):
    """A sampler over ``[0, n)`` with Zipf(s) probabilities.

    Rank ``k`` (0-based) is drawn with probability proportional to
    ``1 / (k + 1) ** s``.  ``s = 0`` degenerates to uniform.  Used to
    inject fanout/popularity skew into synthetic workloads (e.g. the
    skew-tolerance ablation).
    """
    import bisect

    if n < 1:
        raise ValueError(f"zipf domain must be non-empty, got n={n}")
    cumulative: list[float] = []
    total = 0.0
    for k in range(n):
        total += 1.0 / (k + 1) ** s
        cumulative.append(total)

    def sample() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    return sample


def date_range_days(start: str, end: str) -> int:
    """Days between two ISO dates (inclusive span length minus one)."""
    first = datetime.date.fromisoformat(start)
    last = datetime.date.fromisoformat(end)
    return (last - first).days


def add_days(start: str, days: int) -> str:
    """ISO date ``days`` after ``start``."""
    first = datetime.date.fromisoformat(start)
    return (first + datetime.timedelta(days=days)).isoformat()


def iso_days(start: str, count: int) -> list[str]:
    """The ISO dates ``start`` and the ``count - 1`` days after it:
    ``iso_days(start, n)[d] == add_days(start, d)``."""
    first = datetime.date.fromisoformat(start).toordinal()
    return [datetime.date.fromordinal(day).isoformat()
            for day in range(first, first + count)]
