"""Seeded randomness helpers shared by the dataset generators.

Everything downstream of a seed is deterministic: generators create their
own ``random.Random`` instances (never the global RNG) so datasets are
reproducible record-for-record across runs and machines.
"""

from __future__ import annotations

import datetime
import random

__all__ = ["make_rng", "random_phrase", "date_range_days", "add_days",
           "zipf_sampler", "WORDS"]

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


def random_phrase(rng: random.Random, num_words: int) -> str:
    """A short text phrase, e.g. for part names and comments."""
    return " ".join(rng.choice(WORDS) for __ in range(num_words))


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
