"""Invented place names for generated problems.

Names are built from syllables so they read as plausible proper nouns
without ever colliding with the vocabulary used by the prose templates.
A collision would be poison: if a node were called "Depot" the sentence
"the courier leaves the depot" would suddenly contain a node reference
that no extractor could tell apart from flavour text.  The generator
rejects any name in :data:`~graphcrew.dataset.text.RESERVED_WORDS`,
which is read from the templates themselves: every word they can emit.
"""

from __future__ import annotations

import random

from .text import RESERVED_WORDS

_ONSETS = (
    "b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr",
    "h", "j", "k", "l", "m", "n", "p", "pr", "r", "s",
    "st", "t", "tr", "v", "w", "z", "th", "sh",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ei", "ou")
_CODAS = ("", "", "", "n", "r", "l", "s", "th", "x", "m")

# generated names stay within these bounds
MIN_LENGTH = 4
MAX_LENGTH = 10


def _candidate(rng: random.Random) -> str:
    syllables = rng.choice((2, 2, 3))
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS))
        parts.append(rng.choice(_VOWELS))
    parts.append(rng.choice(_CODAS))
    return "".join(parts).capitalize()


def generate_names(count: int, rng: random.Random) -> list[str]:
    """Return `count` distinct pronounceable names.

    Uniqueness is case-insensitive and reserved words are skipped, so the
    result is safe to drop into any scenario template.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = _candidate(rng)
        if not (MIN_LENGTH <= len(name) <= MAX_LENGTH):
            continue
        key = name.lower()
        if key in seen or key in RESERVED_WORDS:
            continue
        seen.add(key)
        names.append(name)
    return names
