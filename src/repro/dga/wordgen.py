"""Deterministic pseudo-random domain-label generation.

Real DGA malware derives each domain from a seed (often the current date)
through a small arithmetic core: a linear congruential generator, a
multiply-xor hash chain, or repeated hashing of the seed.  This module
provides those cores so every DGA family in :mod:`repro.dga.families` can
generate its daily query pool deterministically from ``(seed, date)`` —
exactly the property the paper relies on when it queries DGArchive for the
"pool dataset".

All generators here are pure functions of their inputs: the same
``(seed, date, index)`` always yields the same domain, on any platform.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lcg",
    "LcgBlocks",
    "XorShift64",
    "date_seed",
    "label_from_stream",
    "hex_label_from_stream",
    "consonant_vowel_label",
    "COMMON_TLDS",
]

#: TLD sets used by the synthetic DGA families.  The exact strings are
#: irrelevant to the estimators; they only need to be syntactically valid
#: and stable.
COMMON_TLDS = ("com", "net", "org", "biz", "info", "ru", "cn", "ws")

_ALPHA = "abcdefghijklmnopqrstuvwxyz"
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_VOWELS = "aeiou"
_CONSONANTS = "bcdfghjklmnpqrstvwxyz"

_MASK64 = (1 << 64) - 1

#: Most draws one :class:`LcgBlocks` block holds; bounds the working set
#: of a vectorised pool generation to a few 64 KiB arrays.
BLOCK_DRAWS = 8192

_ALPHA_BYTES = np.frombuffer(_ALPHA.encode("ascii"), dtype=np.uint8)
_HEX_BYTES = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_VOWEL_BYTES = np.frombuffer(_VOWELS.encode("ascii"), dtype=np.uint8)
_CONSONANT_BYTES = np.frombuffer(_CONSONANTS.encode("ascii"), dtype=np.uint8)


class Lcg:
    """64-bit linear congruential generator (Knuth MMIX constants).

    A minimal, dependency-free PRNG with a fully specified state-update
    rule, so DGA pools are reproducible independent of Python's
    ``random`` module internals.
    """

    _A = 6364136223846793005
    _C = 1442695040888963407

    def __init__(self, seed: int) -> None:
        self._state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64
        # Warm up so nearby seeds diverge quickly.
        for _ in range(3):
            self.next_u64()

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit value."""
        self._state = (self._state * self._A + self._C) & _MASK64
        # Output tempering: xorshift the raw state to decorrelate low bits.
        x = self._state
        x ^= x >> 33
        x = (x * 0xFF51AFD7ED558CCD) & _MASK64
        x ^= x >> 29
        return x

    def next_below(self, bound: int) -> int:
        """Return an integer uniform in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


#: Affine-power table of the LCG step: the state ``k + 1`` steps after
#: ``s`` is ``_STEP_A[k] * s + _STEP_C[k]`` (mod 2**64).  Grown by
#: doubling on demand and shared by every :class:`LcgBlocks`.
_STEP_A = np.array([Lcg._A], dtype=np.uint64)
_STEP_C = np.array([Lcg._C], dtype=np.uint64)


def _affine_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` rows of the affine-power table."""
    global _STEP_A, _STEP_C
    while len(_STEP_A) < n:
        # m more steps after the first m: a_i * (a_m s + c_m) + c_i.
        a_m, c_m = _STEP_A[-1], _STEP_C[-1]
        _STEP_A, _STEP_C = (
            np.concatenate((_STEP_A, _STEP_A * a_m)),
            np.concatenate((_STEP_C, _STEP_A * c_m + _STEP_C)),
        )
    return _STEP_A[:n], _STEP_C[:n]


class LcgBlocks:
    """The draw stream of :class:`Lcg`, computed a block at a time.

    Every state of a block is an affine function of the block's start
    state (numpy ``uint64`` arithmetic wraps mod 2**64 exactly as
    ``& _MASK64`` does), so a block is one multiply-add plus the output
    tempering over an array.  :meth:`draws` peeks at the next ``n``
    draws; :meth:`consume` moves the stream past the first ``k`` of
    them, so a caller that only uses whole labels from a block resumes
    at the exact next draw.
    """

    def __init__(self, seed: int) -> None:
        self._state = Lcg(seed)._state
        self._states: np.ndarray | None = None

    def draws(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``Lcg.next_u64`` (stream not advanced)."""
        a, c = _affine_steps(n)
        self._states = a * np.uint64(self._state) + c
        x = self._states ^ (self._states >> np.uint64(33))
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(29)
        return x

    def consume(self, k: int) -> None:
        """Advance past the first ``k`` draws of the last :meth:`draws` block."""
        if k:
            assert self._states is not None
            self._state = int(self._states[k - 1])


def _chars(draws: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """``alphabet[draw % len(alphabet)]`` per draw, as ASCII bytes."""
    return alphabet[(draws % np.uint64(len(alphabet))).astype(np.uint8)]


def _split_fixed(chars: np.ndarray, width: int) -> list[str]:
    text = chars.tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


class XorShift64:
    """Marsaglia xorshift64* generator — a second independent PRNG core.

    Some families use this instead of :class:`Lcg` so that two DGAs with
    the same numeric seed still produce unrelated pools.
    """

    def __init__(self, seed: int) -> None:
        self._state = (seed | 1) & _MASK64

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit value."""
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_below(self, bound: int) -> int:
        """Return an integer uniform in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


def date_seed(day: _dt.date, family_seed: int) -> int:
    """Fold a calendar date and a per-family seed into one 64-bit seed.

    Mirrors the common malware idiom of seeding the DGA with
    ``(year, month, day)``; the family seed plays the role of the
    hard-coded campaign constant found in real samples.
    """
    packed = (day.year << 16) | (day.month << 8) | day.day
    return ((packed * 0x5DEECE66D) ^ (family_seed * 0x9E3779B1)) & _MASK64


def label_from_stream(rng: Lcg | XorShift64, min_len: int, max_len: int) -> str:
    """Draw a lowercase alphabetic label with length in ``[min_len, max_len]``."""
    if not 1 <= min_len <= max_len:
        raise ValueError(f"invalid label length range [{min_len}, {max_len}]")
    length = min_len + rng.next_below(max_len - min_len + 1)
    return "".join(_ALPHA[rng.next_below(26)] for _ in range(length))


def hex_label_from_stream(rng: Lcg | XorShift64, length: int) -> str:
    """Draw a fixed-length hexadecimal label (newGoZ-style)."""
    if length < 1:
        raise ValueError(f"label length must be positive, got {length}")
    return "".join("0123456789abcdef"[rng.next_below(16)] for _ in range(length))


def consonant_vowel_label(rng: Lcg | XorShift64, syllables: int) -> str:
    """Draw a pronounceable consonant-vowel label (Pykspa-style)."""
    if syllables < 1:
        raise ValueError(f"syllable count must be positive, got {syllables}")
    parts = []
    for _ in range(syllables):
        parts.append(_CONSONANTS[rng.next_below(len(_CONSONANTS))])
        parts.append(_VOWELS[rng.next_below(len(_VOWELS))])
    return "".join(parts)


@dataclass(frozen=True)
class LabelSpec:
    """Shape of the labels a family generates.

    ``style`` selects the character model: ``"alpha"`` (uniform letters),
    ``"hex"`` (fixed-length hexadecimal) or ``"cv"`` (consonant-vowel
    syllables).  ``min_len``/``max_len`` bound alpha labels; ``length``
    fixes hex labels; ``syllables`` fixes cv labels.
    """

    style: str = "alpha"
    min_len: int = 8
    max_len: int = 16
    length: int = 32
    syllables: int = 4

    def draw(self, rng: Lcg | XorShift64) -> str:
        """Draw one label of this spec from ``rng``."""
        if self.style == "alpha":
            return label_from_stream(rng, self.min_len, self.max_len)
        if self.style == "hex":
            return hex_label_from_stream(rng, self.length)
        if self.style == "cv":
            return consonant_vowel_label(rng, self.syllables)
        raise ValueError(f"unknown label style: {self.style!r}")

    def _max_draws(self) -> int:
        """Most draws one label of this spec takes (validates the spec)."""
        if self.style == "alpha":
            if not 1 <= self.min_len <= self.max_len:
                raise ValueError(
                    f"invalid label length range [{self.min_len}, {self.max_len}]"
                )
            return 1 + self.max_len
        if self.style == "hex":
            if self.length < 1:
                raise ValueError(f"label length must be positive, got {self.length}")
            return self.length
        if self.style == "cv":
            if self.syllables < 1:
                raise ValueError(
                    f"syllable count must be positive, got {self.syllables}"
                )
            return 2 * self.syllables
        raise ValueError(f"unknown label style: {self.style!r}")

    def block_draws(self, n_labels: int) -> int:
        """Draws to request for up to ``n_labels`` labels: at most
        :data:`BLOCK_DRAWS` (but always room for one label), and for
        fixed-width styles a whole number of labels."""
        per_label = self._max_draws()
        if self.style == "alpha":
            return max(per_label, min(BLOCK_DRAWS, n_labels * per_label))
        return per_label * max(1, min(BLOCK_DRAWS // per_label, n_labels))

    def labels(self, draws: np.ndarray) -> tuple[list[str], int]:
        """The whole labels :meth:`draw` would make from the front of
        ``draws`` (consecutive ``Lcg.next_u64`` values), and how many
        draws they used."""
        per_label = self._max_draws()
        n = len(draws)
        if self.style == "hex":
            used = n - n % per_label
            return _split_fixed(_chars(draws[:used], _HEX_BYTES), per_label), used
        if self.style == "cv":
            used = n - n % per_label
            pairs = draws[:used].reshape(-1, 2)
            chars = np.empty(pairs.shape, dtype=np.uint8)
            chars[:, 0] = _chars(pairs[:, 0], _CONSONANT_BYTES)
            chars[:, 1] = _chars(pairs[:, 1], _VOWEL_BYTES)
            return _split_fixed(chars, per_label), used
        # alpha: one length draw, then that many letter draws.
        lengths = (draws % np.uint64(self.max_len - self.min_len + 1)).tolist()
        text = _chars(draws, _ALPHA_BYTES).tobytes().decode("ascii")
        labels: list[str] = []
        pos = 0
        while pos < n:
            end = pos + 1 + self.min_len + lengths[pos]
            if end > n:
                break
            labels.append(text[pos + 1 : end])
            pos = end
        return labels, pos
