"""Braid words, their classical statistics, and Markov/symmetry moves.

A braid word is a sequence of Artin generators sigma_k^{+-1} in B_n,
stored as signed indices (k for sigma_k, -k for its inverse).  No free
reduction is ever performed: moves return literal concatenations.
"""

from __future__ import annotations

from typing import NamedTuple


class BraidError(ValueError):
    pass


class _BraidFields(NamedTuple):
    strands: int
    letters: tuple[int, ...] = ()


class BraidWord(_BraidFields):
    """Immutable and hashable; `letters` is a tuple, `len` counts letters."""
    __slots__ = ()

    def __new__(cls, strands: int, letters=()) -> "BraidWord":
        if strands < 1:
            raise BraidError("strand count must be >= 1")
        letters = tuple(letters)
        for k in letters:
            if k == 0:
                raise BraidError("letter 0 is not a generator")
            if abs(k) > strands - 1:
                raise BraidError(
                    f"letter {k} needs at least {abs(k) + 1} strands, have {strands}")
        return super().__new__(cls, strands, letters)

    @classmethod
    def _make(cls, fields) -> "BraidWord":
        return cls(*fields)

    def _replace(self, **changes) -> "BraidWord":
        # through the checks above; the inherited one counts fields by len
        return BraidWord(**{**self._asdict(), **changes})

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other):
        return NotImplemented  # tuple concatenation would skip the checks
    __rmul__ = __add__

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def text(self) -> str:
        return " ".join(str(k) for k in self.letters)

    def __str__(self) -> str:
        body = self.text() if self.letters else "(empty)"
        return f"{body} in B{self.strands}"


class BraidStats(NamedTuple):
    writhe: int
    strands: int
    self_linking: int
    permutation: tuple[int, ...]
    components: int
    is_knot: bool


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse a whitespace-separated list of nonzero integers.

    Negative integers denote inverse generators.  The strand count is
    1 + max |letter| unless an explicit larger override is given.
    """
    tokens = text.split()
    letters = []
    for tok in tokens:
        try:
            k = int(tok)
        except ValueError:
            raise BraidError(f"bad braid letter {tok!r}") from None
        if k == 0:
            raise BraidError("letter 0 is not a generator")
        letters.append(k)
    needed = 1 + max((abs(k) for k in letters), default=0)
    if strands is None:
        strands = needed
    elif strands < needed:
        raise BraidError(f"strands={strands} too small for letters (need {needed})")
    return BraidWord(strands, tuple(letters))


def braid_stats(b: BraidWord) -> BraidStats:
    n = b.strands
    writhe = sum(1 if k > 0 else -1 for k in b.letters)
    # permutation composed left-to-right over letters, bottom-to-top
    perm = list(range(1, n + 1))
    for k in b.letters:
        i = abs(k)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen = [False] * n
    components = 0
    for i in range(n):
        if seen[i]:
            continue
        components += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
    return BraidStats(
        writhe=writhe,
        strands=n,
        self_linking=writhe - n,
        permutation=tuple(perm),
        components=components,
        is_knot=(components == 1),
    )


def _shift(b: BraidWord) -> tuple[int, ...]:
    return tuple(k + 1 if k > 0 else k - 1 for k in b.letters)


def markov_move(b: BraidWord, move: str, k: int | None = None,
                sign: int = 1) -> BraidWord:
    """Apply a Markov move.

    conjugate: sigma_k^{-s} B sigma_k^{s} as a literal concatenation.
    stab_pos / stab_neg: shift every index up by one and append
    sigma_1^{+-1} on n+1 strands (the new strand sits below the old ones).
    """
    if move == "conjugate":
        if k is None or not 1 <= k <= b.strands - 1:
            raise BraidError(f"conjugation index {k} out of range")
        if sign not in (1, -1):
            raise BraidError("sign must be +1 or -1")
        return BraidWord(b.strands, (-sign * k,) + b.letters + (sign * k,))
    if move == "stab_pos":
        return BraidWord(b.strands + 1, _shift(b) + (1,))
    if move == "stab_neg":
        return BraidWord(b.strands + 1, _shift(b) + (-1,))
    raise BraidError(f"unknown move {move!r}")


def braid_transform(b: BraidWord, kind: str) -> BraidWord:
    """reverse: reverse letter order (transverse mirror).
    star: send each sigma_k^s to sigma_{n-k}^{-s}, order preserved.
    inverse: reverse order and flip every sign.
    """
    n = b.strands
    if kind == "reverse":
        return BraidWord(n, b.letters[::-1])
    if kind == "star":
        return BraidWord(n, tuple(-(n - abs(k)) * (1 if k > 0 else -1)
                                  for k in b.letters))
    if kind == "inverse":
        return BraidWord(n, tuple(-k for k in b.letters[::-1]))
    raise BraidError(f"unknown transform {kind!r}")
