"""Noncommutative polynomials over the Laurent coefficient ring Z[L^(+-1), m^(+-1)][U, V].

Elements are finite sums

    c * L^a * m^b * U^p * V^q * g1 g2 ... gk

where c is an integer, L and m are central invertible scalars, U and V are
central scalars (invertible only after passing to the "infinity" flavor),
and each gi is a noncommuting generator drawn from six families:

    a_ij  degree 0   (i != j)
    b_ij  degree 1   (i != j)
    c_ij  degree 1
    d_ij  degree 1
    e_ij  degree 2
    f_ij  degree 2

Internally a polynomial is a dict mapping (word, base) -> coeff, where
word is a tuple of Generator and base is the exponent 4-tuple
(L, m, U, V).  Zero coefficients are never stored, so dict equality is
polynomial equality.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

FAMILY_DEGREE = {"a": 0, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2}

# pretty names for the central scalars; L and m are unit Laurent variables
SCALAR_NAMES = ("L", "m", "U", "V")


class Generator(NamedTuple):
    family: str
    row: int
    col: int

    @property
    def degree(self) -> int:
        return FAMILY_DEGREE[self.family]

    def __str__(self) -> str:
        if self.row < 10 and self.col < 10:
            return f"{self.family}{self.row}{self.col}"
        return f"{self.family}_{self.row}_{self.col}"


Base = tuple[int, int, int, int]
Word = tuple[Generator, ...]
Term = tuple[Word, Base]

_ZERO_BASE: Base = (0, 0, 0, 0)


def gen(family: str, row: int, col: int) -> Generator:
    if family not in FAMILY_DEGREE:
        raise ValueError(f"unknown generator family {family!r}")
    if family in ("a", "b") and row == col:
        raise ValueError(f"{family}_ii generators do not exist")
    if row < 1 or col < 1:
        raise ValueError("generator indices are 1-based")
    return Generator(family, row, col)


def word_degree(word: Word) -> int:
    return sum(g.degree for g in word)


def _term_key(term: Term):
    word, base = term
    return (len(word), word, base)


class NCPoly:
    """A noncommutative polynomial in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        if terms is None:
            self.terms: dict[Term, int] = {}
        else:
            self.terms = {t: c for t, c in terms.items() if c}

    # ---- constructors ----

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def scalar(coeff: int, lam: int = 0, mu: int = 0, u: int = 0, v: int = 0) -> "NCPoly":
        if coeff == 0:
            return NCPoly()
        return NCPoly({((), (lam, mu, u, v)): coeff})

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly.scalar(1)

    @staticmethod
    def generator(family: str, row: int, col: int) -> "NCPoly":
        return NCPoly({((gen(family, row, col),), _ZERO_BASE): 1})

    @staticmethod
    def from_word(word: Iterable[Generator], coeff: int = 1,
                  base: Base = _ZERO_BASE) -> "NCPoly":
        if coeff == 0:
            return NCPoly()
        return NCPoly({(tuple(word), base): coeff})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not word for word, _ in self.terms)

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for word, _ in self.terms:
            out.update(word)
        return out

    def sorted_terms(self) -> list[tuple[Term, int]]:
        """Terms in canonical order: word length, then word (family a<b<...<f,
        then row, then col), then scalar exponents."""
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def homogeneous_degree(self) -> int | None:
        """The common generator degree of all terms, or None if mixed/zero."""
        degs = {word_degree(word) for word, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # ---- arithmetic ----

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        new = dict(self.terms)
        for t, c in other.terms.items():
            s = new.get(t, 0) + c
            if s:
                new[t] = s
            else:
                del new[t]
        p = NCPoly.__new__(NCPoly)
        p.terms = new
        return p

    def __neg__(self) -> "NCPoly":
        p = NCPoly.__new__(NCPoly)
        p.terms = {t: -c for t, c in self.terms.items()}
        return p

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            if other == 0:
                return NCPoly()
            p = NCPoly.__new__(NCPoly)
            p.terms = {t: c * other for t, c in self.terms.items()}
            return p
        if not isinstance(other, NCPoly):
            return NotImplemented
        new: dict[Term, int] = {}
        for (w1, b1), c1 in self.terms.items():
            for (w2, b2), c2 in other.terms.items():
                t = (w1 + w2, (b1[0] + b2[0], b1[1] + b2[1], b1[2] + b2[2], b1[3] + b2[3]))
                s = new.get(t, 0) + c1 * c2
                if s:
                    new[t] = s
                elif t in new:
                    del new[t]
        p = NCPoly.__new__(NCPoly)
        p.terms = new
        return p

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def scale_base(self, lam: int = 0, mu: int = 0, u: int = 0, v: int = 0) -> "NCPoly":
        """Multiply by the central monomial L^lam m^mu U^u V^v."""
        p = NCPoly.__new__(NCPoly)
        p.terms = {
            (word, (b[0] + lam, b[1] + mu, b[2] + u, b[3] + v)): c
            for (word, b), c in self.terms.items()
        }
        return p

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == NCPoly.scalar(other).terms
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---- substitution and involutions ----

    def substitute(self, images: Mapping[Generator, "NCPoly"]) -> "NCPoly":
        """Replace generators by polynomials (an algebra map fixing scalars).

        Generators absent from `images` map to themselves.
        """
        out = NCPoly()
        for (word, base), coeff in self.terms.items():
            if not any(g in images for g in word):
                out += NCPoly({(word, base): coeff})
                continue
            prod = NCPoly.scalar(coeff, *base)
            for g in word:
                img = images.get(g)
                if img is None:
                    prod = prod * NCPoly({((g,), _ZERO_BASE): 1})
                else:
                    prod = prod * img
            out += prod
        return out

    def op(self) -> "NCPoly":
        """Reverse words with the Koszul sign (-1)^(sum_{i<j} |g_i||g_j|)."""
        new: dict[Term, int] = {}
        for (word, base), coeff in self.terms.items():
            sign = 1
            degs = [g.degree for g in word]
            for i in range(len(degs)):
                for j in range(i + 1, len(degs)):
                    if degs[i] % 2 and degs[j] % 2:
                        sign = -sign
            t = (word[::-1], base)
            s = new.get(t, 0) + sign * coeff
            if s:
                new[t] = s
            elif t in new:
                del new[t]
        p = NCPoly.__new__(NCPoly)
        p.terms = new
        return p

    # ---- flavor specialization ----

    def specialize(self, flavor: str, sl: int | None = None) -> "NCPoly":
        """Pass to a flavor of the coefficient ring.

        minus      -- identity
        hat        -- U = 0, V = 1
        doublehat  -- U = 0, V = 0
        infinity   -- L^a is rewritten as L^a U^(-a*(sl+1)/2) V^(a*(sl+1)/2);
                      requires the (odd) self-linking number sl.
        """
        if flavor == "minus":
            return self
        new: dict[Term, int] = {}
        if flavor == "hat":
            for (word, b), c in self.terms.items():
                if b[2] != 0:
                    continue
                t = (word, (b[0], b[1], 0, 0))
                s = new.get(t, 0) + c
                if s:
                    new[t] = s
                elif t in new:
                    del new[t]
        elif flavor == "doublehat":
            for (word, b), c in self.terms.items():
                if b[2] != 0 or b[3] != 0:
                    continue
                new[(word, b)] = c
        elif flavor == "infinity":
            if sl is None or sl % 2 == 0:
                raise ValueError("infinity flavor needs an odd self-linking number")
            k = (sl + 1) // 2
            for (word, b), c in self.terms.items():
                t = (word, (b[0], b[1], b[2] - b[0] * k, b[3] + b[0] * k))
                s = new.get(t, 0) + c
                if s:
                    new[t] = s
                elif t in new:
                    del new[t]
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        p = NCPoly.__new__(NCPoly)
        p.terms = new
        return p

    # ---- printing ----

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for (word, base), coeff in self.sorted_terms():
            factors: list[str] = []
            for name, exp in zip(SCALAR_NAMES, base):
                if exp == 1:
                    factors.append(name)
                elif exp != 0:
                    factors.append(f"{name}^{exp}")
            factors.extend(str(g) for g in word)
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"NCPoly({self})"

    # ---- serialization ----

    def to_obj(self) -> list[dict]:
        out = []
        for (word, base), coeff in self.sorted_terms():
            out.append({
                "coeff": str(coeff),
                "lam": base[0],
                "mu": base[1],
                "u": base[2],
                "v": base[3],
                "word": [[g.family, g.row, g.col] for g in word],
            })
        return out

    @staticmethod
    def from_obj(obj: list[dict]) -> "NCPoly":
        terms: dict[Term, int] = {}
        for t in obj:
            word = tuple(Generator(f, r, c) for f, r, c in t["word"])
            base = (t["lam"], t["mu"], t["u"], t["v"])
            terms[(word, base)] = terms.get((word, base), 0) + int(t["coeff"])
        return NCPoly(terms)

    def to_json(self) -> str:
        return json.dumps({"terms": self.to_obj()})

    @staticmethod
    def from_json(text: str) -> "NCPoly":
        return NCPoly.from_obj(json.loads(text)["terms"])


def pow_mod(base: int, exp: int, prime: int) -> int:
    """base^exp mod prime, allowing negative exponents of units."""
    base %= prime
    if exp < 0:
        if base == 0:
            raise ZeroDivisionError("nonunit specialization")
        base = pow(base, -1, prime)
        exp = -exp
    return pow(base, exp, prime)


def evaluate_abelian(p: NCPoly, assign: Mapping[Generator, int], prime: int,
                     lam0: int, mu0: int, u0: int, v0: int) -> int:
    """Evaluate after abelianizing: generators become commuting field
    elements, scalars are specialized mod prime."""
    scalars = (lam0, mu0, u0, v0)
    total = 0
    for (word, base), coeff in p.terms.items():
        val = coeff % prime
        for s, exp in zip(scalars, base):
            if val == 0:
                break
            val = val * pow_mod(s, exp, prime) % prime
        for g in word:
            if val == 0:
                break
            val = val * (assign[g] % prime) % prime
        total = (total + val) % prime
    return total


class GenMatrix:
    """A square matrix, 1-indexed via .at(i, j).  The constructors fill in
    NCPoly entries; the arithmetic works for any entry type with +, -, *
    and is_zero."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[list[NCPoly]] | None = None):
        self.n = n
        if rows is None:
            self.rows = [[NCPoly() for _ in range(n)] for _ in range(n)]
        else:
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("ragged matrix")
            self.rows = rows

    @staticmethod
    def identity(n: int) -> "GenMatrix":
        m = GenMatrix(n)
        for i in range(n):
            m.rows[i][i] = NCPoly.one()
        return m

    @staticmethod
    def diagonal(entries: list[NCPoly]) -> "GenMatrix":
        m = GenMatrix(len(entries))
        for i, e in enumerate(entries):
            m.rows[i][i] = e
        return m

    @staticmethod
    def build(n: int, entry: Callable[[int, int], NCPoly]) -> "GenMatrix":
        """entry(i, j) with 1-based indices."""
        return GenMatrix(n, [[entry(i, j) for j in range(1, n + 1)]
                             for i in range(1, n + 1)])

    def at(self, i: int, j: int) -> NCPoly:
        return self.rows[i - 1][j - 1]

    def set(self, i: int, j: int, value: NCPoly) -> None:
        self.rows[i - 1][j - 1] = value

    def __add__(self, other: "GenMatrix") -> "GenMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return GenMatrix(self.n, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "GenMatrix") -> "GenMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return GenMatrix(self.n, [[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "GenMatrix":
        return GenMatrix(self.n, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "GenMatrix") -> "GenMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        # entries may be any type with +, * and is_zero: the first product
        # seeds each sum, so no zero of a fixed type is needed
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    x, y = self.rows[i][k], other.rows[k][j]
                    if not (x.is_zero() or y.is_zero()):
                        acc = acc + x * y
                row.append(acc)
            rows.append(row)
        return GenMatrix(n, rows)

    def map(self, f: Callable[[NCPoly], NCPoly]) -> "GenMatrix":
        return GenMatrix(self.n, [[f(a) for a in r] for r in self.rows])

    def substitute(self, images: Mapping[Generator, NCPoly]) -> "GenMatrix":
        return self.map(lambda p: p.substitute(images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def entries(self) -> Iterator[tuple[int, int, NCPoly]]:
        """Row-major iteration with 1-based indices."""
        for i in range(self.n):
            for j in range(self.n):
                yield i + 1, j + 1, self.rows[i][j]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.rows)
