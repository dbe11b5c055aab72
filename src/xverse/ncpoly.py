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
word is a tuple of plain int letter codes (the values of their `Generator`s,
rebuilt by `letter` where a name or degree is needed) and base is the
exponent 4-tuple (L, m, U, V).  Zero coefficients are never stored, so dict
equality is polynomial equality.  Every operation whose terms can meet (sum,
difference, product, substitution, specialization, and the Leibniz rule
of `dga.differential`) sums them through `collect`, the one loop that
adds coefficients and drops a term whose sum reaches 0.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

FAMILY_DEGREE = {"a": 0, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2}

# pretty names for the central scalars; L and m are unit Laurent variables
SCALAR_NAMES = ("L", "m", "U", "V")


class Flavor(NamedTuple):
    fixed: tuple[int, int] | None  # the (U, V) the flavor fixes; None: free
    units: int  # how many leading scalars of (L, m, U, V) are units


# the flavors of the coefficient ring, in the order the CLI lists them:
# infinity inverts U and V, which makes its counts topological invariants
FLAVORS = {"minus": Flavor(None, 2), "hat": Flavor((0, 1), 2),
           "doublehat": Flavor((0, 0), 2), "infinity": Flavor(None, 4)}


def flavor_rule(flavor: str) -> Flavor:
    """The flavor's row of `FLAVORS`; an unknown flavor is a ValueError."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return FLAVORS[flavor]


_FAMILIES = tuple(FAMILY_DEGREE)
# codes pack (family, row, col) in 13-bit fields: below 2^30, one digit
_BITS, _MASK = 13, (1 << 13) - 1


class Generator(int):
    """A letter, named by its int code: int order is (family, row, col)
    order, and equal codes hash equal."""

    __slots__ = ()
    family = property(lambda g: _FAMILIES[g >> 2 * _BITS])
    row = property(lambda g: g >> _BITS & _MASK)
    col = property(lambda g: g & _MASK)
    degree = property(lambda g: FAMILY_DEGREE[g.family])

    def __str__(self) -> str:
        row, col = self >> _BITS & _MASK, self & _MASK
        sep = "" if row < 10 and col < 10 else "_"
        return f"{_FAMILIES[self >> 2 * _BITS]}{sep}{row}{sep}{col}"

    def __repr__(self) -> str:
        return f"gen({self.family!r}, {self.row}, {self.col})"


letter = Generator  # the Generator of a word's letter code

Base = tuple[int, int, int, int]
Word = tuple[int, ...]
Term = tuple[Word, Base]

_ZERO_BASE: Base = (0, 0, 0, 0)
_ONE_TERMS = {((), _ZERO_BASE): 1}


def gen(family: str, row: int, col: int) -> Generator:
    if family not in FAMILY_DEGREE:
        raise ValueError(f"unknown generator family {family!r}")
    if family in ("a", "b") and row == col:
        raise ValueError(f"{family}_ii generators do not exist")
    if row < 1 or col < 1:
        raise ValueError("generator indices are 1-based")
    if max(row, col) > _MASK:
        raise ValueError(f"generator indices stop at {_MASK}")
    return Generator(_FAMILIES.index(family) << 2 * _BITS | row << _BITS | col)


def collect(pairs: Iterable[tuple[Term, int]],
            terms: dict[Term, int] | None = None) -> "NCPoly":
    """The polynomial `terms` + sum of the (term, coeff) pairs.  `terms` is
    taken over, not copied; a term whose coefficient sums to 0 is dropped."""
    if terms is None:
        terms = {}
    get = terms.get
    for t, c in pairs:
        s = get(t, 0) + c
        if s:
            terms[t] = s
        elif t in terms:
            del terms[t]
    p = NCPoly.__new__(NCPoly)
    p.terms = terms
    return p


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
        return NCPoly({((), (lam, mu, u, v)): coeff})

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly.scalar(1)

    @staticmethod
    def generator(family: str, row: int, col: int) -> "NCPoly":
        return NCPoly({((int(gen(family, row, col)),), _ZERO_BASE): 1})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def generators(self) -> set[Generator]:
        return set(map(letter, set().union(*(w for w, _ in self.terms))))

    def sorted_terms(self) -> list[tuple[Term, int]]:
        """Terms in canonical order: word length, then word (family a<b<...<f,
        then row, then col), then scalar exponents."""
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    # ---- arithmetic ----

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return collect(other.terms.items(), dict(self.terms))

    def __neg__(self) -> "NCPoly":
        p = NCPoly.__new__(NCPoly)
        p.terms = {t: -c for t, c in self.terms.items()}
        return p

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return collect(((t, -c) for t, c in other.terms.items()),
                       dict(self.terms))

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            if other == 0:
                return NCPoly()
            p = NCPoly.__new__(NCPoly)
            p.terms = {t: c * other for t, c in self.terms.items()}
            return p
        if not isinstance(other, NCPoly):
            return NotImplemented
        # polynomials are never changed in place, so a product by the
        # scalar 1 (a diagonal Lam) may share the other factor
        if self.terms == _ONE_TERMS:
            return other
        if other.terms == _ONE_TERMS:
            return self
        right = other.terms.items()
        return collect(
            ((w1 + w2, (b1[0] + b2[0], b1[1] + b2[1], b1[2] + b2[2],
                        b1[3] + b2[3])), c1 * c2)
            for (w1, b1), c1 in self.terms.items() for (w2, b2), c2 in right)

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

    # ---- substitution ----

    def substitute(self, images: Mapping[Generator, "NCPoly"]) -> "NCPoly":
        """Replace generators by polynomials (an algebra map fixing scalars).

        Generators absent from `images` map to themselves.  One pass over
        the terms: a term with no replaced letter is passed on as it is;
        any other is expanded letter by letter into a list of (word, base,
        coeff) partial products, and `collect` sums everything.  The lone
        generator g with a replaced image returns images[g] itself.
        """
        if len(self.terms) == 1:
            ((word, base), coeff), = self.terms.items()
            if coeff == 1 and base == _ZERO_BASE and len(word) == 1 and word[0] in images:
                return images[word[0]]
        def pairs():
            for term, coeff in self.terms.items():
                word, base = term
                if not any(g in images for g in word):
                    yield term, coeff
                    continue
                partial = [((), base, coeff)]
                for g in word:
                    img = images.get(g)
                    if img is None:
                        partial = [(w + (g,), b, c) for w, b, c in partial]
                    else:
                        right = img.terms.items()
                        partial = [(w + w2, (b[0] + b2[0], b[1] + b2[1],
                                             b[2] + b2[2], b[3] + b2[3]), c * c2)
                                   for w, b, c in partial
                                   for (w2, b2), c2 in right]
                for w, b, c in partial:
                    yield (w, b), c
        return collect(pairs())

    # ---- flavor specialization ----

    def specialize(self, flavor: str, sl: int | None = None) -> "NCPoly":
        """Pass to a flavor of the coefficient ring (`FLAVORS`).  A scalar
        the flavor fixes at 0 kills the terms that hold it, and one fixed
        at 1 drops out.  A flavor that inverts U and V (infinity) rewrites
        L^a as L^a U^(-a*(sl+1)/2) V^(a*(sl+1)/2), which needs the (odd)
        self-linking number sl.
        """
        fixed, units = flavor_rule(flavor)
        items = self.terms.items()
        if units == 4:
            if sl is None or sl % 2 == 0:
                raise ValueError("infinity flavor needs an odd self-linking number")
            k = (sl + 1) // 2
            return collect(((w, (b[0], b[1], b[2] - b[0] * k, b[3] + b[0] * k)), c)
                           for (w, b), c in items)
        if fixed is None:
            return self
        u0, v0 = fixed
        return collect(((w, (b[0], b[1], 0, 0)), c) for (w, b), c in items
                       if (u0 or not b[2]) and (v0 or not b[3]))

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
            factors.extend(map(Generator.__str__, word))  # names plain codes
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


def pow_mod(base: int, exp: int, prime: int) -> int:
    """base^exp mod prime, allowing negative exponents of units."""
    base %= prime
    if exp < 0:
        if base == 0:
            raise ZeroDivisionError("nonunit specialization")
        base = pow(base, -1, prime)
        exp = -exp
    return pow(base, exp, prime)


def base_value(base: Base, scalars, p: int) -> int:
    """The scalar monomial with exponents `base` at `scalars`, mod p; 0 as
    soon as a factor is, so no later power of 0 is inverted."""
    val = 1
    for s, e in zip(scalars, base):
        if e:
            val = val * pow_mod(s, e, p) % p
            if not val:
                break
    return val


def scalar_terms(p: NCPoly, prime: int,
                 *scalars: int) -> list[tuple[Word, int]]:
    """p's terms with the scalars at (lam0, mu0, u0, v0) mod prime, as
    (word, value) pairs with value nonzero."""
    return [(word, val) for (word, base), coeff in p.terms.items()
            if (val := coeff % prime
                and coeff * base_value(base, scalars, prime) % prime)]


def evaluate_terms(terms: list[tuple[Word, int]],
                   assign: Mapping[Generator, int], prime: int) -> int:
    """`scalar_terms` output at a point; generators commute."""
    total = 0
    for word, val in terms:
        for g in word:
            val = val * assign[g] % prime
        total += val
    return total % prime


def evaluate_abelian(p: NCPoly, assign: Mapping[Generator, int], prime: int,
                     lam0: int, mu0: int, u0: int, v0: int) -> int:
    """The reference evaluator of a relation at a point: generators
    commute and scalars are specialized mod prime.  The exhaustive oracle
    `augment.count_augmentations_exhaustive` runs its halves, scalars once
    per count; they share no code with the packed F_p construction, whose
    scalars meet the point in `augment._specialize`."""
    return evaluate_terms(scalar_terms(p, prime, lam0, mu0, u0, v0),
                          assign, prime)


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
        return GenMatrix.diagonal([NCPoly.one()] * n)

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
