"""Sparse polynomials in ZZ[L, m, U, x], the ring of the two-strand
augmentation polynomial.

A `CommPoly` is a dict from a packed monomial to a nonzero int.
L^a m^b U^c x^d is the int a<<48 | b<<32 | c<<16 | d, so int order is the
lex order L > m > U > x.  The top bit of each 16-bit field is a guard and
exponents stay below 2^15: a product of monomials is one integer add, and
d divides k exactly when (k | GUARD) - d keeps every guard bit (SWAR, as
for `augment`'s packed keys).  A product, and each quotient term of a
division, first adds the OR of the operands' keys and raises
`OverflowError` if that sets a guard, so no exponent spills into its
neighbour.  The gcd is GCDHEU (Char, Geddes and Gonnet 1989) on the
evaluation-point schedule of sympy's `heugcd`.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator

VARS = ("L", "m", "U", "x")
_W = 16
_FIELD = (1 << _W) - 1
_SHIFTS = tuple(_W * i for i in reversed(range(len(VARS))))
_GUARD = sum(1 << (s + _W - 1) for s in _SHIFTS)
_HEU_GCD_MAX = 6


def _check(keys: int) -> None:
    if keys & _GUARD:
        raise OverflowError("exponent too large for a packed monomial")


def _span(p) -> int:
    """The OR of p's keys: each field at least p's largest exponent there."""
    return functools.reduce(operator.or_, p, 0)


class CommPoly(dict):
    """An element of ZZ[L, m, U, x]: packed monomial -> nonzero int."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, terms) -> CommPoly:
        """From {exponents of (L, m, U, x): coeff}; zeros are dropped."""
        out = cls()
        for exps, c in terms.items():
            if not all(0 <= e < 1 << (_W - 1) for e in exps):
                raise OverflowError(f"exponents {exps} out of range")
            if c:
                out[sum(e << s for e, s in zip(exps, _SHIFTS))] = c
        return out

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, coeff) pairs, lex-descending."""
        return [(tuple(k >> s & _FIELD for s in _SHIFTS), self[k])
                for k in sorted(self, reverse=True)]

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __neg__(self) -> CommPoly:
        return CommPoly({k: -c for k, c in self.items()})

    def __sub__(self, other: CommPoly) -> CommPoly:
        out = dict(self)
        for k, c in other.items():
            out[k] = out.get(k, 0) - c
        return CommPoly({k: c for k, c in out.items() if c})

    def __mul__(self, other: CommPoly) -> CommPoly:
        _check(_span(self) + _span(other))
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return CommPoly({k: c for k, c in out.items() if c})

    def exquo(self, other: CommPoly) -> CommPoly:
        """self / other, exactly: a heap of the remainder's keys gives its
        leading term, which the leading term of `other` must divide, or
        this raises `ArithmeticError`."""
        lead = max(other)
        lc = other[lead]
        rest = [(k, c) for k, c in other.items() if k != lead]
        span = _span(other)
        rem = dict(self)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        q = CommPoly()
        while heap:
            k = -heapq.heappop(heap)
            c = rem.pop(k)
            if not c:
                continue
            d = (k | _GUARD) - lead
            qc, r = divmod(c, lc)
            if r or d & _GUARD != _GUARD:
                raise ArithmeticError("inexact polynomial division")
            qk = d ^ _GUARD
            _check(qk + span)
            q[qk] = qc
            # each new key is below k, so none of them was popped before
            for gk, gc in rest:
                m = qk + gk
                v = rem.get(m)
                if v is None:
                    rem[m] = -qc * gc
                    heapq.heappush(heap, -m)
                else:
                    rem[m] = v - qc * gc
        return q

    def primitive(self) -> CommPoly:
        """Divided by the gcd of its coefficients."""
        return _scaled(self, 1, math.gcd(*self.values()) or 1)

    @property
    def LC(self) -> int:
        return self[max(self)]

    def degree(self, name: str) -> int:
        """The degree in the named variable; -1 for the zero polynomial."""
        s = _SHIFTS[VARS.index(name)]
        return max((k >> s & _FIELD for k in self), default=-1)

    def coeff_x(self, j: int) -> CommPoly:
        """The coefficient of x^j, in ZZ[L, m, U]."""
        return CommPoly({k - j: c for k, c in self.items() if k & _FIELD == j})

    def gcd(self, other: CommPoly) -> CommPoly:
        """A greatest common divisor, unique up to sign."""
        if not self or not other:
            return self or other
        return _heugcd(self, other, 0)[0]

    def __str__(self) -> str:
        """Lex-descending terms, printed as sympy's `PolyElement.str`
        prints them: `L^2*m - 2*U*x + 1`."""
        out = []
        for exps, c in self.terms():
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(VARS, exps) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            out += [" - " if c < 0 else " + ", "*".join(factors)]
        if not out:
            return "0"
        return ("-" if out[0] == " - " else "") + "".join(out[1:])


def _scaled(p: CommPoly, num: int, den: int = 1) -> CommPoly:
    return CommPoly({k: c * num // den for k, c in p.items()})


def _evaluate(p: CommPoly, shift: int, x: int) -> CommPoly:
    """p at x for the variable whose field is at `shift`, the highest
    variable p holds."""
    low = (1 << shift) - 1
    out: dict[int, int] = {}
    powers: dict[int, int] = {}
    for k, c in p.items():
        e = k >> shift
        if e not in powers:
            powers[e] = x ** e
        out[k & low] = out.get(k & low, 0) + c * powers[e]
    return CommPoly({k: c for k, c in out.items() if c})


def _interpolate(h: CommPoly, x: int, shift: int) -> CommPoly:
    """The polynomial whose coefficient of (the variable at `shift`)^i is
    the i-th balanced base-x digit of h, with a positive leading
    coefficient."""
    out = CommPoly()
    i = 0
    while h:
        _check(i << shift)
        rest = {}
        for k, c in h.items():
            d = c % x
            if d > x // 2:
                d -= x
            if d:
                out[k | i << shift] = d
            if c != d:
                rest[k] = (c - d) // x
        h = rest
        i += 1
    return -out if out and out.LC < 0 else out


def _divides(f: CommPoly, h: CommPoly) -> CommPoly | None:
    """f / h, or None when h does not divide f."""
    try:
        return f.exquo(h)
    except ArithmeticError:
        return None


def _heugcd(f: CommPoly, g: CommPoly, level: int):
    """(h, f / h, g / h) with h = gcd(f, g), for nonzero f and g in the
    variables VARS[level:]; raises `ArithmeticError` when none of the six
    evaluation points gives the gcd."""
    cont = math.gcd(*f.values(), *g.values())
    f, g = _scaled(f, 1, cont), _scaled(g, 1, cont)
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * math.isqrt(b)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    shift = _SHIFTS[level]
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate(f, shift, x), _evaluate(g, shift, x)
        if ff and gg:
            if shift:
                h, cff, cfg = _heugcd(ff, gg, level + 1)
            else:
                n = math.gcd(ff[0], gg[0])
                h, cff, cfg = (CommPoly({0: n}), _scaled(ff, 1, n),
                               _scaled(gg, 1, n))
            # candidates in sympy's order: the gcd image, then f and g
            # over their cofactor images
            for num, image in ((None, h), (f, cff), (g, cfg)):
                cand = _interpolate(image, x, shift)
                cand = _divides(num, cand) if num else cand.primitive()
                f_quo = cand and _divides(f, cand)
                g_quo = f_quo and _divides(g, cand)
                if g_quo:
                    return _scaled(cand, cont), f_quo, g_quo
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise ArithmeticError("heuristic gcd failed")
