"""Sparse bivariate polynomials over GF(2) in the variables w2 and w3.

A monomial w2^b * w3^c is represented by the pair (b, c) of nonnegative
integers; its degree is 2*b + 3*c (w2 sits in degree 2 and w3 in degree 3,
so the subscripts double as degrees).  A polynomial is a finite set of
monomials: every present monomial has coefficient 1, addition is symmetric
difference, and the zero polynomial is the empty set.

The only monomial order used anywhere is lex with w2 > w3, which for pairs
(b, c) is exactly the built-in tuple order: compare b first, then c.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Monomial = tuple  # (b, c)


def deg(m: Monomial) -> int:
    """Degree of a monomial under the 2/3 grading."""
    return 2 * m[0] + 3 * m[1]


def lucas_binom_mod2(a: int, k: int) -> int:
    """C(a, k) mod 2 by Lucas: 1 iff the bits of k are a submask of a.

    Out-of-range k (negative, or k > a) gives 0; a negative upper index
    also gives 0.
    """
    if k < 0 or a < 0 or k > a:
        return 0
    return 1 if a & k == k else 0


def _fs_mul(a: frozenset, b: frozenset) -> frozenset:
    if len(a) > len(b):
        a, b = b, a
    out: set = set()
    toggle = out.symmetric_difference_update
    for b1, c1 in a:
        toggle({(b1 + b2, c1 + c2) for b2, c2 in b})
    return frozenset(out)


def power(x, e: int, one):
    """x^e by square and multiply, for any x whose * is associative, with
    one its unit; raises ValueError for e < 0."""
    if e < 0:
        raise ValueError("negative exponent")
    result = one
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


class Poly:
    """An immutable GF(2) polynomial in w2, w3 (a frozenset of monomials)."""

    __slots__ = ("terms",)

    terms: frozenset

    def __init__(self, terms: Iterable[Monomial] = ()):
        ts = frozenset(terms)
        for b, c in ts:
            if b < 0 or c < 0:
                raise ValueError(f"negative exponent in monomial ({b}, {c})")
        object.__setattr__(self, "terms", ts)

    @classmethod
    def _raw(cls, ts: frozenset) -> "Poly":
        """Wrap an already-validated frozenset without rechecking."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", ts)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._raw(self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._raw(_fs_mul(self.terms, other.terms))

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, ONE)

    def leading_monomial(self) -> Monomial:
        """Lex-greatest monomial; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed; 0 for the zero poly."""
        degs = {deg(m) for m in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({sorted(self.terms, reverse=True)!r})"


ZERO = Poly._raw(frozenset())
ONE = Poly._raw(frozenset({(0, 0)}))
W2 = Poly._raw(frozenset({(1, 0)}))
W3 = Poly._raw(frozenset({(0, 1)}))


def mono_text(m: Monomial) -> str:
    """Render one monomial, eliding exponent 1 and zero-exponent factors."""
    b, c = m
    if b == 0 and c == 0:
        return "1"
    parts = []
    if b:
        parts.append("w2" if b == 1 else f"w2^{b}")
    if c:
        parts.append("w3" if c == 1 else f"w3^{c}")
    return "*".join(parts)


def poly_text(p: Poly) -> str:
    """Canonical rendering: terms joined by ' + ' in decreasing lex order."""
    if not p.terms:
        return "0"
    return " + ".join(mono_text(m) for m in sorted(p.terms, reverse=True))
