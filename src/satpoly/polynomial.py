"""Exact sparse multilinear polynomials over the rationals.

A polynomial is a map from monomials to nonzero Fraction coefficients,
where a monomial is the set of participating variables stored as an int
bitmask (bit i set = variable i present).  All arithmetic is exact; there
is no floating point anywhere in this package.

Degree-d black-box evaluators can be post-processed without expanding
them: `homogeneous_component` isolates the degree-delta part by querying
the evaluator on d+1 scaled copies of the input point and solving the
exact Vandermonde system in the scale factor, and `linear_coefficient`
extracts the coefficient of one multilinear variable as a two-point
difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._bits import iter_bits
from .errors import ParseError, input_lines, parse_ints, parse_rational

Evaluator = Callable[[Sequence[Fraction]], Fraction]


class MultilinearPoly:
    """Canonical term map: no zero coefficients, all bits below num_vars."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[int, Fraction] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        clean: dict[int, Fraction] = {}
        for mask, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if mask < 0 or mask >> num_vars:
                raise ValueError(f"monomial {bin(mask)} out of range for {num_vars} variables")
            clean[mask] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultilinearPoly":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value) -> "MultilinearPoly":
        return cls(num_vars, {0: Fraction(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultilinearPoly":
        return cls(num_vars, {1 << index: Fraction(1)})

    # -- queries -------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Value of a constant polynomial."""
        nonconst = [m for m in self.terms if m]
        if nonconst:
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, Fraction(0))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.num_vars}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for mask, coeff in self.terms.items():
            num = coeff.numerator
            den = coeff.denominator
            for i in iter_bits(mask):
                num *= pt[i].numerator
                den *= pt[i].denominator
            total += Fraction(num, den)
        return total

    # -- arithmetic ------------------------------------------------------

    def add(self, other: "MultilinearPoly") -> "MultilinearPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live on different variable counts")
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            out[mask] = out.get(mask, Fraction(0)) + coeff
        return MultilinearPoly(self.num_vars, out)

    def scale(self, factor) -> "MultilinearPoly":
        f = Fraction(factor)
        return MultilinearPoly(self.num_vars, {m: c * f for m, c in self.terms.items()})

    def support(self) -> int:
        mask = 0
        for m in self.terms:
            mask |= m
        return mask

    def multiply(self, other: "MultilinearPoly") -> "MultilinearPoly":
        """Product, legal only when the factors share no variable.

        A shared variable would square in some term pair (every pair of
        terms meets in the product), breaking multilinearity.
        """
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live on different variable counts")
        overlap = self.support() & other.support()
        if overlap:
            shared = ", ".join(f"X{i}" for i in iter_bits(overlap))
            raise ValueError(f"multiplication would square variable(s) {shared}")
        out: dict[int, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mask = m1 | m2
                out[mask] = out.get(mask, Fraction(0)) + c1 * c2
        return MultilinearPoly(self.num_vars, out)

    def substitute(self, assignment: dict[int, Fraction]) -> "MultilinearPoly":
        """Fix some variables to rational values, returning a polynomial on the rest.

        The variable count is preserved; fixed variables simply no longer occur.
        """
        out: dict[int, Fraction] = {}
        for mask, coeff in self.terms.items():
            c = coeff
            rest = mask
            for i, val in assignment.items():
                if rest >> i & 1:
                    c *= Fraction(val)
                    rest &= ~(1 << i)
                    if c == 0:
                        break
            if c != 0:
                out[rest] = out.get(rest, Fraction(0)) + c
        return MultilinearPoly(self.num_vars, out)

    def __add__(self, other):
        return self.add(other)

    def __mul__(self, other):
        return self.multiply(other)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultilinearPoly(0)"
        bits = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[mask]
            mono = "".join(f"X{i + 1}" for i in iter_bits(mask)) or "1"
            bits.append(f"{c}*{mono}")
        return "MultilinearPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Black-box evaluator transforms


def _interpolation_coefficients(values: list[Fraction]) -> list[Fraction]:
    """Coefficients of the unique degree-<=d polynomial with p(i) = values[i].

    Solves the (d+1)x(d+1) Vandermonde system at nodes 0, 1, ..., d by exact
    Gaussian elimination.  Small integer nodes keep numerators small; any
    distinct nodes would do.
    """
    n = len(values)
    rows = [[Fraction(t) ** j for j in range(n)] + [values[t]] for t in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def homogeneous_component(
    evaluator: Evaluator, num_vars: int, degree_bound: int, delta: int
) -> Evaluator:
    """Black-box evaluator of the degree-delta homogeneous part.

    Queries the input evaluator at the scaled points t*X for t = 0..d and
    reads off the coefficient of t**delta; exact because the nodes are
    distinct rationals.
    """
    if not 0 <= delta <= degree_bound:
        raise ValueError("need 0 <= delta <= degree_bound")

    def hom(point: Sequence) -> Fraction:
        pt = [Fraction(x) for x in point]
        if len(pt) != num_vars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {num_vars}")
        values = [
            Fraction(evaluator([t * x for x in pt])) for t in range(degree_bound + 1)
        ]
        return _interpolation_coefficients(values)[delta]

    return hom


def linear_coefficient(evaluator: Evaluator, num_vars: int, var_index: int) -> Evaluator:
    """Coefficient of variable var_index, assuming the evaluator is multilinear in it.

    Computed as the difference of the evaluator at X_v = 1 and at X_v = 0;
    exact for degree-1 dependence.
    """
    if not 0 <= var_index < num_vars:
        raise ValueError("variable index out of range")

    def coeff(point: Sequence) -> Fraction:
        pt = [Fraction(x) for x in point]
        if len(pt) != num_vars:
            raise ValueError(f"point has {len(pt)} coordinates, expected {num_vars}")
        hi = list(pt)
        lo = list(pt)
        hi[var_index] = Fraction(1)
        lo[var_index] = Fraction(0)
        return Fraction(evaluator(hi)) - Fraction(evaluator(lo))

    return coeff


# ---------------------------------------------------------------------------
# Serialization: one term per line, "<coeff> : <sorted 1-based indices>",
# the constant term carrying an empty index list.  Lines are ordered by
# (degree, index tuple) so serialization is canonical.


def canonical_terms(p: MultilinearPoly) -> list[tuple[list[int], Fraction]]:
    """(1-based variable indices, coefficient) per term, by degree then indices."""
    terms = [([i + 1 for i in iter_bits(mask)], c) for mask, c in p.terms.items()]
    terms.sort(key=lambda t: (len(t[0]), t[0]))
    return terms


def serialize_poly(p: MultilinearPoly) -> str:
    lines = [f"{c} : {' '.join(map(str, idx))}".rstrip() for idx, c in canonical_terms(p)]
    return "\n".join(lines) + "\n"


def parse_poly(text: str, num_vars: int | None = None) -> MultilinearPoly:
    """Parse the term-per-line format; num_vars defaults to the highest index seen."""
    terms: dict[int, Fraction] = {}
    top = 0
    for lineno, tokens in input_lines(text):
        if len(tokens) < 2 or tokens[1] != ":":
            raise ParseError(f"line {lineno}: expected '<coeff> : <indices>'")
        try:
            coeff = parse_rational(tokens[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad coefficient {tokens[0]!r}") from None
        mask = 0
        for i in parse_ints(tokens[2:], lineno):
            if i < 1:
                raise ParseError(f"line {lineno}: indices are 1-based")
            mask |= 1 << (i - 1)
            top = max(top, i)
        if mask in terms:
            raise ParseError(f"line {lineno}: duplicate monomial")
        terms[mask] = coeff
    if num_vars is None:
        num_vars = top
    return MultilinearPoly(num_vars, terms)
