"""Boolean relations and the easy/hard classification of relation sets.

A relation of rank k is stored as its set of accepted k-bit tuples.  A set
of relations is *easy* when every member is exactly the conjunction of the
unary/binary constraints it implies, drawn from the four forms
(x=0), (x=1), (x=y), (x!=y); such formulas factor into independent chains
and evaluate in near-linear time.  Everything else is *hard*: either some
relation is not the solution set of a linear system over GF(2), or it is
but genuinely needs a parity constraint on three or more variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Optional

from .errors import MAX_INT_CHARS, ParseError, check_int_chars, input_lines

MAX_RANK = 16

BitTuple = tuple[int, ...]

# A width-2 constraint is ("const0", i), ("const1", i), ("eq", i, j) or
# ("ne", i, j) with 0-based coordinate indices, i < j.
Width2 = tuple


@dataclass(frozen=True)
class Relation:
    """A logical relation given by its accepted tuples.

    Immutable and hashable; safe to share across threads.
    """

    name: str
    rank: int
    accepted: frozenset[BitTuple]

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in [1, {MAX_RANK}], got {self.rank}")
        for t in self.accepted:
            if len(t) != self.rank or any(b not in (0, 1) for b in t):
                raise ValueError(f"bad accepted tuple {t!r} for rank {self.rank}")

    def __repr__(self):
        return f"Relation({self.name!r}, rank={self.rank}, |accepted|={len(self.accepted)})"


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying a relation set.

    verdict is "easy" or "hard".  For hard sets, witness is
    ("nonAffine", name) or ("wideAffine", name).  For easy sets,
    decomposition maps each relation name to the width-2 constraints whose
    conjunction equals the relation.
    """

    verdict: str
    witness: Optional[tuple[str, str]] = None
    decomposition: Optional[dict[str, tuple[Width2, ...]]] = None

    @property
    def is_easy(self) -> bool:
        return self.verdict == "easy"


def relation(name: str, rank: int, accepted) -> Relation:
    """Convenience constructor accepting any iterable of bit tuples."""
    return Relation(name, rank, frozenset(tuple(t) for t in accepted))


def _pack(t: BitTuple) -> int:
    code = 0
    for i, b in enumerate(t):
        code |= b << i
    return code


def is_affine(r: Relation) -> bool:
    """Is `accepted` the solution set of a linear system over GF(2)?

    Equivalent to closure under coordinatewise triple XOR; decided here by
    the dimension count: shift by one solution and check the shifted set is
    a linear subspace, i.e. its size is 2**dim(span).
    """
    if not r.accepted:
        return True  # solution set of the inconsistent system 0 = 1
    codes = [_pack(t) for t in r.accepted]
    base = codes[0]
    pivots: dict[int, int] = {}  # top bit -> reduced basis vector
    for c in codes:
        v = c ^ base
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                break
    return len(r.accepted) == 1 << len(pivots)


def implied_width2_constraints(r: Relation) -> list[Width2]:
    """Every constraint of the four width-2 forms that holds on all accepted tuples.

    Unary constraints come first (by coordinate), then binary ones (by pair).
    An empty relation vacuously implies every constraint.
    """
    acc = sorted(r.accepted)
    out: list[Width2] = []
    for i in range(r.rank):
        vals = {t[i] for t in acc}
        if 1 not in vals:
            out.append(("const0", i))
        if 0 not in vals:
            out.append(("const1", i))
    for i, j in combinations(range(r.rank), 2):
        pairs = {(t[i], t[j]) for t in acc}
        if all(a == b for a, b in pairs):
            out.append(("eq", i, j))
        if all(a != b for a, b in pairs):
            out.append(("ne", i, j))
    return out


def _satisfies_width2(t: BitTuple, c: Width2) -> bool:
    kind = c[0]
    if kind == "const0":
        return t[c[1]] == 0
    if kind == "const1":
        return t[c[1]] == 1
    if kind == "eq":
        return t[c[1]] == t[c[2]]
    if kind == "ne":
        return t[c[1]] != t[c[2]]
    raise ValueError(f"unknown constraint kind {kind!r}")


def width2_solution_set(rank: int, constraints) -> frozenset[BitTuple]:
    """Solution set of a conjunction of width-2 constraints over `rank` coordinates."""
    sols = []
    for t in product((0, 1), repeat=rank):
        if all(_satisfies_width2(t, c) for c in constraints):
            sols.append(t)
    return frozenset(sols)


@lru_cache(maxsize=None)
def _width2_expressible(r: Relation) -> Optional[tuple[Width2, ...]]:
    cs = tuple(implied_width2_constraints(r))
    if width2_solution_set(r.rank, cs) == r.accepted:
        return cs
    return None


def classify(relations_in: list[Relation] | tuple[Relation, ...]) -> Classification:
    """Classify a relation set as easy or hard.

    Easy iff every relation equals the conjunction of its implied width-2
    constraints (so a padded rank-3 relation that only says (x1=x3) is still
    easy).  Hard witnesses name the first offender: a relation that is not
    affine at all, or an affine one needing width >= 3.
    """
    rels = list(relations_in)
    if not rels:
        raise ValueError("relation set must be nonempty")
    decomposition: dict[str, tuple[Width2, ...]] = {}
    failing: list[Relation] = []
    for r in rels:
        cs = _width2_expressible(r)
        if cs is None:
            failing.append(r)
        else:
            decomposition[r.name] = cs
    if not failing:
        return Classification("easy", None, decomposition)
    for r in rels:
        if not is_affine(r):
            return Classification("hard", ("nonAffine", r.name))
    return Classification("hard", ("wideAffine", failing[0].name))


@lru_cache(maxsize=None)
def parity_constant(r: Relation) -> Optional[int]:
    """If r is the relation x1 xor ... xor xk = c, return c, else None."""
    if len(r.accepted) != 1 << (r.rank - 1):
        return None
    parities = {sum(t) & 1 for t in r.accepted}
    if len(parities) == 1:
        return parities.pop()
    return None


# ---------------------------------------------------------------------------
# Built-in relations


def xor_relation(k: int, c: int) -> Relation:
    """The parity relation x1 xor ... xor xk = c, named xor<k>_<c>."""
    if not 1 <= k <= MAX_RANK:
        raise ValueError(f"xor arity must be in [1, {MAX_RANK}]")
    if c not in (0, 1):
        raise ValueError("xor constant must be 0 or 1")
    return _xor_relation_cached(k, c)


@lru_cache(maxsize=None)
def _xor_relation_cached(k: int, c: int) -> Relation:
    acc = frozenset(t for t in product((0, 1), repeat=k) if sum(t) & 1 == c)
    return Relation(f"xor{k}_{c}", k, acc)


def _builtin_table() -> dict[str, Relation]:
    return {
        "OR0": relation("OR0", 2, [(0, 1), (1, 0), (1, 1)]),  # x or y
        "OR1": relation("OR1", 2, [(0, 0), (1, 0), (1, 1)]),  # x or not y
        "OR2": relation("OR2", 2, [(0, 0), (0, 1), (1, 0)]),  # not x or not y
        "CLAUSE3": relation(
            "CLAUSE3", 3, [t for t in product((0, 1), repeat=3) if any(t)]
        ),
        "F": relation("F", 1, [(0,)]),  # x = 0
        "T": relation("T", 1, [(1,)]),  # x = 1
        "EQ": relation("EQ", 2, [(0, 0), (1, 1)]),
        "NE": relation("NE", 2, [(0, 1), (1, 0)]),
    }


BUILTIN_RELATIONS: dict[str, Relation] = _builtin_table()

_XOR_NAME = re.compile(r"^xor(\d+)_([01])$")


def resolve_relation(name: str, table: Optional[dict[str, Relation]] = None) -> Relation:
    """Look up a relation by name: explicit table first, then built-ins."""
    if table and name in table:
        return table[name]
    if name in BUILTIN_RELATIONS:
        return BUILTIN_RELATIONS[name]
    m = _XOR_NAME.match(name)
    if m and len(m.group(1)) <= MAX_INT_CHARS:
        try:
            return xor_relation(int(m.group(1)), int(m.group(2)))
        except ValueError as exc:
            raise ParseError(f"relation {name!r}: {exc}") from None
    raise ParseError(f"unknown relation {name!r}")


# ---------------------------------------------------------------------------
# Relation file format:
#   relation <name> <rank>
#   <bitstring per accepted tuple>
#   end


def parse_relation_file(text: str) -> dict[str, Relation]:
    """Parse a relation file into an ordered name -> Relation mapping."""
    table: dict[str, Relation] = {}
    name = None
    rank = 0
    accepted: list[BitTuple] = []
    for lineno, parts in input_lines(text):
        if parts[0] == "relation":
            if name is not None:
                raise ParseError(f"line {lineno}: nested relation block")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'relation <name> <rank>'")
            name = parts[1]
            if name in table:
                raise ParseError(f"line {lineno}: duplicate relation {name!r}")
            check_int_chars(parts[2:], lineno)
            try:
                rank = int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad rank {parts[2]!r}") from None
            if not 1 <= rank <= MAX_RANK:
                raise ParseError(f"line {lineno}: rank must be in [1, {MAX_RANK}]")
            accepted = []
        elif parts[0] == "end":
            if name is None:
                raise ParseError(f"line {lineno}: 'end' outside a relation block")
            table[name] = relation(name, rank, accepted)
            name = None
        else:
            if name is None:
                raise ParseError(f"line {lineno}: tuple outside a relation block")
            bits = parts[0]
            if len(parts) != 1 or len(bits) != rank or set(bits) - {"0", "1"}:
                raise ParseError(f"line {lineno}: expected a {rank}-bit string")
            accepted.append(tuple(int(b) for b in bits))
    if name is not None:
        raise ParseError(f"unterminated relation block {name!r}")
    return table


def format_relation_file(table: dict[str, Relation]) -> str:
    lines = []
    for name, r in table.items():
        lines.append(f"relation {name} {r.rank}")
        for t in sorted(r.accepted):
            lines.append("".join(str(b) for b in t))
        lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Independent oracle used by the verification suite: constructive enumeration
# of every affine subset of {0,1}**k (all cosets of all linear spans, plus
# the empty set).


@lru_cache(maxsize=None)
def all_affine_subsets(k: int) -> frozenset[frozenset[BitTuple]]:
    """All affine subsets of {0,1}**k, built by spanning, for k <= 4."""
    if not 1 <= k <= 4:
        raise ValueError("constructive affine enumeration is limited to k <= 4")
    vectors = list(range(1, 1 << k))
    spans: set[frozenset[int]] = {frozenset([0])}
    for gens in product((0, 1), repeat=len(vectors)):
        span = {0}
        for g, take in zip(vectors, gens):
            if take and g not in span:
                span |= {s ^ g for s in span}
        spans.add(frozenset(span))
    out: set[frozenset[BitTuple]] = {frozenset()}
    for span in spans:
        for shift in range(1 << k):
            coset = frozenset(
                tuple((v ^ shift) >> i & 1 for i in range(k)) for v in span
            )
            out.add(coset)
    return frozenset(out)
