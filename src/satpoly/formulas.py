"""Constraint formulas: conjunctions of relation applications over indexed variables.

The polynomial of a formula sums one monomial per satisfying assignment,
the monomial collecting the variables assigned 1.  Evaluating that
polynomial at all-ones recovers the model count.  count_sat and
eval_formula_poly are each one weighted count by satpoly.elimination.count
over the 0/1 factors of the constraints: the model count weighs every
variable (1, 1), and the value at a point p/q weighs variable v by
(q_v, p_v) and divides by the product of the q_v.  Numerators and
denominators are carried separately as integers, so every result is exact.

poly_of_formula lists the models themselves by one depth-first search
over the constrained variables, checking each constraint against the
masks its relation accepts, and stops past MAX_POLY_TERMS terms.  The
listing shares no code with count_sat and eval_formula_poly, so verify
can compare the two.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import sub
from typing import Optional, Sequence

from .elimination import constraint_factor, count
from .errors import MAX_INT_CHARS, BoundExceeded, ParseError, check_int_chars
from .polynomial import MultilinearPoly
from .relations import Relation, resolve_relation

MAX_ENUM_VARS = 30  # variable cap of count_sat, eval_formula_poly and poly_of_formula
MAX_POLY_TERMS = 1 << 20  # poly_of_formula's output has one term per model

Constraint = tuple[Relation, tuple[int, ...]]


def _index_array(values: list[int]) -> array | list[int]:
    """Variable indices as one array of 64-bit ints, or the list itself past that range."""
    try:
        return array("q", values)
    except OverflowError:  # only a formula of 2**63 or more variables gets here
        return values


class Formula:
    """A conjunction of relation applications; variables are 0-based indices.

    Repeated variables inside one application are legal and mean the
    relation restricted to the corresponding diagonal.

    A formula is stored as arrays: `relations` holds the distinct relation
    objects in first-seen order, `codes[k]` is the index in `relations` of
    constraint k's relation, and `args` holds the arguments of every
    constraint, one constraint after another.  The tuple view
    `constraints`, one (relation, argument tuple) per constraint, is built
    on first use.  Equality and hashing are those of (num_vars, constraints).
    """

    num_vars: int
    relations: tuple[Relation, ...]
    codes: array  # of C ints
    args: array | list[int]

    def __init__(self, num_vars: int, constraints: tuple[Constraint, ...]):
        if num_vars < 1:
            raise ValueError("a formula needs at least one variable")
        code_of: dict[int, int] = {}  # id(relation) -> code
        relations: list[Relation] = []
        codes: list[int] = []
        flat: list[int] = []
        for rel, args in constraints:
            if len(args) != rel.rank:
                raise ValueError(
                    f"{rel.name} has rank {rel.rank} but got {len(args)} arguments"
                )
            for a in args:
                if not 0 <= a < num_vars:
                    raise ValueError(f"argument {a} out of range [0, {num_vars})")
            code = code_of.get(id(rel))
            if code is None:
                code = code_of[id(rel)] = len(relations)
                relations.append(rel)
            codes.append(code)
            flat.extend(args)
        self._store(num_vars, tuple(relations), array("i", codes), _index_array(flat))
        self.__dict__["constraints"] = constraints

    @classmethod
    def _of_arrays(cls, num_vars: int, relations: tuple[Relation, ...], codes: array,
                   args: array | list[int]) -> Formula:
        """A formula of arrays whose ranks and ranges the caller has checked."""
        f = object.__new__(cls)
        f._store(num_vars, relations, codes, args)
        return f

    def _store(self, num_vars, relations, codes, args) -> None:
        self.__dict__.update(num_vars=num_vars, relations=relations, codes=codes, args=args)

    def __setattr__(self, name, value):  # frozen: equal formulas keep equal hashes
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        args = iter(self.args)
        return tuple((rel, tuple(islice(args, rel.rank)))
                     for rel in map(self.relations.__getitem__, self.codes))

    @cached_property
    def relation_set(self) -> tuple[Relation, ...]:
        """The distinct relations the constraints apply, first-seen order.

        Of equal relations the first-seen object is kept.
        """
        return tuple(dict.fromkeys(self.relations))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_vars, self.constraints) == (other.num_vars, other.constraints)

    def __hash__(self):
        return hash((self.num_vars, self.constraints))

    def __repr__(self):
        return f"Formula(num_vars={self.num_vars!r}, constraints={self.constraints!r})"


def formula(num_vars: int, constraints) -> Formula:
    return Formula(num_vars, tuple((rel, tuple(args)) for rel, args in constraints))


def eval_assignment(f: Formula, assignment: Sequence[int]) -> bool:
    """Does the assignment satisfy every constraint?"""
    if len(assignment) != f.num_vars:
        raise ValueError(
            f"assignment has {len(assignment)} bits, expected {f.num_vars}"
        )
    a = tuple(assignment)
    return all(tuple(a[i] for i in args) in rel.accepted for rel, args in f.constraints)


# ---------------------------------------------------------------------------
# Counting the models, and listing them depth-first


def _patterns(rel: Relation, args: Sequence[int]) -> frozenset[int]:
    """The masks over args' bits that satisfy rel(args).

    A tuple that gives two copies of a repeated variable different values
    adds no mask, so a repeated argument restricts rel to the diagonal.
    """
    out = set()
    for t in rel.accepted:
        value: dict[int, int] = {}
        if all(value.setdefault(a, bit) == bit for a, bit in zip(args, t)):
            out.add(sum(1 << a for a, bit in value.items() if bit))
    return frozenset(out)


def _models(f: Formula, cvars: list[int], limit: int) -> list[int]:
    """The models of f as masks over its variables, its free variables 0.

    Sets the constrained variables in ascending order from an explicit
    stack and checks each constraint once its last variable is set.  Raises
    BoundExceeded once more than limit models are found.
    """
    checks: list[list[tuple[int, frozenset[int]]]] = [[] for _ in cvars]
    depth = {v: i for i, v in enumerate(cvars)}
    for rel, args in f.constraints:
        scope = sum(1 << a for a in set(args))
        checks[depth[max(args)]].append((scope, _patterns(rel, args)))
    models: list[int] = []
    m = len(cvars)
    stack = [(0, 0)]  # (variables set, mask)
    while stack:
        i, mask = stack.pop()
        if i == m:
            models.append(mask)
            if len(models) > limit:
                raise BoundExceeded(f"poly_of_formula is limited to {MAX_POLY_TERMS} terms")
            continue
        for cur in (mask | 1 << cvars[i], mask):
            for scope, patterns in checks[i]:
                if cur & scope not in patterns:
                    break
            else:
                stack.append((i + 1, cur))
    return models


def count_sat(f: Formula) -> int:
    """Exact number of satisfying assignments."""
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"count_sat is limited to {MAX_ENUM_VARS} variables")
    factors = (constraint_factor(rel, args) for rel, args in f.constraints)
    return count(factors, [(1, 1)] * f.num_vars)


def poly_of_formula(f: Formula) -> MultilinearPoly:
    """The polynomial with one unit-coefficient monomial per satisfying assignment."""
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"poly_of_formula is limited to {MAX_ENUM_VARS} variables")
    cvars = sorted({a for _, args in f.constraints for a in args})
    free = set(range(f.num_vars)).difference(cvars)
    models = _models(f, cvars, MAX_POLY_TERMS >> len(free))
    for v in free:  # each free variable doubles the models
        models += [m | 1 << v for m in models]
    return MultilinearPoly(f.num_vars, dict.fromkeys(models, Fraction(1)))


def eval_formula_poly(f: Formula, point: Sequence) -> Fraction:
    """Value of the formula's polynomial at a rational point, monomials never built."""
    if len(point) != f.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.num_vars}")
    if f.num_vars > MAX_ENUM_VARS:
        raise BoundExceeded(f"eval_formula_poly is limited to {MAX_ENUM_VARS} variables")
    pt = [Fraction(x) for x in point]
    factors = (constraint_factor(rel, args) for rel, args in f.constraints)
    total = count(factors, [(x.denominator, x.numerator) for x in pt])
    return Fraction(total, math.prod(x.denominator for x in pt))


# ---------------------------------------------------------------------------
# Formula file format:
#   p csp <num_vars> <num_constraints>
#   <relation-name> <i1> ... <ik>     (1-based variable indices)
#
# A canonically spaced file is read in whole-text passes.  Every other
# file, and every file those passes doubt, is read line by line, and only
# the line loop raises ParseError, so both give the same formula and the
# same messages.


def parse_formula_file(text: str, relations: Optional[dict[str, Relation]] = None) -> Formula:
    f = _parse_canonical(text, relations)
    return f if f is not None else _parse_lines(text, relations)


# what a canonical file never holds: a comment, whitespace other than one
# space between tokens and one newline after each line, or a blank line
_NOT_CANONICAL = ("#", "\t", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
                  "  ", " \n", "\n ", "\n\n")
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_CHUNK_CHARS = 1 << 16  # constraint text split at once: bounds the tokens alive


def _parse_canonical(text: str, relations: Optional[dict[str, Relation]]) -> Optional[Formula]:
    """The formula of a canonically spaced ASCII file, or None on any doubt.

    Such a file holds the header first and then one constraint per line,
    and its only whitespace is one space between tokens and a newline
    ending each line.  str.split() then lists every line's tokens in order,
    and a line's space count is its argument count, checked against the
    rank of the relation it names.  The constraint lines are read in
    chunks of whole lines, so only one chunk's tokens are alive at a time.
    A file the line loop refuses is never accepted here, and int() reads
    every index as the loop reads it.
    """
    if (not text.isascii() or not text.endswith("\n")
            or any(bad in text for bad in _NOT_CANONICAL)):
        return None
    header, _, body = text.partition("\n")
    parts = header.split(" ")
    if len(parts) != 4 or parts[:2] != ["p", "csp"] or len(header) > MAX_INT_CHARS:
        return None
    try:
        num_vars, declared = int(parts[2]), int(parts[3])
    except ValueError:
        return None
    if num_vars < 1:
        return None
    code_of: dict[str, int] = {}  # each relation name is resolved once
    rels: list[Relation] = []
    ranks: list[int] = []
    codes = array("i")
    args = array("q")
    pos = 0
    while pos < len(body):
        end = body.find("\n", pos + _CHUNK_CHARS) + 1 or len(body)
        chunk = body[pos:end]
        pos = end
        lines = chunk.split("\n")
        lines.pop()  # the empty string after the chunk's last newline
        if max(map(len, lines)) > MAX_INT_CHARS:  # so no token is longer either
            return None
        counts = list(map(str.count, lines, repeat(" ")))  # arguments per line
        tokens = chunk.split()
        # one byte per token: 0 for a line's relation name, 1 for each argument
        pieces = {k: b"\0" + b"\1" * k for k in set(counts)}
        is_arg = b"".join(map(pieces.__getitem__, counts))
        if len(is_arg) != len(tokens):
            return None
        names = list(compress(tokens, is_arg.translate(_FLIP)))
        for name in dict.fromkeys(names):
            if name not in code_of:
                if name == "p":  # a second header
                    return None
                try:
                    rel = resolve_relation(name, relations)
                except ParseError:
                    return None
                code_of[name] = len(rels)
                rels.append(rel)
                ranks.append(rel.rank)
        chunk_codes = array("i", map(code_of.__getitem__, names))
        if list(map(ranks.__getitem__, chunk_codes)) != counts:
            return None
        codes += chunk_codes
        try:  # 0-based indices
            args.extend(map(sub, map(int, compress(tokens, is_arg)), repeat(1)))
        except (ValueError, OverflowError):
            return None
    if len(codes) != declared or args and (min(args) < 0 or max(args) >= num_vars):
        return None
    return Formula._of_arrays(num_vars, tuple(rels), codes, args)


def _parse_lines(text: str, relations: Optional[dict[str, Relation]]) -> Formula:
    """The formula of any file, read line by line; the one source of every ParseError."""
    num_vars = None
    declared = 0
    code_of: dict[str, int] = {}  # each relation name is resolved once per file
    rels: list[Relation] = []
    codes: list[int] = []
    flat: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if len(line) > MAX_INT_CHARS:  # only a line this long can hold an overlong token
            check_int_chars(parts[1:], lineno)
        name = parts[0]
        if name == "p":
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "csp":
                raise ParseError(f"line {lineno}: expected 'p csp <vars> <constraints>'")
            try:
                num_vars = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            if num_vars < 1:
                raise ParseError(f"line {lineno}: need at least one variable")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: constraint before header")
        code = code_of.get(name)
        if code is None:
            code = code_of[name] = len(rels)
            rels.append(resolve_relation(name, relations))
        rel = rels[code]
        try:
            args = [int(tok) - 1 for tok in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: bad variable index") from None
        if len(args) != rel.rank:
            raise ParseError(
                f"line {lineno}: {rel.name} has rank {rel.rank}, got {len(args)} arguments"
            )
        if min(args) < 0 or max(args) >= num_vars:
            raise ParseError(f"line {lineno}: variable index out of range")
        codes.append(code)
        flat.extend(args)
    if num_vars is None:
        raise ParseError("missing 'p csp' header")
    if len(codes) != declared:
        raise ParseError(f"header declares {declared} constraints, found {len(codes)}")
    # every rank and range is checked above, with the line number
    return Formula._of_arrays(num_vars, tuple(rels), array("i", codes), _index_array(flat))


def format_formula_file(f: Formula) -> str:
    lines = [f"p csp {f.num_vars} {len(f.constraints)}"]
    for rel, args in f.constraints:
        lines.append(" ".join([rel.name] + [str(a + 1) for a in args]))
    return "\n".join(lines) + "\n"
