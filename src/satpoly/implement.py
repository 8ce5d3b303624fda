"""Gadget implementations of one relation by formulas over another relation set.

An implementation of a target relation places constraints over the target's
function variables plus fresh auxiliary variables.  It is valid when every
accepted input extends to exactly one full assignment satisfying all
constraints, and no rejected input extends to any such assignment (rejected
inputs may satisfy at most all-but-one constraint).  Valid implementations
substitute into formulas constraint by constraint, with fresh auxiliaries
per occurrence, and the original polynomial is recovered by setting every
auxiliary's variable to 1.

A bounded exhaustive search is provided instead of a case analysis; a
NotFound outcome within the bounds does not certify that no implementation
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ._bits import factor_table, table_full, table_var
from .elimination import constraint_factor
from .errors import BoundExceeded
from .formulas import Constraint, Formula
from .relations import Relation, _pack


@dataclass(frozen=True)
class Implementation:
    """Constraints over function variables 0..rank-1 then auxiliaries."""

    target: Relation
    constraints: Formula
    num_aux: int

    def __post_init__(self):
        expected = self.target.rank + self.num_aux
        if self.constraints.num_vars != expected:
            raise ValueError(
                f"constraint formula has {self.constraints.num_vars} variables, "
                f"expected {expected}"
            )

    @property
    def alpha(self) -> int:
        return len(self.constraints.constraints)


MAX_CHECK_VARS = 24


def certificate(impl: Implementation) -> list[dict]:
    """Truth-table certificate: one row per function-variable assignment.

    Each row holds the input as a bitstring, whether the target accepts it,
    every auxiliary assignment satisfying all constraints, and the most
    constraints that any auxiliary assignment satisfies.
    """
    k = impl.target.rank
    q = impl.num_aux
    if k + q > MAX_CHECK_VARS:
        raise BoundExceeded(f"check is limited to {MAX_CHECK_VARS} total variables")
    cons = impl.constraints.constraints
    rows = []
    for x in product((0, 1), repeat=k):
        extensions = []
        best_partial = 0
        for y in product((0, 1), repeat=q):
            a = x + y
            sat = sum(1 for rel, args in cons if tuple(a[i] for i in args) in rel.accepted)
            if sat == len(cons):
                extensions.append("".join(map(str, y)))
            best_partial = max(best_partial, sat)
        rows.append(
            {
                "input": "".join(map(str, x)),
                "accepted": x in impl.target.accepted,
                "satisfying_extensions": extensions,
                "max_constraints_satisfied": best_partial,
            }
        )
    return rows


def certificate_ok(rows: list[dict]) -> bool:
    """Validity read off certificate rows: one extension per accepted input, none otherwise."""
    return all(len(r["satisfying_extensions"]) == r["accepted"] for r in rows)


def check_perfect_faithful(impl: Implementation) -> bool:
    """Exhaustively verify both conditions of the module docstring."""
    return certificate_ok(certificate(impl))


MAX_SEARCH_VARS = 10  # function plus auxiliary variables of the largest search level
# atoms one search level may build; CLAUSE3 and F over six variables make 222,
# a rank-12 relation over three make 531,441
MAX_ATOMS = 1 << 12


@dataclass(frozen=True)
class NotFound:
    """Search outcome: the bounded space holds no valid implementation."""

    target: str
    max_aux: int
    max_constraints: int


def search_implementation(
    target: Relation,
    using: list[Relation],
    max_aux: int = 3,
    max_constraints: int = 4,
) -> Implementation | NotFound:
    """Search in canonical order; the first valid candidate wins.

    The canonical order runs over constraint multisets built from the
    available relations and all argument tuples, by auxiliary count, then
    size, then lexicographic order on the atom list (relation index, then
    argument tuple).  Tables over the combined variables make each candidate
    check a few popcounts.

    Three facts shrink the space without changing the winner.  Atoms with
    equal tables are interchangeable, and conjunction is idempotent, so
    mapping each atom of a valid multiset to the first atom with its table
    and dropping repeats gives a valid candidate that is no later in the
    order; the first valid candidate is therefore a set of such first
    representatives, and only those sets are searched.  Adding a constraint
    only clears table bits, so a prefix that leaves some accepted input
    without an extension is dropped with every candidate it starts.

    The search stops after MAX_SEARCH_VARS combined variables, and raises
    BoundExceeded before a level whose argument tuples, t**rank summed over
    the relations, number more than MAX_ATOMS.
    """
    k = target.rank
    accepted_codes = {_pack(t) for t in target.accepted}
    for q in range(0, max_aux + 1):
        t = k + q
        if t > MAX_SEARCH_VARS:
            break
        num_atoms = sum(t**rel.rank for rel in using)
        if num_atoms > MAX_ATOMS:
            raise BoundExceeded(
                f"search_implementation is limited to {MAX_ATOMS} atoms, "
                f"{t} variables give {num_atoms}"
            )
        full = table_full(t)
        bases = [table_var(i, t) for i in range(t)]
        first_atom: dict[int, Constraint] = {}  # table -> first atom with it
        for rel in using:
            for args in product(range(t), repeat=rel.rank):
                table = factor_table(*constraint_factor(rel, args), bases, full)
                first_atom.setdefault(table, (rel, args))
        tables = list(first_atom)
        atoms = list(first_atom.values())
        # selector for the extensions of each function-variable assignment
        comb = sum(1 << ((y << k)) for y in range(1 << q))
        selectors = [comb << x for x in range(1 << k)]
        wanted = [(1 if x in accepted_codes else 0) for x in range(1 << k)]
        for size in range(1, max_constraints + 1):
            combo = _first_combination(tables, size, full, selectors, wanted)
            if combo is not None:
                cons = tuple(atoms[idx] for idx in combo)
                return Implementation(target, Formula(t, cons), q)
    return NotFound(target.name, max_aux, max_constraints)


def _first_combination(
    tables: list[int],
    size: int,
    full: int,
    selectors: list[int],
    wanted: list[int],
) -> list[int] | None:
    """Lexicographically first size-subset of table indices whose AND is valid.

    Valid means popcount(AND & selectors[x]) == wanted[x] for every x.  The
    depth-first walk keeps the AND of each prefix and drops a prefix as soon
    as it clears every bit under the selector of some x with wanted[x] == 1.
    """
    live = [s for s, w in zip(selectors, wanted) if w]
    n = len(tables)
    combo: list[int] = []
    prefix = [full]  # prefix[d] is the AND of the first d chosen tables
    i = 0
    while True:
        d = len(combo)
        if d == size:
            table = prefix[d]
            if all((table & s).bit_count() == w for s, w in zip(selectors, wanted)):
                return combo
        elif i <= n - (size - d):
            table = prefix[d] & tables[i]
            if all(table & s for s in live):
                combo.append(i)
                prefix.append(table)
            i += 1
            continue
        if not combo:
            return None
        i = combo.pop() + 1
        prefix.pop()


def substitute(f: Formula, table: dict[Relation, Implementation]) -> Formula:
    """Replace every constraint by its implementation, fresh auxiliaries appended.

    With valid implementations the output polynomial restricted to 1 on all
    auxiliary positions equals the input polynomial.
    """
    next_aux = f.num_vars
    out: list[Constraint] = []
    for rel, args in f.constraints:
        if rel not in table:
            raise ValueError(f"no implementation given for relation {rel.name}")
        impl = table[rel]
        if impl.target != rel:
            raise ValueError(f"implementation targets {impl.target.name}, not {rel.name}")
        base = next_aux
        next_aux += impl.num_aux
        for inner_rel, inner_args in impl.constraints.constraints:
            mapped = tuple(
                args[a] if a < rel.rank else base + (a - rel.rank) for a in inner_args
            )
            out.append((inner_rel, mapped))
    return Formula(next_aux, tuple(out))


def identity_implementation(rel: Relation) -> Implementation:
    """The relation implemented by itself, no auxiliaries."""
    return Implementation(rel, Formula(rel.rank, ((rel, tuple(range(rel.rank))),)), 0)


def _is_false_relation(rel: Relation) -> bool:
    return rel.rank == 1 and rel.accepted == frozenset({(0,)})


def eliminate_false(f: Formula) -> tuple[Formula, tuple[int, ...]]:
    """Drop every (x=0) constraint, returning the affected variable indices.

    The dropped constraints are recovered by evaluating the output
    polynomial with those variables set to 0: monomials that used a zeroed
    variable vanish, and the rest correspond exactly to assignments where
    the variable was 0.
    """
    kept: list[Constraint] = []
    zeroed: set[int] = set()
    for rel, args in f.constraints:
        if _is_false_relation(rel):
            zeroed.add(args[0])
        else:
            kept.append((rel, args))
    return Formula(f.num_vars, tuple(kept)), tuple(sorted(zeroed))
