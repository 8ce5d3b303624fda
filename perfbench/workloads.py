"""Seeded task generators for the three benchmark workloads.

A workload is an endless stream of 20-task rounds.  Round r draws from
random.Random("<workload>/<seed>/<r>") only and writes its CLI input files
under its own directory, so the same seed gives byte-identical files.
Five rounds make a cycle.  Each round follows a fixed design (sizes, task
kinds and their order) that depends only on its place d = r mod 5 in the
cycle, so every cycle holds the same mix, whatever the seed and however
many cycles a run holds; the seed draws the instances.

A task is an argv for `satpoly.cli.main` plus a check that compares the
parsed JSON answer with an oracle from oracles.py.  The generator records
the planted structure a check needs; the program only sees the files.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

import oracles

INT_STR_DIGITS = 4300  # CPython's default limit on int -> str conversion
_DIGIT_LIMIT = 10**INT_STR_DIGITS


@dataclass
class Task:
    """One CLI call: the argv, a family label, and how to judge its result.

    check(payload) returns None when the answer is right, else a reason.
    known_crash(exc) names a known defect when the exception is one.
    outputs are files the call writes; they are removed after the check.
    """

    family: str
    argv: list[str]
    check: Callable[[dict], Optional[str]]
    known_crash: Callable[[BaseException], Optional[str]] = lambda exc: None
    outputs: tuple[str, ...] = ()


def _bits(t) -> str:
    return "".join(map(str, t))


def relation_file(table: dict[str, set]) -> str:
    lines = []
    for name, accepted in table.items():
        rank = len(next(iter(accepted)))
        lines.append(f"relation {name} {rank}")
        lines.extend(_bits(t) for t in sorted(accepted))
        lines.append("end")
    return "\n".join(lines) + "\n"


def formula_file(num_vars: int, constraints) -> str:
    lines = [f"p csp {num_vars} {len(constraints)}"]
    lines.extend(f"{name} " + " ".join(str(a + 1) for a in args) for name, args in constraints)
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# easy-eval


def _custom_easy_relations() -> dict[str, set]:
    """Rank-3 relations that are conjunctions of width-2 constraints.

    par<q>: the three coordinates follow the parity pattern q or its
    complement (two EQ/NE links); pin<b>: all three forced; padeq/padne:
    x1 = x3 resp. x1 != x3 with x2 unconstrained.
    """
    table: dict[str, set] = {}
    for q in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
        table[f"par{_bits(q)}"] = {q, tuple(1 - b for b in q)}
    for b in product((0, 1), repeat=3):
        table[f"pin{_bits(b)}"] = {b}
    table["padeq"] = {t for t in product((0, 1), repeat=3) if t[0] == t[2]}
    table["padne"] = {t for t in product((0, 1), repeat=3) if t[0] != t[2]}
    return table


EASY_RELATIONS = _custom_easy_relations()
EASY_MIN_VARS, EASY_MAX_VARS = 10**2, 10**5
EASY_STRATA = 10  # log-uniform size strata per round
EASY_POINTS = ("ones", "positive", "signed")


@dataclass
class PlantedEasy:
    """Planted factor structure: forced ones and the two states of each free component.

    Tuples of ints rather than lists, so the garbage collector stops
    tracking them and the collection before each task stays short.
    """

    num_vars: int
    forced_ones: tuple[int, ...]
    components: list[tuple[tuple[int, ...], tuple[int, ...]]]

    def value(self, coords) -> Fraction:
        """Closed-form value at the point whose coordinates are the given strings."""
        parsed = {c: Fraction(c) for c in set(coords)}
        num = [parsed[c].numerator for c in coords]
        den = [parsed[c].denominator for c in coords]
        return oracles.planted_value(self.forced_ones, self.components, num, den)


def _np_rng(rng: random.Random) -> np.random.Generator:
    return np.random.default_rng(rng.getrandbits(64))


def parity_tree(rng: random.Random, n: int):
    """One component: each vertex links to a random earlier one by EQ or NE.

    Returns the formula's constraint lines and the planted structure.
    """
    g = _np_rng(rng)
    v = np.arange(1, n)
    u = (g.random(n - 1) * v).astype(np.int64)
    ne = g.integers(0, 2, n - 1)
    parity = [0] * n
    for vv, uu, bit in zip(v.tolist(), u.tolist(), ne.tolist()):
        parity[vv] = parity[uu] ^ bit
    cons = [f"{'NE' if bit else 'EQ'} {uu} {vv}" for uu, vv, bit in
            zip((u + 1).tolist(), (v + 1).tolist(), ne.tolist())]
    a_ones = tuple(x for x in range(n) if parity[x])
    b_ones = tuple(x for x in range(n) if not parity[x])
    return cons, PlantedEasy(n, (), [(a_ones, b_ones)])


_PAR = np.array(["par000", "par001", "par010", "par011"])


def planted_components(rng: random.Random, n: int):
    """Many components of 1-8 variables, a fifth of them forced.

    Each component is a random tree of EQ/NE links and custom parity
    relations over randomly ordered members; forced components get F/T or
    a pin relation on their first members; one in ten components of three
    or more gets a redundant padeq/padne link whose middle argument is any
    variable.  Constraint order is shuffled.
    """
    g = _np_rng(rng)
    order = g.permutation(n)  # variable at each position
    parity = g.integers(0, 2, n)  # by variable
    sizes = g.integers(1, 9, n)
    ends = np.cumsum(sizes)
    last = int(np.searchsorted(ends, n))
    sizes = sizes[: last + 1].copy()
    sizes[-1] -= ends[last] - n
    starts = np.cumsum(sizes) - sizes
    comp = np.repeat(np.arange(len(sizes)), sizes)  # component at each position
    pos = np.arange(n) - starts[comp]  # rank inside the component
    r = g.random((4, n))
    a = (r[0] * pos).astype(np.int64)
    b = (r[1] * np.maximum(pos - 1, 0)).astype(np.int64)
    b += b >= a
    u = order[starts[comp] + a]
    v = order
    cons = []
    binary = (pos >= 1) & ~((pos >= 2) & (r[2] < 0.3))
    triple = (pos >= 2) & (r[2] < 0.3)
    bu, bv, swap = u[binary], v[binary], r[3][binary] < 0.5
    names = np.where(parity[bu] == parity[bv], "EQ", "NE")
    for name, x, y, s in zip(names.tolist(), (bu + 1).tolist(), (bv + 1).tolist(),
                             swap.tolist()):
        cons.append(f"{name} {y} {x}" if s else f"{name} {x} {y}")
    tu, tv = u[triple], v[triple]
    tw = order[starts[comp[triple]] + b[triple]]
    code = 2 * (parity[tw] ^ parity[tu]) + (parity[tv] ^ parity[tu])
    cons.extend(f"{name} {x} {y} {z}" for name, x, y, z in
                zip(_PAR[code].tolist(), (tu + 1).tolist(), (tw + 1).tolist(), (tv + 1).tolist()))

    c = g.random((3, len(sizes)))
    state = g.integers(0, 2, len(sizes))
    first = [order[np.minimum(starts + k, n - 1)].tolist() for k in range(3)]
    middle = g.integers(0, n, len(sizes)).tolist()
    sizes_l, forced_l = sizes.tolist(), (c[0] < 0.2).tolist()
    pad_l = ((sizes >= 3) & (c[1] < 0.1)).tolist()
    pin_l = ((sizes >= 3) & (c[2] < 0.3)).tolist()
    state_l, parity_l, order_l, starts_l = state.tolist(), parity.tolist(), order.tolist(), starts.tolist()
    forced_ones: list[int] = []
    components = []
    for k, size in enumerate(sizes_l):
        x0, x1, x2 = first[0][k], first[1][k], first[2][k]
        if pad_l[k]:
            rel = "padeq" if parity_l[x0] == parity_l[x1] else "padne"
            cons.append(f"{rel} {x0 + 1} {middle[k] + 1} {x1 + 1}")
        members = order_l[starts_l[k] : starts_l[k] + size]
        if forced_l[k]:
            s = state_l[k]
            if pin_l[k]:
                cons.append(f"pin{s ^ parity_l[x0]}{s ^ parity_l[x1]}{s ^ parity_l[x2]} "
                            f"{x0 + 1} {x1 + 1} {x2 + 1}")
            else:
                cons.append(f"{'T' if s ^ parity_l[x0] else 'F'} {x0 + 1}")
            forced_ones.extend(x for x in members if s ^ parity_l[x])
        else:
            components.append((tuple(x for x in members if parity_l[x]),
                               tuple(x for x in members if not parity_l[x])))
    cons = [cons[i] for i in g.permutation(len(cons)).tolist()]
    return cons, PlantedEasy(n, tuple(forced_ones), components)


_SIGNED = [f"{s}{p}/{q}" for s in ("", "-") for p in (1, 2, 3) for q in (1, 2, 3) if p != q]


def _easy_point(rng: random.Random, kind: str, n: int) -> list[str]:
    """ones: all 1 (model counts); positive: one p/q != 1 in every coordinate;
    signed: each coordinate drawn from +-{2, 3, 1/2, 3/2, 1/3, 2/3}."""
    if kind == "ones":
        return ["1"] * n
    if kind == "positive":
        p, q = rng.sample(range(1, 5), 2)
        return [f"{p}/{q}"] * n
    return [_SIGNED[i] for i in _np_rng(rng).integers(0, len(_SIGNED), n).tolist()]


def _exceeds_digit_limit(x: Fraction) -> bool:
    return abs(x.numerator) >= _DIGIT_LIMIT or x.denominator >= _DIGIT_LIMIT


def _easy_task(rng, directory: Path, name: str, shared: dict, n: int, shape: str,
               point_kind: str, easy_flag: bool) -> Task:
    if shape == "tree":
        cons, planted = parity_tree(rng, n)
    else:
        cons, planted = planted_components(rng, n)
    path = _write(directory / f"{name}.csp", "\n".join([f"p csp {n} {len(cons)}", *cons]) + "\n")
    coords = tuple(_easy_point(rng, point_kind, n))  # a tuple, so the collector skips it
    argv = ["eval", "--formula", path, "--point=" + ",".join(coords)]
    if shape != "tree":
        argv += ["--relations", shared["easy_relations"]]
    if easy_flag:
        argv.append("--easy")

    def expected() -> Fraction:
        return planted.value(coords)

    def check(payload: dict) -> Optional[str]:
        if payload.get("path") != "easy":
            return f"path {payload.get('path')!r}, expected 'easy'"
        if Fraction(payload["value"]) != expected():
            return "value differs from the planted closed form"
        if easy_flag:
            fac = payload["factored"]
            if not fac["consistent"]:
                return "factored form reports an inconsistent formula"
            if fac["forced"] != sorted(v + 1 for v in planted.forced_ones):
                return "forced variables differ from the planted ones"
            got = {frozenset((tuple(c["zero"]), tuple(c["one"]))) for c in fac["components"]}
            want = {
                frozenset((tuple(sorted(v + 1 for v in a)), tuple(sorted(v + 1 for v in b))))
                for a, b in planted.components
            }
            if got != want:
                return "components differ from the planted ones"
        return None

    def known_crash(exc: BaseException) -> Optional[str]:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            if _exceeds_digit_limit(expected()):
                return "int-str-limit"
        return None

    family = f"eval-easy/{shape}/{point_kind}" + ("/--easy" if easy_flag else "")
    return Task(family, argv, check, known_crash)


def easy_round(rng: random.Random, d: int, directory: Path, shared: dict) -> list[Task]:
    """Ten log-uniform size strata x two tasks; five trees and five --easy per round.

    Over a cycle each stratum's tasks take ten evenly spaced sizes, so a
    cycle's 100 sizes step evenly through 10^2..10^5 on a log scale.  The
    two tasks of a stratum take the point kinds (s + d) mod 3 and
    (s + d + 1) mod 3.  Sizes, kinds, shapes and --easy flags are the same
    for every seed; the seed draws the formulas and the points.
    """
    tasks = []
    span = math.log10(EASY_MAX_VARS / EASY_MIN_VARS)
    for s in range(EASY_STRATA):
        for i in range(2):
            slot = 2 * s + i
            offset = (2 * d + i + 0.5) / 10  # ten evenly spaced offsets per cycle
            n = round(EASY_MIN_VARS * 10 ** (span * (s + offset) / EASY_STRATA))
            point_kind = EASY_POINTS[(s + d + i) % len(EASY_POINTS)]
            shape = "tree" if (slot + d) % 4 == 0 else "planted"
            easy_flag = (slot + 2 * d) % 4 == 1
            tasks.append(_easy_task(rng, directory, f"s{s}_{i}", shared, n, shape,
                                    point_kind, easy_flag))
    return tasks


# ---------------------------------------------------------------------------
# hard-enum

HARD_RELATIONS = {
    "OR0": {(0, 1), (1, 0), (1, 1)},
    "OR1": {(0, 0), (1, 0), (1, 1)},
    "OR2": {(0, 0), (0, 1), (1, 0)},
    "CLAUSE3": {t for t in product((0, 1), repeat=3) if any(t)},
    "EQ": {(0, 0), (1, 1)},
    "NE": {(0, 1), (1, 0)},
}
_HARD_WEIGHTS = {"OR0": 22, "OR1": 22, "OR2": 22, "CLAUSE3": 22, "EQ": 6, "NE": 6}
HARD_MIN_VARS, HARD_MAX_VARS = 12, 28
HARD_DENSITY = 1.5  # constraints per variable
HARD_WINDOW = 8  # a constraint joins variables less than this far apart
TABLE_VARS = 22  # the CLI enumerates by truth table up to here, depth-first above
# Median log2 node count of the index-order search tree (dfs_profile) of
# planted_hard_formula at each variable count above TABLE_VARS: 1000 draws
# per count, measured by measure_medians("formula-dfs", 1000).  Formulas
# on the DFS path are redrawn until they are within SLACK of their median.
FORMULA_DFS_LOG2 = {23: 12.84, 24: 13.24, 25: 13.44, 26: 14.01, 27: 14.63, 28: 15.02}
SLACK = 0.2  # accepted distance from a median, in log2
MAX_DRAWS = 200
POLY_MAX_MODELS = 20_000
# formula task kinds, rotated over the variable counts from round to round
HARD_CYCLE = ("eval-small", "eval-big", "count", "eval-small", "eval-big", "poly")
# Variable counts whose kind is fixed.  21 and 22 always take 6-digit
# points, so every run holds the same eight warm big-integer folds of the
# largest tables; they set task_p90_s.  20 and 23 always take small
# points: nine like tasks of 30-40 ms, the warm int64 fold of the
# 20-variable table and the depth-first search at 23, sit at the median
# and set task_p50_s.  Near the median the other tasks lie about 8% apart
# in latency; with kinds rotating at 20 and 23 too, task_p50_s spread by
# 27-30% (quartile distance over median) between runs.
HARD_FIXED_KINDS = {20: "eval-small", 21: "eval-big", 22: "eval-big", 23: "eval-small"}


def planted_hard_formula(rng: random.Random, n: int):
    """Satisfiable banded formula over OR0/OR1/OR2/CLAUSE3/EQ/NE on every variable.

    A planted assignment is drawn first; each constraint takes distinct
    variables from a window of HARD_WINDOW consecutive indices and is
    resampled until the planted assignment satisfies it.  A first pass
    puts every variable into some constraint.  Needs n >= HARD_WINDOW.
    """
    planted = [rng.randrange(2) for _ in range(n)]
    names = list(_HARD_WEIGHTS)
    weights = list(_HARD_WEIGHTS.values())
    cons = []

    def add(v: Optional[int]) -> None:
        while True:
            name = rng.choices(names, weights)[0]
            rank = len(next(iter(HARD_RELATIONS[name])))
            if v is None:
                base = rng.randrange(n - HARD_WINDOW + 1)
                args = rng.sample(range(base, base + HARD_WINDOW), rank)
            else:
                base = rng.randint(max(0, v - HARD_WINDOW + 1), min(v, n - HARD_WINDOW))
                others = [u for u in range(base, base + HARD_WINDOW) if u != v]
                args = rng.sample(others, rank - 1)
                args.insert(rng.randrange(rank), v)
            if tuple(planted[a] for a in args) in HARD_RELATIONS[name]:
                cons.append((name, tuple(args)))
                return

    order = list(range(n))
    rng.shuffle(order)
    covered: set[int] = set()
    for v in order:
        if v not in covered:
            add(v)
            covered.update(cons[-1][1])
    while len(cons) < round(HARD_DENSITY * n):
        add(None)
    return cons


def dfs_profile(n: int, cons) -> tuple[int, int]:
    """(consistent prefixes summed over all lengths, models) of a banded formula.

    A prefix of variables 0..i is consistent when it satisfies every
    constraint whose last variable is at most i, so the sum is the node
    count of a depth-first search in index order.  Computed by a sweep
    whose state is the assignment of the last HARD_WINDOW variables.
    """
    by_last: list[list] = [[] for _ in range(n)]
    for name, args in cons:
        by_last[max(args)].append((HARD_RELATIONS[name], args))
    mask = (1 << HARD_WINDOW) - 1
    states = {0: 1}  # bit d of a state is the value of variable i - d
    nodes = 0
    for i in range(n):
        checks = [(acc, [i - a for a in args]) for acc, args in by_last[i]]
        nxt: dict[int, int] = {}
        for state, count in states.items():
            for bit in (0, 1):
                s2 = (state << 1 | bit) & mask
                if all(tuple(s2 >> d & 1 for d in offs) in acc for acc, offs in checks):
                    nxt[s2] = nxt.get(s2, 0) + count
        states = nxt
        nodes += sum(states.values())
    return nodes, sum(states.values())


def near_median(draw: Callable, cost_log2: Callable, median: float, slack: float):
    """Redraw until log2 of an instance's cost is within slack of median.

    Keeps runs with different seeds at the same difficulty without
    changing it: the target is the median of the generator's own
    distribution at that size, so the tails are cut and the typical
    instance stays.  Returns the closest of MAX_DRAWS draws otherwise.
    """
    best = None
    for _ in range(MAX_DRAWS):
        instance = draw()
        miss = abs(cost_log2(instance) - median)
        if best is None or miss < best[0]:
            best = (miss, instance)
        if miss <= slack:
            break
    return best[1]


def pinned_formula(rng: random.Random, n: int):
    """A planted formula; above TABLE_VARS one of median search-tree size.

    Above TABLE_VARS the program searches depth-first, and the tree size
    of one draw ranges over 2^8..2^21 nodes, so the formula is redrawn
    until its tree is near the median for n.  A truth-table task costs the
    same for any formula of its size, so the first draw is kept there.
    Returns (constraints, models).
    """
    def draw():
        cons = planted_hard_formula(rng, n)
        return (cons, *dfs_profile(n, cons))

    if n <= TABLE_VARS:
        cons, _, models = draw()
    else:
        cons, _, models = near_median(draw, lambda f: math.log2(f[1]), FORMULA_DFS_LOG2[n], SLACK)
    return cons, models


def _oracle_constraints(cons, table):
    return [(table[name], args) for name, args in cons]


def _hard_point(rng: random.Random, kind: str, n: int) -> list[Fraction]:
    if kind == "eval-small":  # |p| + q <= 6 keeps every fold inside int64
        return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(n)]
    return [Fraction(rng.choice((-1, 1)) * rng.randint(100_000, 999_999),
                     rng.randint(100_000, 999_999)) for _ in range(n)]


def _formula_task(rng, directory: Path, name: str, n: int, kind: str) -> Task:
    cons, models = pinned_formula(rng, n)
    path = _write(directory / f"{name}.csp", formula_file(n, cons))
    ocons = _oracle_constraints(cons, HARD_RELATIONS)
    if kind == "poly" and models > POLY_MAX_MODELS:
        kind = "count"
    if kind == "count":
        def check(payload):
            if payload.get("kind") != "sat" or int(payload["count"]) != models:
                return f"count {payload.get('count')} != oracle {models}"
            return None
        return Task("count-sat", ["count", "sat", "--formula", path], check)
    if kind == "poly":
        def check(payload):
            poly = payload["polynomial"]
            if poly["num_vars"] != n:
                return "wrong num_vars"
            masks = set()
            for coeff, variables in poly["terms"]:
                mask = sum(1 << (v - 1) for v in variables)
                if coeff != "1" or mask in masks or not oracles.satisfies(ocons, mask):
                    return "a term is not a distinct unit-coefficient model"
                masks.add(mask)
            if len(masks) != models:
                return f"{len(masks)} terms, oracle counts {models} models"
            return None
        return Task("poly", ["poly", "--formula", path], check)
    point = _hard_point(rng, kind, n)
    argv = ["eval", "--formula", path, "--point=" + ",".join(map(str, point))]

    def check(payload):
        if payload.get("path") != "enumeration":
            return f"path {payload.get('path')!r}, expected 'enumeration'"
        weights = [(x.denominator, x.numerator) for x in point]
        total = oracles.weighted_model_count(n, ocons, weights)
        den = oracles.product_tree(x.denominator for x in point)
        if Fraction(payload["value"]) != Fraction(total, den):
            return "value differs from the variable-elimination oracle"
        return None

    return Task(f"eval-hard/{kind}/{'table' if n <= TABLE_VARS else 'dfs'}", argv, check)


IMPLEMENT_TARGETS = ("OR0", "OR1", "OR2", "NE", "EQ", "CLAUSE3")
XOR3_0 = {t for t in product((0, 1), repeat=3) if sum(t) % 2 == 0}
BLOCK_SETS = {
    "CLAUSE3+F": {"CLAUSE3": HARD_RELATIONS["CLAUSE3"], "F": {(0,)}},
    "xor3_0+T": {"xor3_0": XOR3_0, "T": {(1,)}},
    "OR0+NE": {"OR0": HARD_RELATIONS["OR0"], "NE": HARD_RELATIONS["NE"]},
    "OR1+OR2": {"OR1": HARD_RELATIONS["OR1"], "OR2": HARD_RELATIONS["OR2"]},
    "EQ": {"EQ": HARD_RELATIONS["EQ"]},
}
IMPLEMENT_BOUNDS = ((1, 3), (2, 3), (3, 3), (2, 4), (3, 4))  # (3, 4) is the CLI default
# Points whose exhaustive space exceeds 5e6 candidates are left out: the
# eight NotFound searches at about 1.4e7 take 9-13 s each and the one at
# 1e8 takes 85 s, more than the rest of a run together.
MAX_SEARCH_SPACE = 5_000_000
MEDIUM_SEARCH_SPACE = 300_000  # NotFound searches from here take 0.2-0.45 s
UPPER_SEARCH_SPACE = 900_000  # and from here 0.65-1.5 s


def search_space(target: str, blocks: str, max_aux: int, max_constraints: int) -> int:
    """Constraint multisets an exhaustive search visits before giving up."""
    k = len(next(iter(HARD_RELATIONS[target])))
    total = 0
    for q in range(max_aux + 1):
        atoms = sum((k + q) ** len(next(iter(acc))) for acc in BLOCK_SETS[blocks].values())
        total += sum(math.comb(atoms + s - 1, s) for s in range(1, max_constraints + 1))
    return total


def implement_grid() -> dict[str, list[tuple[str, str, int, int]]]:
    """The fixed search grid split into found and three sizes of NotFound search."""
    classes: dict[str, list] = {
        "found": [], "notfound-small": [], "notfound-medium": [], "notfound-upper": []}
    for target in IMPLEMENT_TARGETS:
        trank = len(next(iter(HARD_RELATIONS[target])))
        for blocks, table in BLOCK_SETS.items():
            brel = [(len(next(iter(acc))), acc) for acc in table.values()]
            for a, c in IMPLEMENT_BOUNDS:
                space = search_space(target, blocks, a, c)
                if space > MAX_SEARCH_SPACE:
                    continue
                found = oracles.implementation_exists((trank, HARD_RELATIONS[target]), brel, a, c)
                if found:
                    cls = "found"
                else:
                    cls = ("notfound-upper" if space >= UPPER_SEARCH_SPACE else
                           "notfound-medium" if space >= MEDIUM_SEARCH_SPACE else
                           "notfound-small")
                classes[cls].append((target, blocks, a, c))
    return classes


def _implement_task(shared: dict, point: tuple[str, str, int, int], found: bool) -> Task:
    target, blocks, a, c = point
    table = BLOCK_SETS[blocks]
    argv = ["implement", "--target", target, "--using", shared["blocks"][blocks]]
    if (a, c) != (3, 4):
        argv += ["--max-aux", str(a), "--max-constraints", str(c)]
    target_acc = HARD_RELATIONS[target]
    k = len(next(iter(target_acc)))

    def check(payload):
        if payload.get("found") is not found:
            return f"found={payload.get('found')}, oracle says {found}"
        if not found:
            return None
        q = payload["num_aux"]
        lines = payload["formula"].splitlines()
        if q > a or payload["alpha"] > c or lines[0].split()[2] != str(k + q):
            return "gadget exceeds the bounds"
        cons = []
        for line in lines[1:]:
            name, *args = line.split()
            cons.append((table[name], tuple(int(x) - 1 for x in args)))
        if len(cons) != payload["alpha"]:
            return "alpha differs from the constraint count"
        if not oracles.gadget_certificate_ok((k, target_acc), cons, q):
            return "gadget is not perfect and faithful"
        for entry in payload["certificate"]:
            x = tuple(int(b) for b in entry["input"])
            want = 1 if x in target_acc else 0
            if entry["accepted"] != bool(want) or len(entry["satisfying_extensions"]) != want:
                return f"certificate entry {entry['input']} is wrong"
        if len(payload["certificate"]) != 1 << k:
            return "certificate does not list every input"
        return None

    return Task(f"implement/{'found' if found else 'notfound'}", argv, check)


def hard_round(rng: random.Random, d: int, directory: Path, shared: dict) -> list[Task]:
    """One formula task per variable count 12..28 plus three implement searches.

    Implement slots: a found gadget, a small NotFound search (under 0.12 s)
    and a medium one (0.2-0.45 s), in a cycle's first round a 0.65-1.5 s one
    instead.  A search has no random input, so the points are part of the
    design: round d takes the point d/5 of the way through each class list.
    The small NotFound searches take 3-120 ms, around the workload's median
    task, so a seed-drawn point would move task_p50_s from run to run.
    """
    tasks = []
    for j, n in enumerate(range(HARD_MIN_VARS, HARD_MAX_VARS + 1)):
        kind = HARD_FIXED_KINDS.get(n) or HARD_CYCLE[(j + d) % len(HARD_CYCLE)]
        tasks.append(_formula_task(rng, directory, f"n{n}", n, kind))
    grid = shared["grid"]
    for cls in ("found", "notfound-small", "notfound-upper" if d == 0 else "notfound-medium"):
        point = grid[cls][d * len(grid[cls]) // CYCLE_ROUNDS]
        tasks.append(_implement_task(shared, point, cls == "found"))
    return tasks


# ---------------------------------------------------------------------------
# counting

GRID_SHAPES = [(k, length) for k in range(4, 9) for length in range(k, 10)]
SPARSE_SIZES = list(range(12, 25))
# 21 and 22 are left out: `count ideals` there builds the 21/22-variable truth
# tables cold (about 6 s and 23 s per process), the cost hard-enum already
# carries in every run; 12-20 take count_sat's table path, 23-25 its DFS.
POSET_SIZES = [n for n in range(12, 26) if n not in (21, 22)]
MATRIX_DENSITY = 0.6
# Medians of random_poset at each size, measured by measure_medians: log2
# of the antichain count (1000 draws per size), and above TABLE_VARS
# elements log2 of ideal_search_nodes (400 draws per size).
POSET_ANTICHAINS_LOG2 = {12: 7.81, 13: 8.44, 14: 9.11, 15: 9.68, 16: 10.35, 17: 10.98,
                         18: 11.64, 19: 12.16, 20: 12.84}
POSET_IDEALS_DFS_LOG2 = {23: 16.46, 24: 17.2, 25: 17.88}
POSET_ANTICHAINS_SLACK = 0.3


def _matrix(rng: random.Random, n: int) -> list[list[int]]:
    """n x n 0/1 matrix with exactly round(0.6 n^2) ones at random places."""
    ones = set(rng.sample(range(n * n), round(MATRIX_DENSITY * n * n)))
    return [[int(i * n + j in ones) for j in range(n)] for i in range(n)]


def _reduce_count_task(rng, directory: Path, name: str, n: int, bipartite: bool) -> Task:
    m = _matrix(rng, n)
    path = _write(directory / f"{name}.mat", "\n".join(" ".join(map(str, row)) for row in m) + "\n")
    argv = ["reduce", "perm-to-vc", "--matrix", path, "--count"]
    if bipartite:
        argv.append("--bipartite")
    perm = oracles.permanent(m)

    def check(payload):
        if int(payload["recovered"]) != perm:
            return f"recovered {payload['recovered']} != permanent {perm}"
        if "count" not in payload and "count_bits" not in payload:
            return "no count reported"
        return None

    return Task(f"reduce-count/n{n}{'-bip' if bipartite else ''}", argv, check)


def _reduce_emit_task(rng, directory: Path, name: str, n: int, bipartite: bool) -> Task:
    m = _matrix(rng, n)
    path = _write(directory / f"{name}.mat", "\n".join(" ".join(map(str, row)) for row in m) + "\n")
    out = str(directory / f"{name}.inst")
    argv = ["reduce", "perm-to-vc", "--matrix", path, "--out", out]
    if bipartite:
        argv.append("--bipartite")

    def check(payload):
        v_lines = e_lines = 0
        header = modulus = None
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                tag = line[:2]
                if tag == "v ":
                    v_lines += 1
                elif tag == "e ":
                    e_lines += 1
                elif line.startswith("p graph"):
                    header = tuple(int(x) for x in line.split()[2:4])
                elif line.startswith("modulus"):
                    modulus = int(line.split()[1])
        if header != (v_lines, e_lines) or header != (payload["vertices"], payload["edges"]):
            return f"instance file holds {v_lines}/{e_lines} vertices/edges, header {header}"
        if modulus != int(payload["modulus"]) or (modulus - 1) & (modulus - 2):
            return "modulus is not 2^k + 1 or disagrees with the summary"
        return None

    return Task(f"reduce-emit/n{n}{'-bip' if bipartite else ''}", argv, check, outputs=(out,))


def graph_file(num_vertices: int, edges) -> str:
    lines = [f"p graph {num_vertices} {len(edges)}"]
    lines.extend(f"v {v} 1" for v in range(num_vertices))
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _count_graph_task(directory: Path, name: str, kind: str, n: int, edges,
                      expected: int, family: str) -> Task:
    path = _write(directory / f"{name}.graph", graph_file(n, edges))

    def check(payload):
        if payload.get("kind") != kind or int(payload["count"]) != expected:
            return f"count {payload.get('count')} != oracle {expected}"
        return None

    return Task(family, ["count", kind, "--graph", path], check)


def grid_edges(k: int, length: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(k):
        for j in range(length):
            v = i * length + j
            if j + 1 < length:
                edges.append((v, v + 1))
            if i + 1 < k:
                edges.append((v, v + length))
    return edges


def sparse_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random graph with 1.4 n edges (mean degree 2.8) and no isolated vertex.

    The CLI counts graphs of at most 20 vertices by a truth table over the
    vertices that have an edge, and caches the tables of each size.  With
    every vertex on an edge the table sizes a run builds, and so which
    tasks pay for a cold table, are the same for every seed.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = sorted(rng.sample(pairs, round(1.4 * n)))
        if len({v for edge in edges for v in edge}) == n:
            return edges


def random_poset(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random order relations along a hidden linear order; every element takes part."""
    order = list(range(n))
    rng.shuffle(order)
    rel = set()
    p = 2.0 / n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel.add((order[i], order[j]))
    touched = {x for pair in rel for x in pair}
    for i, x in enumerate(order):
        if x not in touched:
            j = rng.choice([j for j in range(n) if j != i])
            rel.add((order[min(i, j)], order[max(i, j)]))
            touched.update((order[i], order[j]))
    return sorted(rel)


def ideal_search_nodes(n: int, relations) -> int:
    """Node count of a depth-first ideal search in element order.

    The consistent prefixes of length i + 1 are the ideals (equally, the
    antichains) of the order restricted to elements 0..i.
    """
    above = oracles.transitive_closure(n, relations)
    nodes = 0
    for i in range(n):
        edges = [(x, y) for x in range(i + 1) for y in range(i + 1) if above[x] >> y & 1]
        nodes += oracles.independent_sets(i + 1, edges)
    return nodes


def pinned_poset(rng: random.Random, n: int):
    """A random poset whose counting cost is the median for its size.

    Above TABLE_VARS elements `count ideals` searches depth-first, so the
    poset is redrawn until its search tree is within SLACK of the median
    size for n; otherwise until its antichain count is within
    POSET_ANTICHAINS_SLACK of the median count.  Returns (relations, antichains).
    """
    def draw():
        rel = random_poset(rng, n)
        return rel, oracles.antichains(n, rel)

    if n > TABLE_VARS:
        rel, count = near_median(draw, lambda p: math.log2(ideal_search_nodes(n, p[0])),
                                 POSET_IDEALS_DFS_LOG2[n], SLACK)
    else:
        rel, count = near_median(draw, lambda p: math.log2(p[1]),
                                 POSET_ANTICHAINS_LOG2[n], POSET_ANTICHAINS_SLACK)
    return rel, count


def measure_medians(kind: str, draws: int) -> dict[int, float]:
    """Median log2 cost per size of unpinned draws: the source of the tables above.

    kind is "formula-dfs" (FORMULA_DFS_LOG2), "poset-antichains"
    (POSET_ANTICHAINS_LOG2) or "poset-ideals-dfs" (POSET_IDEALS_DFS_LOG2).
    Draw i at size n uses random.Random(f"median/{n}/{i}").
    """
    def cost(n: int, rng: random.Random) -> float:
        if kind == "formula-dfs":
            return math.log2(dfs_profile(n, planted_hard_formula(rng, n))[0])
        rel = random_poset(rng, n)
        if kind == "poset-antichains":
            return math.log2(oracles.antichains(n, rel))
        return math.log2(ideal_search_nodes(n, rel))

    sizes = {"formula-dfs": FORMULA_DFS_LOG2, "poset-antichains": POSET_ANTICHAINS_LOG2,
             "poset-ideals-dfs": POSET_IDEALS_DFS_LOG2}[kind]
    return {n: round(statistics.median(cost(n, random.Random(f"median/{n}/{i}"))
                                       for i in range(draws)), 2)
            for n in sizes}


def poset_file(n: int, relations) -> str:
    lines = [f"p poset {n}"]
    lines.extend(f"v {x} 1" for x in range(n))
    lines.extend(f"r {x} {y}" for x, y in relations)
    return "\n".join(lines) + "\n"


def counting_round(rng: random.Random, d: int, directory: Path, shared: dict) -> list[Task]:
    """Reductions, 4 grids, 6 sparse graphs and 3 posets (each counted two ways).

    Reductions: twice n=5 and n=3 --bipartite with --count, plus an
    emit-only reduction at d = 0, 2, 4 (n=5, n=3 --bipartite, n=5; 20-26 MB
    files) and an n=4 count at d = 1, 3.

    Grid shapes and graph/poset sizes walk a fixed rotation, so every
    cycle visits every grid shape and every poset size, and runs with
    different seeds differ only in their random instances.
    """
    tasks = [
        _reduce_count_task(rng, directory, "perm5", 5, False),
        _reduce_count_task(rng, directory, "perm5b", 5, False),
        _reduce_count_task(rng, directory, "perm3b", 3, True),
        _reduce_count_task(rng, directory, "perm4b", 4, False) if d % 2
        else _reduce_emit_task(rng, directory, "emit", 5 if d % 4 == 0 else 3, d % 4 == 2),
    ]
    shapes, sparse, posets = GRID_SHAPES, SPARSE_SIZES, POSET_SIZES
    for i in range(4):
        k, length = shapes[(4 * d + i) % len(shapes)]
        kind = "vc" if (d + i) % 2 else "is"
        expected = oracles.grid_independent_sets(k, length)
        tasks.append(_count_graph_task(directory, f"grid{i}", kind, k * length,
                                       grid_edges(k, length), expected,
                                       f"count-{kind}/grid{'<=20' if k * length <= 20 else '>20'}"))
    for i in range(6):
        n = sparse[(6 * d + i) % len(sparse)]
        edges = sparse_graph(rng, n)
        kind = "vc" if (d + i) % 2 else "is"
        tasks.append(_count_graph_task(directory, f"sparse{i}", kind, n, edges,
                                       oracles.independent_sets(n, edges),
                                       f"count-{kind}/sparse{'<=20' if n <= 20 else '>20'}"))
    for i in range(3):
        n = posets[(3 * d + i) % len(posets)]
        rel, expected = pinned_poset(rng, n)
        path = _write(directory / f"poset{i}.poset", poset_file(n, rel))
        for kind in ("ideals", "antichains"):
            def check(payload, kind=kind, expected=expected):
                if payload.get("kind") != kind or int(payload["count"]) != expected:
                    return f"{kind} count {payload.get('count')} != oracle {expected}"
                return None
            tasks.append(Task(f"count-{kind}", ["count", kind, "--poset", path], check))
    return tasks


# ---------------------------------------------------------------------------
# Streams


def _shared_inputs(workload: str, base: Path) -> dict:
    """Files and tables that every round of a run shares."""
    shared: dict = {}
    if workload == "easy-eval":
        shared["easy_relations"] = _write(base / "custom.rel", relation_file(EASY_RELATIONS))
    elif workload == "hard-enum":
        shared["blocks"] = {
            name: _write(base / f"blocks_{name.replace('+', '_')}.rel", relation_file(table))
            for name, table in BLOCK_SETS.items()
        }
        shared["grid"] = implement_grid()
    return shared


ROUNDS = {"easy-eval": easy_round, "hard-enum": hard_round, "counting": counting_round}
ROUND_TASKS = 20  # tasks per round in every workload
CYCLE_ROUNDS = 5  # rounds per cycle; runs end on a cycle boundary


def task_stream(workload: str, seed: int, base: Path) -> Iterator[Task]:
    """Endless deterministic stream of tasks, files written under base."""
    make_round = ROUNDS[workload]
    os.makedirs(base, exist_ok=True)
    shared = _shared_inputs(workload, base)
    r = 0
    while True:
        directory = base / f"r{r:04d}"
        os.makedirs(directory, exist_ok=True)
        rng = random.Random(f"{workload}/{seed}/{r}")
        d = r % CYCLE_ROUNDS
        tasks = make_round(rng, d, directory, shared)
        assert len(tasks) == ROUND_TASKS, (workload, len(tasks))
        # the order within a round is mixed but the same for every seed and
        # cycle, so the heap and cache state a task starts from does not vary
        random.Random(f"{workload}/order/{d}").shuffle(tasks)
        yield from tasks
        r += 1
