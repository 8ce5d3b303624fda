"""Command-line front end.

Subcommands: classify, poly, eval, count, reduce, implement, verify.
Output is JSON only (format 1), with every rational rendered as a "p/q"
string and every count as a decimal string, so identical invocations are
byte-identical.  Exit codes: 0 success, 2 parse error, 3 enumeration bound
exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .easy_eval import easy_factor, evaluate_factored
from .errors import BoundExceeded, ParseError, SatPolyError, parse_rational
from .formulas import (
    Formula,
    count_sat,
    eval_formula_poly,
    format_formula_file,
    parse_formula_file,
    poly_of_formula,
)
from .graphs import parse_graph_file
from .implement import Implementation, certificate, certificate_ok, search_implementation
from .polynomial import MultilinearPoly, canonical_terms, serialize_poly
from .posets import parse_poset_file
from .reductions import (
    UnweightedGraph,
    count_vertex_covers,
    cover_count_bits,
    emit_instance,
    format_instance_file,
    ideal_to_implicative2sat,
    is_to_negative2sat,
    parse_matrix_file,
    vc_to_positive2sat,
)
from .relations import classify, parse_relation_file, resolve_relation

FORMAT_VERSION = 1


def _emit(payload: dict) -> None:
    payload = {"format": FORMAT_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _parse_point(text: str, n: int) -> list[Fraction]:
    """One Fraction per distinct token, shared by every coordinate that repeats it."""
    toks = text.replace(",", " ").split()
    if len(toks) != n:
        raise ParseError(f"point has {len(toks)} coordinates, formula has {n} variables")
    parsed = dict.fromkeys(toks)  # first-appearance order, so the first bad token is reported
    try:
        for t in parsed:  # refuses overlong tokens and exponent notation before Fraction()
            parsed[t] = parse_rational(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational in point: {exc}") from None
    return [parsed[t] for t in toks]


# the input file each count kind and reduce target reads
_COUNT_INPUT = {
    "sat": "formula", "vc": "graph", "is": "graph", "antichains": "poset", "ideals": "poset",
}
_REDUCE_INPUT = {
    "perm-to-vc": "matrix", "vc-to-2sat": "graph", "is-to-2sat": "graph", "ideal-to-2sat": "poset",
}


def _require_input(args, option: str, what: str) -> None:
    if getattr(args, option) is None:
        raise ParseError(f"{what} needs --{option}")


def _width2_json(c) -> dict:
    kind = c[0]
    return {"kind": kind, "vars": [i + 1 for i in c[1:]]}


def _poly_json(p: MultilinearPoly) -> dict:
    return {"num_vars": p.num_vars, "terms": [[str(c), idx] for idx, c in canonical_terms(p)]}


def _load_formula(args) -> Formula:
    relations = None
    if args.relations:
        relations = parse_relation_file(_read(args.relations))
    return parse_formula_file(_read(args.formula), relations)


def _cmd_classify(args) -> int:
    table = parse_relation_file(_read(args.relations))
    if not table:
        raise ParseError("relation file defines no relations")
    cls = classify(list(table.values()))
    if cls.is_easy:
        decomposition = {
            name: [_width2_json(c) for c in cs]
            for name, cs in sorted(cls.decomposition.items())
        }
        _emit({"verdict": "easy", "decomposition": decomposition})
    else:
        kind, name = cls.witness
        _emit({"verdict": "hard", "witness": {kind: name}})
    return 0


def _cmd_poly(args) -> int:
    f = _load_formula(args)
    poly = poly_of_formula(f)
    if args.out:
        _write(args.out, serialize_poly(poly))
    _emit({"polynomial": _poly_json(poly)})
    return 0


def _cmd_eval(args) -> int:
    f = _load_formula(args)
    point = _parse_point(args.point, f.num_vars)
    cls = classify(list(f.relation_set)) if f.relation_set else None
    easy = cls.is_easy if cls else True
    if args.easy and not easy:
        raise SatPolyError(f"--easy requested but the relation set is hard: {cls.witness}")
    if easy:
        factored = easy_factor(f)
        value = evaluate_factored(factored, point)
        payload = {"value": str(value), "path": "easy"}
        if args.easy:
            payload["factored"] = {
                "consistent": factored.consistent,
                "forced": sorted(v + 1 for v in factored.forced),
                "components": [
                    {
                        "zero": sorted(v + 1 for v in zero),
                        "one": sorted(v + 1 for v in one),
                    }
                    for zero, one in factored.components
                ],
            }
        _emit(payload)
    else:
        value = eval_formula_poly(f, point)
        _emit({"value": str(value), "path": "enumeration"})
    return 0


def _cmd_count(args) -> int:
    kind = args.kind
    _require_input(args, _COUNT_INPUT[kind], f"count {kind}")
    if kind == "sat":
        f = _load_formula(args)
        _emit({"kind": "sat", "count": str(count_sat(f))})
        return 0
    if kind in ("vc", "is"):
        # complementation is a bijection between independent sets and
        # covers (loops included), so one counter serves both kinds
        g = parse_graph_file(_read(args.graph))
        n = count_vertex_covers(UnweightedGraph(g.vertices, g.plain_edges(), g.loops()))
        _emit({"kind": kind, "count": str(n)})
        return 0
    # an ideal's maximal elements form an antichain and every antichain
    # closes downward to one ideal, so one ideal count serves both kinds; the
    # encoder pads an empty poset to one free variable, whose one ideal is empty
    p = parse_poset_file(_read(args.poset))
    n = count_sat(ideal_to_implicative2sat(p)) if p.elements else 1
    _emit({"kind": kind, "count": str(n)})
    return 0


def _cmd_reduce(args) -> int:
    _require_input(args, _REDUCE_INPUT[args.target], f"reduce {args.target}")
    if args.target == "perm-to-vc":
        matrix = parse_matrix_file(_read(args.matrix))
        inst = emit_instance(matrix, bipartite=args.bipartite)
        if args.out:
            _write(args.out, format_instance_file(inst))
        payload = {
            "modulus": str(inst.modulus),
            "vertices": inst.graph.vertex_count(),
            "edges": inst.graph.edge_count(),
            "provenance": inst.provenance,
        }
        if args.count:
            # leaf blocks make raw counts astronomically large; the decimal
            # expansion is only emitted when it stays readable, so the exact
            # count is only computed then; otherwise the permanent is read
            # off a count modulo N
            bits = cover_count_bits(inst)
            if bits <= 4000:
                n = count_vertex_covers(inst.graph)
                payload["count"] = str(n)
                recovered = n % inst.modulus
            else:
                payload["count_bits"] = bits
                recovered = count_vertex_covers(inst.graph, inst.modulus)
            payload["recovered"] = str(recovered)
        _emit(payload)
        return 0
    if args.target in ("vc-to-2sat", "is-to-2sat"):
        g = parse_graph_file(_read(args.graph))
        f = vc_to_positive2sat(g) if args.target == "vc-to-2sat" else is_to_negative2sat(g)
    else:  # ideal-to-2sat
        p = parse_poset_file(_read(args.poset))
        f = ideal_to_implicative2sat(p)
    text = format_formula_file(f)
    if args.out:
        _write(args.out, text)
    _emit({"formula": text, "num_vars": f.num_vars, "constraints": len(f.constraints)})
    return 0


def _cmd_implement(args) -> int:
    table = parse_relation_file(_read(args.using))
    target = resolve_relation(args.target, table)
    using = list(table.values())
    if not using:
        raise ParseError("relation file defines no relations")
    result = search_implementation(
        target, using, max_aux=args.max_aux, max_constraints=args.max_constraints
    )
    if not isinstance(result, Implementation):
        _emit({"found": False, "target": args.target, "bounds": {
            "max_aux": args.max_aux, "max_constraints": args.max_constraints}})
        return 0
    rows = certificate(result)
    if not certificate_ok(rows):
        raise SatPolyError(f"search returned an invalid implementation of {args.target}")
    _emit(
        {
            "found": True,
            "target": args.target,
            "num_aux": result.num_aux,
            "alpha": result.alpha,
            "formula": format_formula_file(result.constraints),
            "certificate": rows,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_all  # loads generators and affine: verify only
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed=seed)
    checks = [
        {
            "name": r.name,
            "ok": r.ok,
            "detail": r.detail,
            "acceptance": r.acceptance,
            "seconds": round(r.seconds, 3),
            "budget_seconds": r.budget_seconds,
        }
        for r in results
    ]
    passed = all(r.ok for r in results)
    _emit({"passed": passed, "seed": seed, "checks": checks})
    return 0 if passed else 4


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line and exits 2, as a parse error does.

    Subparsers are built from the same class, so the line names the
    subcommand: `satpoly eval: error: argument --point: expected one argument`.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satpoly",
        description="Polynomials of Boolean constraint formulas: classification, "
        "evaluation, counting, and reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a relation set as easy or hard")
    p.add_argument("--relations", required=True, help="relation file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("poly", help="expand a formula's polynomial")
    p.add_argument("--formula", required=True)
    p.add_argument("--relations", help="relation file resolving formula names")
    p.add_argument("--out", help="also write the term-per-line serialization here")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("eval", help="evaluate a formula's polynomial at a point")
    p.add_argument("--formula", required=True)
    p.add_argument("--relations")
    p.add_argument(
        "--point",
        required=True,
        help="comma/space separated rationals; write --point=-1,2 when the first is negative",
    )
    p.add_argument(
        "--easy",
        action="store_true",
        help="require the fast factored path and emit the factored form",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("count", help="count models, covers, independent sets, antichains or ideals")
    p.add_argument("kind", choices=["sat", "vc", "is", "antichains", "ideals"])
    p.add_argument("--formula")
    p.add_argument("--relations")
    p.add_argument("--graph")
    p.add_argument("--poset")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("reduce", help="emit counting reductions")
    p.add_argument(
        "target", choices=["perm-to-vc", "vc-to-2sat", "is-to-2sat", "ideal-to-2sat"]
    )
    p.add_argument("--matrix", help="0/1 matrix file (perm-to-vc)")
    p.add_argument("--graph", help="graph file (vc/is encodings)")
    p.add_argument("--poset", help="poset file (ideal encoding)")
    p.add_argument("--bipartite", action="store_true", help="bipartite variant")
    p.add_argument("--count", action="store_true", help="also count and recover the value")
    p.add_argument("--out", help="write the instance or formula file here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("implement", help="search for a gadget implementation")
    p.add_argument("--target", required=True, help="relation name to implement")
    p.add_argument("--using", required=True, help="relation file with the building blocks")
    p.add_argument("--max-aux", type=int, default=3)
    p.add_argument("--max-constraints", type=int, default=4)
    p.set_defaults(func=_cmd_implement)

    p = sub.add_parser("verify", help="run the acceptance and invariant suites")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # counts and values outgrow the 4300-digit default int-str limit; lifted
    # for the whole process, since callers that run main in-process read the
    # emitted decimals back with int() or Fraction()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except BoundExceeded as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return 3
    except SatPolyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
