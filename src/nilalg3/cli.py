"""Command line front end.

Exit codes: 0 on success (and on every verified check), 1 when a
verification fails, a search comes up empty or a valid input is one the
toolkit cannot finish, 2 on malformed input.
Output on stdout is byte-deterministic for a fixed command line; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algprops import NotNilpotentError, invariant_profile
from .catalogue import (CatalogueError, UnclassifiableError, identify,
                        identify_with_witness, structure_of)
from .degeneration import (DegenerationError, lift_witness_to_rationals,
                           search_witness, verify_lemma_identities,
                           verify_witness)
from .fields import (FieldError, NeedsFieldExtension, PrimeField, gf4,
                     prime_field)
from .hasse import (HasseError, build_graph, compare_expected, emit,
                    node_table)
from .ioformats import (CHARACTERISTICS, FormatError, parse_algebra_id,
                        parse_matrix, parse_vector, parse_witness,
                        render_vector, render_witness)
from .polyring import RationalFunctionField
from .structspace import StructureVector, act


def _add_char(sub, choices=CHARACTERISTICS):
    sub.add_argument("--char", type=int, default=0, choices=choices,
                     metavar="C", help="field characteristic (default 0)")


def _read_payload(path: str):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def _profile_cells(vec: StructureVector):
    p = invariant_profile(vec)
    return (p.nilpotency_class, "yes" if p.commutative else "no",
            p.square_dim, p.annihilator_dim, p.derivation_dim,
            "yes" if p.square_on_own_line else "no")


def _cmd_catalog(args) -> int:
    generic = RationalFunctionField(prime_field(args.char), "d")
    rows = []
    for label, ident in node_table(generic).items():
        vec = structure_of(ident, generic)
        rows.append(("a(d)" if label == "a(*)" else label, str(vec),
                     _profile_cells(vec)))

    print(f"characteristic {args.char}")
    header = ("label", "structure", "class", "comm", "square", "ann", "der",
              "own-line")
    widths = [8, max(len(r[1]) for r in rows) + 2, 7, 6, 8, 5, 5, 8]
    print("".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for label, text, cells in rows:
        line = label.ljust(widths[0]) + text.ljust(widths[1])
        line += "".join(str(c).ljust(w) for c, w in zip(cells, widths[2:]))
        print(line.rstrip())
    return 0


def _cmd_invariants(args) -> int:
    field = prime_field(args.char)
    ident = parse_algebra_id(args.id, field)
    vec = structure_of(ident, field)
    out = {"id": str(ident), "structure": str(vec)}
    out.update(invariant_profile(vec).to_dict())
    print(json.dumps(out, indent=2))
    return 0


def _cmd_act(args) -> int:
    vec = parse_vector(_read_payload(args.vector))
    g = parse_matrix(args.matrix, vec.parent)
    if g.det().is_zero():
        raise FormatError("basis-change matrix is singular")
    moved = act(vec, g)
    print(str(moved))
    print(json.dumps(render_vector(moved)))
    return 0


def _cmd_identify(args) -> int:
    vec = parse_vector(_read_payload(args.vector))
    try:
        if args.witness:
            ident, g = identify_with_witness(
                vec, allow_extension=args.allow_extension)
        else:
            ident = identify(vec)
    except NeedsFieldExtension as exc:
        print(f"needs a quadratic extension: {exc} "
              "(rerun with --witness --allow-extension)", file=sys.stderr)
        return 1
    except FieldError as exc:
        print(f"cannot finish over this field: {exc}", file=sys.stderr)
        return 1
    except UnclassifiableError as exc:
        print(f"unclassifiable over this field: {exc}", file=sys.stderr)
        return 1
    print(str(ident))
    if args.witness:
        print(json.dumps([[repr(g.entry(i, j)) for j in (1, 2, 3)]
                          for i in (1, 2, 3)]))
        if g.parent != vec.parent:
            print(json.dumps(_adjoined(g.parent, vec.parent)))
    return 0


def _adjoined(field, base) -> list:
    """The generators of field's tower above base, lowest first, each with
    its minimal polynomial (constant first) over the field below it."""
    out = []
    while field != base:
        out.append({"name": field.name,
                    "min_poly": [repr(c) for c in field.minpoly]})
        field = field.base
    return out[::-1]


def _cmd_verify_witness(args) -> int:
    witness = parse_witness(_read_payload(args.witness))
    limit = verify_witness(witness)
    mode = "up to isomorphism" if witness.up_to_iso else "exactly"
    print(f"verified: {witness.src} --> {witness.dst} ({mode})")
    print(f"limit: {limit}")
    return 0


def _cmd_identities(args) -> int:
    t0 = time.perf_counter()
    report = verify_lemma_identities(args.char)
    dt = time.perf_counter() - t0
    for name, holds in report.entries:
        print(f"{'ok  ' if holds else 'FAIL'} {name}")
    n = len(report.entries)
    bad = len(report.failures())
    print(f"characteristic {args.char}: {n - bad}/{n} identities hold")
    print(f"elapsed {dt:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_hasse(args) -> int:
    t0 = time.perf_counter()
    diagram = build_graph(args.char)
    dt = time.perf_counter() - t0
    missing, surplus = compare_expected(diagram)
    sys.stdout.write(emit(diagram, args.format))
    print(f"elapsed {dt:.2f}s", file=sys.stderr)
    if missing or surplus:
        print(f"FAIL: diagram deviates from the expected picture "
              f"(missing {sorted(missing)}, surplus {sorted(surplus)})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_search_witness(args) -> int:
    if args.char == 0:
        field, lift = PrimeField(7), True
    elif args.char == 2:
        field, lift = gf4(), False
    else:
        field, lift = PrimeField(args.char), False
    if args.degree < 0:
        raise FormatError(f"--degree must be at least 0, got {args.degree}")
    if args.budget < 1:
        raise FormatError(f"--budget must be at least 1, got {args.budget}")
    src = parse_algebra_id(args.src, field)
    dst = parse_algebra_id(args.dst, field)
    result = search_witness(src, dst, field, degree_bound=args.degree,
                            budget=args.budget, seed=args.seed)
    print(f"elapsed {result.elapsed:.2f}s", file=sys.stderr)
    if not result.found:
        print(f"no witness after {result.tried} candidates "
              f"(seed {result.seed}, degree <= {args.degree})")
        return 1
    print(f"found after {result.tried} candidates (seed {result.seed}):")
    print(json.dumps(render_witness(result.witness), indent=2))
    if lift:
        lifted = lift_witness_to_rationals(result.witness)
        print("lifted to the rationals:")
        print(json.dumps(render_witness(lifted), indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilalg3",
        description="Exact degeneration toolkit for 3-dimensional nilpotent "
                    "associative algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("catalog", help="list the canonical algebras and "
                        "their invariants")
    _add_char(p)
    p.set_defaults(func=_cmd_catalog)

    p = subs.add_parser("invariants", help="invariant profile of a catalogue "
                        "algebra")
    p.add_argument("id", help="algebra id, e.g. c3 or a(1/4)")
    _add_char(p)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("act", help="apply a basis change to a structure "
                        "vector")
    p.add_argument("vector", help="JSON vector file ('-' for stdin)")
    p.add_argument("matrix", help="3x3 matrix as JSON, entries exact scalars")
    p.set_defaults(func=_cmd_act)

    p = subs.add_parser("identify", help="classify a structure vector")
    p.add_argument("vector", help="JSON vector file ('-' for stdin)")
    p.add_argument("--witness", action="store_true",
                   help="also compute a basis change onto the canonical form")
    p.add_argument("--allow-extension", action="store_true",
                   help="permit the witness to live over a quadratic "
                        "extension, listed on a third line")
    p.set_defaults(func=_cmd_identify)

    p = subs.add_parser("verify-witness", help="check a degeneration curve "
                        "witness")
    p.add_argument("witness", help="JSON witness file ('-' for stdin)")
    p.set_defaults(func=_cmd_verify_witness)

    p = subs.add_parser("identities", help="verify the non-degeneration "
                        "polynomial identities")
    _add_char(p)
    p.set_defaults(func=_cmd_identities)

    p = subs.add_parser("hasse", help="compute the degeneration diagram")
    _add_char(p, choices=(0, 2))
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_hasse)

    p = subs.add_parser("search-witness", help="randomized search for a "
                        "degeneration curve over a finite field")
    p.add_argument("src")
    p.add_argument("dst")
    _add_char(p)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--degree", type=int, default=2,
                   help="maximum t-degree of matrix entries (default 2)")
    p.add_argument("--seed", type=int, default=1729,
                   help="RNG seed (default 1729)")
    p.set_defaults(func=_cmd_search_witness)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CatalogueError, NotNilpotentError, FieldError,
            HasseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
