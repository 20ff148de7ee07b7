"""Parsing and rendering for the CLI's external formats.

Scalars are exact: integers ("-3"), fractions ("3/2"), and extension
elements written against the named generators ("2+3w", "1+w^2").  Polynomials
in t use the same scalar syntax for coefficients, with the fraction binding
tightly to the coefficient: "3/2t" means (3/2)*t, never 3/(2t); compound
extension coefficients must be parenthesized, as in "(1+w)t^2".

Field descriptors, structure vectors, and curve witnesses travel as JSON:

    field    {"char": 7}  or  {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}}
    vector   {"field": {...}, "entries": [{"i": 2, "j": 3, "k": 1, "c": "1"}]}
    witness  {"src": "a3(2)", "dst": "l1", "char": 0,
              "matrix": [["-t", "0", "0"], ["0", "1", "0"], ["0", "-1", "t"]],
              "up_to_iso": false}

min_poly lists are constant-first integers; a monic polynomial over Q with
fractions is written as its integer multiple, [1, 0, 4] for r^2 + 1/4.
Algebra ids are written a0, c1, c3, l1, c5, a(C), h(C), a3(C), rho, chat3,
a2 with C a scalar.  This module keeps the syntax: a scalar or polynomial
is summed on the field's reps, its generators read from the field's map
(``_gens``) and raised by ``fields._power``.  A payload parses each distinct
text once, and a vector adds its entries' reps into its 27 coefficients.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

from .catalogue import AUXILIARY_TAGS, CANONICAL_TAGS, AlgebraId, CatalogueError
from .degeneration import CurveWitness, _rff
from .fields import (MAX_FINITE_ORDER, Field, FieldElement, FieldError,
                     _power, extend_with_root, prime_field, signed_sum)
from .polyring import RationalFunctionField
from .structspace import Matrix3, StructureVector, _from_reps

# the characteristics a field descriptor or a --char option may name
CHARACTERISTICS = (0, 2, 3, 5, 7, 11, 13)


class FormatError(ValueError):
    """Malformed field descriptor, scalar, polynomial, id, or JSON payload."""


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int, but JSON's true is no number."""
    return isinstance(x, int) and not isinstance(x, bool)


# -- fields -------------------------------------------------------------------


def parse_field(desc) -> Field:
    """The field of a JSON descriptor.

    Equal descriptors give the same field object: fields are built by
    ``_field``, which keeps the last few, so only a process that parses a
    descriptor again gains.  A malformed descriptor raises FormatError on
    every call, since failures are not kept.
    """
    desc = _decoded(desc)
    if not isinstance(desc, dict) or "char" not in desc:
        raise FormatError("field descriptor must be an object with 'char'")
    char = desc["char"]
    if not _is_int(char) or char < 0:
        raise FormatError(f"bad characteristic {char!r}")
    if char not in CHARACTERISTICS:
        raise FormatError(f"characteristic {char} is not supported")
    ext = desc.get("ext")
    if ext is None:
        return _field(char, None, None)
    if not isinstance(ext, dict) or "name" not in ext or "min_poly" not in ext:
        raise FormatError("'ext' needs 'name' and 'min_poly'")
    minpoly = ext["min_poly"]
    if (not isinstance(minpoly, list) or len(minpoly) < 3
            or not all(_is_int(c) for c in minpoly)):
        raise FormatError("'min_poly' must be a constant-first list of "
                          "integers of degree >= 2")
    name = ext["name"]      # read back as _TERM_RE reads a generator
    if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z]\w*", name):
        raise FormatError(f"bad generator name {name!r}: a letter, then letters, digits, _")
    return _field(char, name, tuple(minpoly))


@functools.lru_cache(maxsize=4)
def _field(char: int, name, minpoly) -> Field:
    """The field of a normalised descriptor; a GF(2^16) holds megabytes of
    tables, so only a few are kept."""
    base = prime_field(char)
    if name is None:
        return base
    try:
        field, _ = extend_with_root(base, list(minpoly), name)
    except Exception as exc:
        raise FormatError(f"bad extension: {exc}") from exc
    if char == 0 and field.degree > 3:
        raise FormatError("irreducibility over Q is only decided up to "
                          "degree 3")
    return field


def describe_field(field: Field) -> dict:
    if not isinstance(field, Field):
        raise FormatError(f"{field!r} has no JSON form: it is not Q, GF(p) "
                          "or an extension of one")
    if len(field._gens) > 1:
        raise FormatError("nested extensions have no JSON form")
    if not field._gens:
        return {"char": field.char}
    return {"char": field.char,
            "ext": {"name": field.name, "min_poly": _cleared(field.minpoly)}}


def _cleared(coeffs) -> list:
    """Integer coefficients of the same polynomial: a monic one over Q is
    multiplied by its common denominator, which parse_field divides out
    again; residues mod p and integral Q reps are ints, which have a
    denominator too."""
    reps = [c.rep for c in coeffs]
    den = math.lcm(*(r.denominator for r in reps))
    return [int(r * den) for r in reps]


# -- scalars ------------------------------------------------------------------


_TERM_RE = re.compile(
    r"^(?P<num>\d+(?:/\d+)?)?(?:(?P<name>[A-Za-z]\w*)(?:\^(?P<exp>\d+))?)?$")


def _split_signed_terms(text: str):
    text = text.replace(" ", "")
    if not text:
        raise FormatError("empty scalar")
    out = []
    sign = 1
    buf = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0 and i > 0 and text[i - 1] not in "+-(":
            out.append((sign, "".join(buf)))
            buf = []
            sign = 1 if ch == "+" else -1
            continue
        if ch in "+-" and depth == 0 and i == 0:
            sign = 1 if ch == "+" else -1
            continue
        buf.append(ch)
    if depth != 0:
        raise FormatError(f"unbalanced parentheses in {text!r}")
    out.append((sign, "".join(buf)))
    return out


def _fraction(text: str, field: Field):
    """The rep in ``field`` of the number a decimal integer or fraction names."""
    try:
        return field._coerce(Fraction(text) if "/" in text else int(text))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {text!r}") from None
    except (FieldError, ValueError) as exc:
        raise FormatError(f"bad fraction {text!r}: {exc}") from None


def _exponent(text) -> int:
    """The exponent after a "^"; 1 when there is none."""
    try:
        return int(text or 1)
    except ValueError as exc:   # more digits than int() converts
        raise FormatError(f"bad exponent: {exc}") from None


def parse_scalar(text: str, field: Field) -> FieldElement:
    """The element a scalar text names, its signed terms summed on reps."""
    if _is_int(text):
        return field.from_int(text)
    if not isinstance(text, str):
        raise FormatError(f"scalar must be text, got {text!r}")
    add, mul = field._add, field._mul
    total = field._zero_rep
    for sign, term in _split_signed_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("num") is None and m.group("name") is None):
            raise FormatError(f"bad scalar term {term!r} in {text!r}")
        num, name = m.group("num"), m.group("name")
        value = _fraction(num, field) if num else field._one_rep
        if name is not None:
            if name not in field._gens:
                raise FormatError(
                    f"unknown generator {name!r} over {field!r}")
            e = _exponent(m.group("exp"))
            if e > MAX_FINITE_ORDER and field.char == 0:
                # a finite field's power is table lookups; a number
                # field's reps grow with the exponent
                raise FormatError(f"generator exponent {e} in {text!r} is "
                                  f"above {MAX_FINITE_ORDER} in characteristic 0")
            value = mul(value, _power(field, field._gens[name], e))
        total = add(total, value if sign > 0 else field._neg(value))
    return field._elem(total)


# -- polynomials in t ----------------------------------------------------------


_POLY_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?|\((?P<paren>[^()]*)\))?\*?"
    r"(?P<t>t(?:\^(?P<exp>\d+))?)?$")


def parse_poly_in_t(text: str, rff: RationalFunctionField):
    """A polynomial entry of a curve matrix, as a rational function.

    The signed terms are summed on the field's reps into one {exponent:
    rep} map, and the polynomial is built once from it.
    """
    if _is_int(text):
        return rff.from_int(text)
    if not isinstance(text, str):
        raise FormatError(f"polynomial must be text, got {text!r}")
    field = rff.field
    coeffs = {}
    for sign, term in _split_signed_terms(text):
        m = _POLY_TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise FormatError(f"bad polynomial term {term!r} in {text!r}")
        coef = m.group("coef")
        if coef is None:
            value = field._one_rep
        elif m.group("paren") is not None:
            value = parse_scalar(m.group("paren"), field).rep
        else:
            value = _fraction(coef, field)
        e = _exponent(m.group("exp")) if m.group("t") else 0
        if sign < 0:
            value = field._neg(value)
        coeffs[e] = field._add(coeffs[e], value) if e in coeffs else value
    return rff.from_reps(coeffs)


_PLAIN_RE = re.compile(r"-?\d+(?:/\d+)?")


def _render_poly_in_t(rf) -> str:
    """A polynomial entry of a curve matrix in the syntax parse_poly_in_t
    reads: every coefficient but a plain integer or fraction in parentheses."""
    if rf.den != rf.parent.poly_one:
        raise FormatError(f"curve entry {rf} is not a polynomial in t")
    terms = rf.num.terms
    return signed_sum(
        ((repr(terms[e]), "" if e[0] == 0 else "t" if e[0] == 1 else f"t^{e[0]}")
         for e in sorted(terms, reverse=True)), "*",
        lambda text: text if _PLAIN_RE.fullmatch(text) else f"({text})")


# -- algebra ids ---------------------------------------------------------------


_ID_RE = re.compile(r"^(?P<tag>%s)(?:\((?P<param>[^()]*)\))?$" % "|".join(
    map(re.escape, CANONICAL_TAGS + AUXILIARY_TAGS)))


def parse_algebra_id(text: str, field: Field) -> AlgebraId:
    if not isinstance(text, str):
        raise FormatError(f"algebra id must be text, got {text!r}")
    m = _ID_RE.match(text.strip())
    if not m:
        raise FormatError(f"unrecognised algebra id {text!r}")
    tag, param = m.group("tag"), m.group("param")
    try:
        if param is None:
            return AlgebraId(tag)
        return AlgebraId(tag, parse_scalar(param, field))
    except CatalogueError as exc:
        raise FormatError(str(exc)) from exc


def render_algebra_id(ident: AlgebraId) -> str:
    return str(ident)


# -- vectors and witnesses ------------------------------------------------------


def _decoded(payload):
    """A payload given as JSON text, decoded; any other payload as it is."""
    if not isinstance(payload, str):
        return payload
    # a ValueError is a JSONDecodeError or an integer literal of more digits
    # than int() converts
    try:
        return json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def _each_text_once(parse, domain):
    """parse(c, domain); a text is parsed once, other values (1 == true) always."""
    parsed = {}

    def entry(c):
        if not isinstance(c, str):
            return parse(c, domain)
        x = parsed.get(c)
        if x is None:
            x = parsed[c] = parse(c, domain)
        return x
    return entry


def _matrix_reader(mat, what: str):
    """The reader of a 3x3 JSON array, which refuses anything else as
    ``what``: called with a parser and its domain, it builds the Matrix3."""
    if (not isinstance(mat, list) or len(mat) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in mat)):
        raise FormatError(f"{what} must be a 3x3 array")

    def read(parse, domain) -> Matrix3:
        # the shape is checked and every parsed entry lies in domain
        entry = _each_text_once(parse, domain)
        return Matrix3(domain, [entry(c) for row in mat for c in row])
    return read


def parse_vector(payload) -> StructureVector:
    payload = _decoded(payload)
    if not isinstance(payload, dict) or "entries" not in payload:
        raise FormatError("vector payload must be an object with 'entries'")
    field = parse_field(payload.get("field", {"char": 0}))
    if not isinstance(payload["entries"], list):
        raise FormatError("vector 'entries' must be a list")
    add = field._add
    reps = [field._zero_rep] * 27
    scalar = _each_text_once(parse_scalar, field)
    for entry in payload["entries"]:
        if not isinstance(entry, dict) or not {"i", "j", "k", "c"} <= entry.keys():
            raise FormatError(f"bad vector entry {entry!r}")
        i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
        if not all(_is_int(n) and 1 <= n <= 3 for n in (i, j, k)):
            raise FormatError(f"indices out of range in {entry!r}")
        n = 9 * i + 3 * j + k - 13     # entries add up
        reps[n] = add(reps[n], scalar(c).rep)
    return _from_reps(field, reps)


def render_vector(vec: StructureVector) -> dict:
    field = describe_field(vec.parent)
    return {"entries": [{"i": i, "j": j, "k": k, "c": repr(c)}
                        for i, j, k, c in vec.terms()],
            "field": field}


def parse_matrix(payload, field: Field) -> Matrix3:
    return _matrix_reader(_decoded(payload), "matrix")(parse_scalar, field)


def parse_witness(payload) -> CurveWitness:
    payload = _decoded(payload)
    if not isinstance(payload, dict):
        raise FormatError("witness payload must be an object")
    missing = {"src", "dst", "matrix"} - set(payload)
    if missing:
        raise FormatError(f"witness payload lacks {sorted(missing)}")
    if "field" in payload:
        field = parse_field(payload["field"])
    else:
        field = parse_field({"char": payload.get("char", 0)})
    rff = _rff(field)
    src = parse_algebra_id(payload["src"], field)
    dst = parse_algebra_id(payload["dst"], field)
    read = _matrix_reader(payload["matrix"], "witness matrix")
    up_to_iso = payload.get("up_to_iso", False)
    if not isinstance(up_to_iso, bool):
        raise FormatError(
            f"'up_to_iso' must be true or false, got {up_to_iso!r}")
    return CurveWitness(src, dst, read(parse_poly_in_t, rff),
                        up_to_iso=up_to_iso, note=str(payload.get("note", "")))


def render_witness(witness: CurveWitness) -> dict:
    field = witness.base_field
    payload = {
        "src": render_algebra_id(witness.src),
        "dst": render_algebra_id(witness.dst),
        "field": describe_field(field),
        "matrix": [[_render_poly_in_t(witness.matrix.entry(i, j))
                    for j in (1, 2, 3)] for i in (1, 2, 3)],
    }
    if witness.up_to_iso:
        payload["up_to_iso"] = True
    if witness.note:
        payload["note"] = witness.note
    return payload
