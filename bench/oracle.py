"""The benchmark's own exact arithmetic, used to make inputs and check outputs.

Nothing here imports nilalg3.  Scalars are plain Python values: Fractions for
Q, ints mod p for GF(p), and bit-coded ints for GF(2^k) given by a flat
minimal polynomial over GF(2).  Values cross into and out of nilalg3 only as
the text it parses and prints, so an arithmetic fault in the package cannot
also hide in its own oracle.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """One small exact field; ``desc`` is its nilalg3 JSON descriptor."""

    def __init__(self, label, desc, char):
        self.label = label
        self.desc = desc
        self.char = char

    def one(self):
        return 1

    def elem(self, n: int):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if not self.is_zero(x):
                return x

    def is_zero(self, a) -> bool:
        return a == 0


class Rationals(Field):
    def __init__(self):
        super().__init__("Q", {"char": 0}, 0)

    def elem(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / Fraction(a)

    def text(self, a) -> str:
        return str(Fraction(a))

    def from_text(self, s: str):
        return Fraction(s)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


class PrimeField(Field):
    def __init__(self, p: int):
        super().__init__(f"gf{p}", {"char": p}, p)
        self.p = p

    def elem(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def text(self, a) -> str:
        return str(a)

    def from_text(self, s: str):
        return int(s) % self.p

    def random(self, rng):
        return rng.randrange(self.p)


class BinaryField(Field):
    """GF(2^k) as GF(2)[x]/(m), elements coded as k-bit ints."""

    def __init__(self, modulus_bits: int, name: str):
        k = modulus_bits.bit_length() - 1
        minpoly = [(modulus_bits >> i) & 1 for i in range(k + 1)]
        super().__init__(f"gf{1 << k}", {"char": 2, "ext": {"name": name,
                                                            "min_poly": minpoly}}, 2)
        self.k = k
        self.modulus = modulus_bits
        self.name = name
        self.order = 1 << k

    def elem(self, n):
        return n & 1

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.k:
                a ^= self.modulus
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        out, base, n = 1, a, self.order - 2
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def text(self, a) -> str:
        parts = []
        for i in range(self.k):
            if (a >> i) & 1:
                parts.append("1" if i == 0 else self.name if i == 1
                             else f"{self.name}^{i}")
        return "+".join(parts) if parts else "0"

    def from_text(self, s: str):
        out = 0
        for term in s.split("+"):
            if term == "0":
                continue
            if term == "1":
                out ^= 1
            elif term == self.name:
                out ^= 2
            elif term.startswith(self.name + "^"):
                out ^= 1 << int(term[len(self.name) + 1:])
            else:
                raise ValueError(f"unexpected term {term!r} in {s!r}")
        return out

    def random(self, rng):
        return rng.randrange(self.order)


QQ = Rationals()
GF7 = PrimeField(7)
GF4 = BinaryField(0b111, "w")
GF16 = BinaryField(0b10011, "s")


# -- structure vectors: dicts {(i, j, k): coefficient}, 1-based, no zeros ------


def canonical(field: Field, tag: str, param=None) -> dict:
    """The catalogue's defining structure constants, restated independently."""
    one = field.one()
    m1 = field.neg(one)
    table = {
        "a0": {},
        "c1": {(3, 3, 1): one},
        "c3": {(2, 2, 1): one, (3, 3, 1): one},
        "l1": {(2, 3, 1): one, (3, 2, 1): m1},
        "c5": {(1, 1, 2): one, (1, 2, 3): one, (2, 1, 3): one},
        "a": {(2, 2, 1): one, (2, 3, 1): one, (3, 3, 1): param},
        "a3": {(2, 2, 1): one, (3, 2, 1): param, (3, 3, 1): one},
    }
    return {ijk: c for ijk, c in table[tag].items() if not field.is_zero(c)}


def class_text(field: Field, tag: str, param=None) -> str:
    return tag if param is None else f"{tag}({field.text(param)})"


def vector_json(field: Field, vec: dict) -> dict:
    entries = [{"i": i, "j": j, "k": k, "c": field.text(c)}
               for (i, j, k), c in sorted(vec.items())]
    return {"field": field.desc, "entries": entries}


def vector_from_terms(field: Field, terms) -> dict:
    """Read (i, j, k, text) terms printed by nilalg3 into an oracle vector."""
    out = {}
    for i, j, k, text in terms:
        c = field.from_text(text)
        if not field.is_zero(c):
            out[(i, j, k)] = c
    return out


# -- matrices over the field: 3x3 nested lists, 0-based ----------------------


def _det3(m, mul, add, sub):
    def minor(r0, r1, c0, c1):
        return sub(mul(m[r0][c0], m[r1][c1]), mul(m[r0][c1], m[r1][c0]))
    total = mul(m[0][0], minor(1, 2, 1, 2))
    total = sub(total, mul(m[0][1], minor(1, 2, 0, 2)))
    return add(total, mul(m[0][2], minor(1, 2, 0, 1)))


def _adj3(m, mul, sub):
    """Adjugate: adj[r][s] is the (s, r) cofactor."""
    out = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for s in range(3):
            i0, i1 = (s + 1) % 3, (s + 2) % 3
            j0, j1 = (r + 1) % 3, (r + 2) % 3
            out[r][s] = sub(mul(m[i0][j0], m[i1][j1]), mul(m[i0][j1], m[i1][j0]))
    return out


def random_invertible(field: Field, rng):
    """A seeded basis change with no zero entry, so the structures it makes
    are dense and their cost does not hang on chance zeros."""
    while True:
        m = [[field.random_nonzero(rng) for _ in range(3)] for _ in range(3)]
        if not field.is_zero(_det3(m, field.mul, field.add, field.sub)):
            return m


def act_constant(field: Field, vec: dict, g) -> dict:
    """Structure constants in the basis given by the columns of g.

    New (a, b, c) = sum over (i, j, k) of vec[i,j,k] * g[i,a] * g[j,b] *
    h[c,k], with h the inverse of g: the same right action nilalg3 uses.
    """
    mul, add, sub = field.mul, field.add, field.sub
    det = _det3(g, mul, add, sub)
    dinv = field.inv(det)
    h = [[mul(x, dinv) for x in row] for row in _adj3(g, mul, sub)]
    out = {}
    for (i, j, k), coef in vec.items():
        for a in range(3):
            ca = mul(coef, g[i - 1][a])
            for b in range(3):
                cab = mul(ca, g[j - 1][b])
                for c in range(3):
                    key = (a + 1, b + 1, c + 1)
                    out[key] = add(out.get(key, 0), mul(cab, h[c][k - 1]))
    return {key: c for key, c in out.items() if not field.is_zero(c)}


# -- polynomials in t: dicts {exponent: nonzero coefficient} -----------------


class PolyT:
    """Arithmetic on polynomials in t over one oracle field."""

    def __init__(self, field: Field):
        self.f = field

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for e, c in b.items():
            s = self.f.add(out.get(e, 0), c)
            if self.f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def neg(self, a: dict) -> dict:
        return {e: self.f.neg(c) for e, c in a.items()}

    def sub(self, a: dict, b: dict) -> dict:
        return self.add(a, self.neg(b))

    def mul(self, a: dict, b: dict) -> dict:
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = self.f.add(out.get(e, 0), self.f.mul(c1, c2))
                if self.f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return out

    def const(self, c) -> dict:
        return {} if self.f.is_zero(c) else {0: c}

    def text(self, p: dict) -> str:
        """Entry text in the syntax nilalg3's witness parser accepts."""
        if not p:
            return "0"
        out = ""
        for e in sorted(p, reverse=True):
            c = p[e]
            ctext = self.f.text(c)
            sign = ""
            if ctext.startswith("-"):
                sign, ctext = "-", ctext[1:]
            if not ctext.replace("/", "").isdigit():
                ctext = f"({ctext})"
            mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if mono and ctext == "1":
                ctext = ""
            term = ctext + mono
            out += sign + term if not out or sign else "+" + term
        return out


def poly_matrix(field: Field, rows) -> list:
    """Rows whose entries are ints c or pairs (c, e) meaning c * t^e."""
    out = []
    for row in rows:
        line = []
        for x in row:
            c, e = (x, 0) if isinstance(x, int) else x
            c = field.elem(c) if isinstance(c, int) else c
            line.append({} if field.is_zero(c) else {e: c})
        out.append(line)
    return out


def curve_limit(field: Field, vec: dict, g) -> dict | str:
    """Limit at t = 0 of vec moved by the polynomial curve g, or a reason.

    Works division-free: the moved coefficient is N(t) / det g(t) with N
    built from the adjugate, and the limit exists iff every N vanishes to at
    least the order of det g at t = 0.  Returns "singular" or "pole" when
    there is no limit.
    """
    P = PolyT(field)
    det = _det3(g, P.mul, P.add, P.sub)
    if not det:
        return "singular"
    adj = _adj3(g, P.mul, P.sub)
    v = min(det)
    lead_inv = field.inv(det[v])
    out = {}
    for (i, j, k), coef in vec.items():
        for a in range(3):
            for b in range(3):
                gab = P.mul(g[i - 1][a], g[j - 1][b])
                if not gab:
                    continue
                gab = P.mul(gab, P.const(coef))
                for c in range(3):
                    key = (a + 1, b + 1, c + 1)
                    out[key] = P.add(out.get(key, {}), P.mul(gab, adj[c][k - 1]))
    limit = {}
    for key, num in out.items():
        if not num:
            continue
        if min(num) < v:
            return "pole"
        if v in num:
            limit[key] = field.mul(num[v], lead_inv)
    return limit


def matrix_from_entries(field: Field, entries) -> list:
    """Read nilalg3's polynomial matrix, given as [[{exp: text}]] rows."""
    return [[{e: field.from_text(c) for e, c in cell.items()} for cell in row]
            for row in entries]


def centred_lift(field: PrimeField, g) -> list:
    """Each GF(p) coefficient r replaced by the integer in (-p/2, p/2]."""
    p = field.p
    return [[{e: Fraction(c if c <= p // 2 else c - p) for e, c in cell.items()}
             for cell in row] for row in g]
