"""The four benchmark workloads: seeded inputs, timed operations, oracles.

Each workload makes its inputs once from the seed and hands out passes: the
same operations each time, as a list of Op.  An Op's ``run`` is the timed
call into nilalg3; its ``check`` compares the result with an answer fixed
when the input was made (by oracle.py, the goldens, or the construction
itself) and returns None when the result is right, else a message.  ``key``
names the input, so repetitions of one operation can be told apart from
others of the same kind.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as O

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
HWM_MARK = "bench-hwm-kb "
# `python -m nilalg3.cli`, plus a report of the process's own peak resident
# set at exit.  The parent cannot measure it: a child's ru_maxrss also counts
# the parent's memory it was forked from.
CLI_WITH_HWM = (
    "import atexit, runpy, sys\n"
    "def hwm():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = [line.split()[1] for line in f if line.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('{HWM_MARK}' + kb[0] + '\\n')\n"
    "atexit.register(hwm)\n"
    "runpy.run_module('nilalg3.cli', run_name='__main__', alter_sys=True)\n")


@dataclass
class Op:
    kind: str
    key: object
    run: Callable[[], object]
    check: Callable[[object], str | None]
    items: Callable[[object], int] = lambda result: 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("NILALG3_SEED", None)
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    """One fresh interpreter, waited for; the only way children are started."""
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)


def _vector_terms(vec) -> list:
    return [(i, j, k, repr(c)) for i, j, k, c in vec.terms()]


def _matrix_entries(matrix) -> list:
    """A polynomial matrix of nilalg3 rational functions as [[{exp: text}]]."""
    rows = []
    for i in (1, 2, 3):
        row = []
        for j in (1, 2, 3):
            rf = matrix.entry(i, j)
            if str(rf.den) != "1":
                raise ValueError(f"entry {rf} is not a polynomial")
            row.append({e[0]: repr(c) for e, c in rf.num.terms.items()})
        rows.append(row)
    return rows


def _limit_check(field, src_vec, expect) -> Callable:
    """Check a returned witness: its curve must move src_vec onto expect."""
    def check(witness) -> str | None:
        g = O.matrix_from_entries(field, _matrix_entries(witness.matrix))
        got = O.curve_limit(field, src_vec, g)
        return None if got == expect else f"oracle limit {got} != {expect}"
    return check


# -- hasse-cold ------------------------------------------------------------------


class InProcess:
    ref_every_s = 0.5

    def layer_ops(self) -> list:
        """The fixed pass that the per-layer run repeats."""
        return self.pass_ops(0)

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process: nilalg3 and the benchmark."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class HasseCold:
    """`nilalg3 hasse --char C --format json`, one fresh process per run."""

    name = "hasse-cold"
    ref_every_s = 0.0       # each cold process is long: bracket every one
    main_kind = "hasse2"
    side_kind = "hasse0"

    def __init__(self, seed: int):
        self.first = seed % 2
        self.golden = {c: (ROOT / "tests" / "golden" / f"hasse_char{c}.json").read_bytes()
                       for c in (0, 2)}
        self.hwm_kb = []

    def peak_rss_mb(self) -> float:
        """The largest peak resident set of an untraced `hasse` process."""
        return max(self.hwm_kb) / 1024

    def _op(self, char: int, traced: bool) -> Op:
        args = ["hasse", "--char", str(char), "--format", "json"]
        argv = ([str(BENCH / "traced_cli.py")] + args if traced
                else ["-c", CLI_WITH_HWM] + args)

        def run():
            proc = run_child(argv)
            lines = proc.stderr.decode(errors="replace").splitlines()
            if not traced and lines and lines[-1].startswith(HWM_MARK):
                self.hwm_kb.append(int(lines[-1][len(HWM_MARK):]))
            return proc

        def check(proc):
            if proc.returncode != 0:
                return f"hasse --char {char} exited {proc.returncode}: " \
                       f"{proc.stderr.decode(errors='replace')[-400:]}"
            if proc.stdout != self.golden[char]:
                return f"hasse --char {char} output differs from the golden"
            return None

        return Op(f"hasse{char}", char, run, check)

    def warmup(self) -> Op:
        return self._op(0, False)

    def pass_ops(self, index: int, traced: bool = False) -> list:
        chars = (0, 2) if self.first == 0 else (2, 0)
        return [self._op(c, traced) for c in chars]


# -- certify ---------------------------------------------------------------------


CERTIFY_FIELDS = (O.QQ, O.GF7, O.GF4, O.GF16)
T = (1, 1)          # the monomial t
T2 = (1, 2)         # t^2
MT = (-1, 1)        # -t
SEARCH_NEG_BUDGET = 5000
SEARCH_NEG_SEEDS = 4
SEARCH_POS_BUDGET = 400000     # hits take 3k-25k candidates on average
SEARCH_POS_SEEDS = 6
SEARCH_LIFTED = ((("a3", 2), "l1"), (("c5", None), "c1"))    # over GF(7)


def _nilalg3_id(field, tag, par=None):
    from nilalg3.catalogue import AlgebraId
    return AlgebraId(tag) if par is None else AlgebraId(tag, field.from_int(par))


def _witness_json(field, src, dst, g, up_to_iso=False) -> str:
    P = O.PolyT(field)
    payload = {"src": src, "dst": dst, "field": field.desc,
               "matrix": [[P.text(x) for x in row] for row in g]}
    if up_to_iso:
        payload["up_to_iso"] = True
    return json.dumps(payload)


def _search_hit(field, witness) -> list:
    return O.matrix_from_entries(field, _matrix_entries(witness.matrix))


@dataclass
class Entry:
    """One corpus witness (or pair to compose) and the verdict fixed for it."""

    field: O.Field
    text: str
    expect: str            # "accept", "compose", or why the oracle rejects it
    limit: object          # the oracle's limit or reason; (source, target)
    second: str | None = None   # the second curve of a composition


class Certify(InProcess):
    """parse_witness + verify_witness (or compose_curves) on a seeded corpus,
    interleaved with the lemma identity suite and its 27 mutations."""

    name = "certify"
    main_kind = "witness"
    side_kind = "suite"

    def __init__(self, seed: int):
        from nilalg3.degeneration import DegenerationError
        self.Error = DegenerationError
        self.seed = seed
        self.rng = random.Random(seed)
        self.entries = []
        for field in CERTIFY_FIELDS:
            self._library(field)
        self._lifted_hits()
        self.suites = [(c, None) for c in (0, 2)] + [
            (c, (i, j, k)) for c in (0, 2)
            for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]

    def _param(self, field, avoid):
        while True:
            d = field.random(self.rng)
            if d != avoid:
                return d

    def _add(self, field, src, dst, g, expect=None, up_to_iso=False):
        """One witness; without ``expect`` the oracle decides the verdict.

        The oracle computes limits but does not classify them, so the class
        of an up-to-isomorphism limit is the one stated by ``expect``.
        """
        (s_tag, s_par), (d_tag, d_par) = src, dst
        limit = O.curve_limit(field, O.canonical(field, s_tag, s_par), g)
        if isinstance(limit, str):
            verdict = limit
        elif up_to_iso:
            verdict = expect
        elif limit == O.canonical(field, d_tag, d_par):
            verdict = "accept"
        else:
            verdict = "wrong-limit"
        if expect is not None and verdict != expect:
            raise AssertionError(f"corpus curve {src}->{dst}: oracle says {verdict}")
        text = _witness_json(field, O.class_text(field, s_tag, s_par),
                             O.class_text(field, d_tag, d_par), g, up_to_iso)
        self.entries.append(Entry(field, text, verdict, limit))

    def _compose(self, field, src, mid, dst, g1, g2):
        """Two exact curves src -> mid -> dst; the composite must reach dst."""
        text = O.class_text(field, *src)
        self.entries.append(Entry(
            field, _witness_json(field, text, mid, g1), "compose",
            (O.canonical(field, *src), O.canonical(field, dst)),
            second=_witness_json(field, mid, dst, g2)))

    def _library(self, field):
        char2 = field.char == 2
        quarter = None if char2 else field.inv(field.elem(4))
        d1, d2, d3 = (self._param(field, quarter) for _ in range(3))

        def m(rows):
            return O.poly_matrix(field, rows)

        scale = m([[T, 0, 0], [0, T, 0], [0, 0, T]])
        pinch = m([[1, 0, 0], [0, 0, 1], [0, T, 0]])
        cube = m([[0, 0, T], [T2, 0, 0], [0, T2, 0]])
        collapse = m([[0, 0, T], [0, T, 0], [T2, T, 0]] if char2
                     else [[T, 0, 0], [T, 1, 0], [0, 0, T]])
        if char2:
            extra_src, extra = ("c3", None), m([[T, 0, 0], [0, 1, 0], [0, 1, T]])
        else:
            extra_src, extra = ("a", quarter), m([[MT, 0, 0], [0, -1, T], [0, 2, 0]])
        c1, c3, c5, l1, a0 = (("c1", None), ("c3", None), ("c5", None), ("l1", None),
                              ("a0", None))
        for src in (c1, c3, l1, c5, ("a", d1)):
            self._add(field, src, a0, scale, "accept")
        for d in (d1, d2, d3):
            self._add(field, ("a", d), c1, pinch, "accept")
        self._add(field, c3, c1, m([[1, 0, 0], [0, T, 0], [0, 0, 1]]), "accept")
        self._add(field, c5, c1, cube, "accept")
        self._add(field, c5, c3, collapse, "accept", up_to_iso=True)
        self._add(field, extra_src, l1, extra, "accept")
        self._compose(field, c5, "c1", "a0", cube, scale)
        self._compose(field, ("a", d2), "c1", "a0", pinch, scale)
        self._compose(field, extra_src, "l1", "a0", extra, scale)
        # witnesses that must be rejected
        self._add(field, ("a", d3), c3, pinch, "wrong-limit")
        self._add(field, c5, c1, collapse, "wrong-limit", up_to_iso=True)
        self._add(field, c1, a0, m([[T, 0, 0], [0, 1, 0], [0, 0, 1]]), "pole")
        self._add(field, c3, c1, m([[1, 0, 0], [0, T, 0], [0, 0, 0]]), "singular")

    def _lifted_hits(self):
        """Search hits over GF(7), lifted to Q by centred residues.

        A lift need not work: the oracle decides whether this one must be
        accepted or rejected.
        """
        from nilalg3.degeneration import search_witness
        from nilalg3.fields import PrimeField
        f7 = PrimeField(7)
        for (s_tag, s_par), d_tag in SEARCH_LIFTED:
            src, dst = _nilalg3_id(f7, s_tag, s_par), _nilalg3_id(f7, d_tag)
            res = search_witness(src, dst, f7, budget=SEARCH_POS_BUDGET,
                                 seed=self.rng.randrange(1 << 30))
            if not res.found:
                raise RuntimeError(f"no search hit for {src}->{dst} in the corpus build")
            lifted = O.centred_lift(O.GF7, _search_hit(O.GF7, res.witness))
            par = None if s_par is None else O.QQ.elem(s_par)
            self._add(O.QQ, (s_tag, par), (d_tag, None), lifted)

    def _witness_op(self, key: int, e: Entry) -> Op:
        from nilalg3.degeneration import compose_curves, verify_witness
        from nilalg3.ioformats import parse_witness
        Error = self.Error
        if e.second is not None:
            def run():
                return compose_curves(parse_witness(e.text), parse_witness(e.second))

            return Op("witness", key, run, _limit_check(e.field, *e.limit))

        def run():
            w = parse_witness(e.text)
            try:
                return verify_witness(w)
            except Error as exc:
                return exc

        def check(result):
            if e.expect == "accept":
                if isinstance(result, Exception):
                    return f"rejected a valid witness: {result}"
                got = O.vector_from_terms(e.field, _vector_terms(result))
                return None if got == e.limit else f"limit {got} != oracle {e.limit}"
            if not isinstance(result, Error):
                return f"accepted a witness the oracle rejects ({e.expect})"
            return None

        return Op("witness", key, run, check)

    def _suite_op(self, char, mutate) -> Op:
        from nilalg3.degeneration import verify_lemma_identities

        def run():
            return verify_lemma_identities(char, mutate=mutate)

        def check(report):
            if report.ok == (mutate is None):
                return None
            return f"identity suite char {char} mutate {mutate}: ok={report.ok}"

        return Op("suite", (char, mutate), run, check)

    def warmup(self) -> Op:
        return self._witness_op(-1, self.entries[-1])

    def pass_ops(self, index: int, traced: bool = False) -> list:
        rng = random.Random(f"{self.seed}-certify-{index}")
        witnesses = [self._witness_op(n, e) for n, e in enumerate(self.entries)]
        rng.shuffle(witnesses)
        suites = [self._suite_op(c, m) for c, m in self.suites]
        ops = []
        step = len(witnesses) / len(suites)
        for n, op in enumerate(suites):
            ops.extend(witnesses[round(n * step):round((n + 1) * step)])
            ops.append(op)
        return ops


# -- classify --------------------------------------------------------------------


CLASSIFY_FIELDS = (O.GF7, O.GF4, O.GF16)
# the cost of identify varies twofold with the basis change, so each class
# comes with several, to keep a seed's total close to that of other seeds
BASIS_CHANGES = 4


class Classify(InProcess):
    """parse_vector + identify + invariant_profile on seeded basis changes of
    every catalogue class; identify_with_witness on every vector but the c3
    ones, whose reduction hunts for a square root and so costs whatever the
    position of that root makes it."""

    name = "classify"
    main_kind = "vector"
    side_kind = "reduce"

    def __init__(self, seed: int):
        from nilalg3.algprops import invariant_profile
        from nilalg3.ioformats import parse_vector
        self.seed = seed
        self.classes = []
        self.profiles = {}
        for field in CLASSIFY_FIELDS:
            rng = random.Random(f"{seed}-{field.label}")
            d1 = field.random(rng)
            d2 = field.random(rng)
            for tag, par in (("a0", None), ("c1", None), ("c3", None), ("l1", None),
                             ("c5", None), ("a", d1), ("a", d2)):
                self.classes.append((field, tag, par))
                # the profile is basis-independent: every moved copy must
                # report the profile of the defining structure
                vec = O.canonical(field, tag, par)
                text = json.dumps(O.vector_json(field, vec))
                self.profiles[(field.label, tag, par)] = \
                    invariant_profile(parse_vector(text)).to_dict()
        rng = random.Random(f"{seed}-classify")
        self.vectors = []
        for field, tag, par in self.classes:
            for _ in range(BASIS_CHANGES):
                g = O.random_invertible(field, rng)
                vec = O.act_constant(field, O.canonical(field, tag, par), g)
                self.vectors.append((len(self.vectors), field, tag, par,
                                     json.dumps(O.vector_json(field, vec)), tag != "c3"))

    def _ops(self, key, field, tag, par, text, with_witness) -> list:
        from nilalg3.algprops import invariant_profile
        from nilalg3.catalogue import identify, identify_with_witness
        from nilalg3.ioformats import parse_vector
        expect = O.class_text(field, tag, par)
        profile = self.profiles[(field.label, tag, par)]

        def run():
            vec = parse_vector(text)
            return identify(vec), invariant_profile(vec)

        def check(result):
            ident, prof = result
            if str(ident) != expect:
                return f"identified {ident}, generated as {expect}"
            if prof.to_dict() != profile:
                return f"profile of a moved {expect} differs from the canonical one"
            return None

        ops = [Op("vector", key, run, check)]
        if with_witness:
            def run_w():
                return identify_with_witness(parse_vector(text), allow_extension=True)

            def check_w(result):
                ident, _ = result
                return None if str(ident) == expect else \
                    f"identify_with_witness gave {ident}, generated as {expect}"

            ops.append(Op("reduce", key, run_w, check_w))
        return ops

    def warmup(self) -> Op:
        return self._ops(*self.vectors[0])[0]

    def layer_ops(self) -> list:
        """One basis change per class: a whole pass takes about 25 s."""
        return [op for vec in self.vectors[::BASIS_CHANGES] for op in self._ops(*vec)]

    def pass_ops(self, index: int, traced: bool = False) -> list:
        order = list(self.vectors)
        random.Random(f"{self.seed}-classify-{index}").shuffle(order)
        return [op for vec in order for op in self._ops(*vec)]


# -- search ----------------------------------------------------------------------




class Search(InProcess):
    """search_witness with a fixed budget: pairs that cannot degenerate must
    exhaust it; pairs that do must return a hit that re-verifies and lifts."""

    name = "search"
    main_kind = "search-neg"
    side_kind = "search-pos"

    def __init__(self, seed: int):
        from nilalg3.catalogue import a3kappa, adelta, c1, c3, c5, l1
        from nilalg3.fields import PrimeField, gf4
        f5, f7, f4 = PrimeField(5), PrimeField(7), gf4()
        rng = random.Random(f"{seed}-search")
        negative = [(l1(), c1(), f5), (c3(), l1(), f5), (adelta(f4, 1), c3(), f4)]
        self.negative = [pair + (rng.randrange(1 << 30),)
                         for pair in negative for _ in range(SEARCH_NEG_SEEDS)]
        # over GF(7) only: the hit check inside search_witness costs about
        # as much as 500 GF(7) candidates, but as much as 3500 GF(4) ones,
        # and the number of candidates to a hit varies with the seed
        positive = [(a3kappa(f7, 2), l1(), f7, ("a3", 2), "l1"),
                    (c5(), c1(), f7, ("c5", None), "c1")]
        self.positive = [pair + (rng.randrange(1 << 30),)
                         for pair in positive for _ in range(SEARCH_POS_SEEDS)]

    def pass_ops(self, index: int, traced: bool = False) -> list:
        from nilalg3.degeneration import search_witness
        ops = []
        for key, (src, dst, field, seed) in enumerate(self.negative):
            def run(src=src, dst=dst, field=field, seed=seed):
                return search_witness(src, dst, field, budget=SEARCH_NEG_BUDGET, seed=seed)

            def check(res, src=src, dst=dst):
                if res.found or res.tried != SEARCH_NEG_BUDGET:
                    return f"{src}->{dst} must exhaust the budget: tried {res.tried}, " \
                           f"found {res.found}"
                return None

            ops.append(Op("search-neg", key, run, check, lambda res: res.tried))
        for key, (src, dst, field, (s_tag, s_par), d_tag, seed) in enumerate(self.positive):
            hit = {}

            def run(src=src, dst=dst, field=field, seed=seed, hit=hit):
                res = search_witness(src, dst, field, budget=SEARCH_POS_BUDGET, seed=seed)
                hit["witness"] = res.witness
                return res

            def check(res, src=src, dst=dst, s_tag=s_tag, s_par=s_par, d_tag=d_tag):
                if not res.found:
                    return f"{src}->{dst}: no hit in {res.tried} candidates"
                par = None if s_par is None else O.GF7.elem(s_par)
                return _limit_check(O.GF7, O.canonical(O.GF7, s_tag, par),
                                    O.canonical(O.GF7, d_tag))(res.witness)

            ops.append(Op("search-pos", key, run, check, lambda res: res.tried))
            ops.append(self._lift_op(key, hit, s_tag, s_par, d_tag))
        return ops

    def _lift_op(self, key, hit, s_tag, s_par, d_tag) -> Op:
        """Lift the hit to Q; the oracle says whether the lift must verify."""
        from nilalg3.degeneration import DegenerationError, lift_witness_to_rationals

        def run():
            try:
                return lift_witness_to_rationals(hit["witness"])
            except DegenerationError as exc:
                return exc

        def check(result):
            lifted = O.centred_lift(O.GF7, _search_hit(O.GF7, hit["witness"]))
            par = None if s_par is None else O.QQ.elem(s_par)
            limit = O.curve_limit(O.QQ, O.canonical(O.QQ, s_tag, par), lifted)
            if limit != O.canonical(O.QQ, d_tag):
                return None if isinstance(result, DegenerationError) else \
                    f"accepted a lift whose limit is {limit}"
            if isinstance(result, Exception):
                return f"rejected a lift that verifies: {result}"
            if _search_hit(O.QQ, result) != lifted:
                return "lifted matrix is not the centred-residue lift"
            return None

        return Op("lift", key, run, check)

    def warmup(self) -> Op:
        return self.pass_ops(-1)[0]


WORKLOADS = {cls.name: cls for cls in (HasseCold, Certify, Classify, Search)}
