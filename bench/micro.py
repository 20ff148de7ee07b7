"""Warm per-layer micro-timings on seeded inputs.

Each timing cycles through a few inputs made from the seed, sizes a loop
from one call, runs it once to warm up and REPEATS more times, and reports
the median time per call.  Inputs are built before timing starts.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 3
MIN_LOOP_S = 0.02


def _time_per_call(fn, inputs) -> float:
    n = len(inputs)
    t0 = perf_counter()
    fn(*inputs[0])
    first = perf_counter() - t0
    loops = max(1, min(1 << 16, int(MIN_LOOP_S / max(first, 1e-7))))
    per_call = []
    for _ in range(REPEATS + 1):
        t0 = perf_counter()
        for i in range(loops):
            fn(*inputs[i % n])
        per_call.append((perf_counter() - t0) / loops)
    return statistics.median(per_call[1:])


def _fields(rng):
    from nilalg3.fields import RATIONALS, PrimeField, SimpleExtension, gf4, gf16
    qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")

    def q_elem():
        return RATIONALS.element(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                                          rng.randint(1, 99)))

    def finite(field):
        nonzero = [x for x in field.elements() if not x.is_zero()]
        return lambda: rng.choice(nonzero)

    f7, f4, f16 = PrimeField(7), gf4(), gf16()
    return {"Q": (RATIONALS, q_elem), "gf7": (f7, finite(f7)), "gf4": (f4, finite(f4)),
            "gf16": (f16, finite(f16)),
            "Qi": (qi, lambda: qi.element([q_elem(), q_elem()]))}


def _rand_matrix(field, pick):
    from nilalg3.structspace import Matrix3
    while True:
        g = Matrix3.from_rows(field, [[pick() for _ in range(3)] for _ in range(3)])
        if not g.det().is_zero():
            return g


def _shear(field, pick, rng):
    """A permuted, scaled shear: a basis change that keeps structures sparse."""
    from nilalg3.structspace import Matrix3
    rows = [[field.zero()] * 3 for _ in range(3)]
    for r, c in enumerate(rng.sample(range(3), 3)):
        rows[r][c] = pick()
    r, c = rng.sample(range(3), 2)
    rows[r][c] = rows[r][c] + pick()
    g = Matrix3.from_rows(field, rows)
    return g if not g.det().is_zero() else _shear(field, pick, rng)


def _moved_classes(field, pick, rng, count=5):
    """Structures of seeded basis changes of the non-trivial classes."""
    from nilalg3.catalogue import AlgebraId, adelta, structure_of
    from nilalg3.structspace import act
    ids = [AlgebraId("c1"), AlgebraId("c3"), AlgebraId("l1"), AlgebraId("c5"),
           adelta(field, pick())]
    return [act(structure_of(ids[n % len(ids)], field), _shear(field, pick, rng))
            for n in range(count)]


def _curve(rff, rng):
    """A polynomial curve like the library's, with random unit constants."""
    from nilalg3.structspace import Matrix3
    t = rff.gen()
    nonzero = [x for x in rff.field.elements() if not x.is_zero()] \
        if rff.field.is_finite() else [rff.field.from_int(n) for n in (1, 2, 3, -1, -2)]
    c = [rff.const(rng.choice(nonzero)) for _ in range(4)]
    return Matrix3.from_rows(rff, [[0, 0, c[0] * t], [c[1] * t * t, 0, c[2]],
                                   [0, c[3] * t * t, 0]])


def run_micro(seed: int) -> dict:
    """name -> (value, unit) for every micro-timing."""
    from nilalg3.algprops import invariant_profile
    from nilalg3.catalogue import AlgebraId, identify, structure_of
    from nilalg3.degeneration import CurveWitness, verify_witness
    from nilalg3.fields import RATIONALS
    from nilalg3.linalg import row_reduce
    from nilalg3.polyring import PolyRing, RationalFunctionField
    from nilalg3.structspace import Matrix3, act

    rng = random.Random(f"{seed}-micro")
    out = {}
    fields = _fields(rng)
    for kind, (_, pick) in fields.items():
        pairs = [(pick(), pick()) for _ in range(16)]
        out[f"fields.mul_ns.{kind}"] = (
            1e9 * _time_per_call(lambda a, b: a * b, pairs), "ns")
        out[f"fields.inv_ns.{kind}"] = (
            1e9 * _time_per_call(lambda a, b: a.inverse(), pairs), "ns")

    def rf_inputs(field, pick):
        rff = RationalFunctionField(field, "t")
        t = rff.ring.var("t")
        inputs = []
        for _ in range(8):
            common = t + rff.ring.const(pick())
            num = (t * t + rff.ring.const(pick()) * t + rff.ring.const(pick())) * common
            den = (t * t * t + rff.ring.const(pick())) * common
            inputs.append((rff, num, den))
        return inputs

    for label, kind in (("Qt", "Q"), ("gf16t", "gf16")):
        field, pick = fields[kind]
        out[f"polyring.rf_make_us.{label}"] = (
            1e6 * _time_per_call(lambda rff, n, d: rff.element(n, d),
                                 rf_inputs(field, pick)), "us")

    ring = PolyRing(RATIONALS, ("xi", "g11", "g12", "g13", "g21", "g22", "g23",
                                "g31", "g32", "g33"))
    gens = ring.gens()

    def rand_poly():
        total = ring.zero()
        for _ in range(5):
            total = total + rng.choice(gens) * rng.choice(gens) * rng.randint(1, 9)
        return total

    out["polyring.multipoly_mul_us.Q"] = (
        1e6 * _time_per_call(lambda a, b: a * b,
                             [(rand_poly(), rand_poly()) for _ in range(8)]), "us")

    for label in ("gf7", "gf16"):
        field, pick = fields[label]
        vecs = _moved_classes(field, pick, rng)
        inputs = [(v, _rand_matrix(field, pick)) for v in vecs]
        out[f"structspace.act_us.{label}"] = (1e6 * _time_per_call(act, inputs), "us")
    qt = RationalFunctionField(RATIONALS, "t")
    c5 = structure_of(AlgebraId("c5"), RATIONALS).lift(qt)
    out["structspace.act_us.Qt"] = (
        1e6 * _time_per_call(act, [(c5, _curve(qt, rng)) for _ in range(6)]), "us")
    g16t = RationalFunctionField(fields["gf16"][0], "t")
    out["structspace.inverse_us.gf16t"] = (
        1e6 * _time_per_call(Matrix3.inverse, [(_curve(g16t, rng),) for _ in range(6)]),
        "us")

    for label in ("gf7", "gf16"):
        field, pick = fields[label]
        # rank-deficient 12 x 9 systems, the shape of the derivation equations
        inputs = []
        for _ in range(6):
            base = [[pick() for _ in range(9)] for _ in range(6)]
            rows = base + [[a + b for a, b in zip(base[i], base[i + 1])] for i in range(5)]
            rows.append([field.zero()] * 9)
            rng.shuffle(rows)
            inputs.append((rows,))
        out[f"linalg.row_reduce_us.{label}"] = (1e6 * _time_per_call(row_reduce, inputs), "us")

    for label in ("gf4", "gf16"):
        field, pick = fields[label]
        vecs = [(v,) for v in _moved_classes(field, pick, rng)]
        out[f"algprops.invariant_profile_ms.{label}"] = (
            1e3 * _time_per_call(invariant_profile, vecs), "ms")
    for label in ("gf7", "gf16"):
        field, pick = fields[label]
        vecs = [(v,) for v in _moved_classes(field, pick, rng)]
        out[f"catalogue.identify_ms.{label}"] = (1e3 * _time_per_call(identify, vecs), "ms")

    for label in ("Q", "gf16"):
        rff = RationalFunctionField(fields[label][0], "t")
        t = rff.gen()
        cube = Matrix3.from_rows(rff, [[0, 0, t], [t * t, 0, 0], [0, t * t, 0]])
        witness = CurveWitness(AlgebraId("c5"), AlgebraId("c1"), cube)
        out[f"degeneration.verify_witness_ms.{label}"] = (
            1e3 * _time_per_call(verify_witness, [(witness,)]), "ms")
    return out
