"""Exact degeneration toolkit for 3-dimensional nilpotent associative algebras.

Everything is computed over exact scalar domains (the rationals, prime
fields, their quadratic and quartic extensions, and rational function
fields in one variable): degenerations are certified by explicit matrix
curves, non-degenerations by polynomial identities and semicontinuous
invariants, and the two Hasse diagrams (characteristic two and not two)
are rebuilt from those certificates rather than hard-coded.
"""

from .algprops import (InvariantProfile, NotNilpotentError,
                       annihilator_basis, annihilator_dimension,
                       derivation_dimension, in_m_star_star, invariant_profile,
                       is_associative, is_commutative, nilpotency_class,
                       square_basis)
from .catalogue import (AlgebraId, CatalogueError, IsoWitness,
                        UnclassifiableError, a0, a3kappa, adelta,
                        c1, c3, c5, canonicalize, hbeta, identify,
                        identify_with_witness, iso_witness, l1, quarter,
                        structure_of)
from .degeneration import (CurveWitness, DegenerationError, DegenerationFact,
                           Obstruction, OBSTRUCTION_TAGS, SearchResult,
                           check_obstruction, compose_curves, curve_limit,
                           degenerates, known_witness,
                           lift_witness_to_rationals, search_witness,
                           verify_lemma_identities, verify_witness)
from .fields import (Field, FieldElement, FieldError, FiniteField,
                     NeedsFieldExtension, PrimeField, RATIONALS, Rationals, SimpleExtension,
                     extend_with_root, gf4, gf16)
from .hasse import (HasseDiagram, HasseError, NODE_ORDER, build_graph,
                    compare_expected, emit)
from .polyring import (MultiPoly, PolyRing, PoleAtZero, RationalFunction,
                       RationalFunctionField, limit_at_zero, t_valuation)
from .structspace import (Matrix3, StructureVector, act, act_cleared,
                          basis_vector)

__version__ = "0.1.0"

__all__ = [
    "AlgebraId", "CatalogueError", "CurveWitness", "DegenerationError",
    "DegenerationFact", "Field", "FieldElement", "FieldError", "FiniteField",
    "HasseDiagram", "HasseError", "InvariantProfile", "IsoWitness",
    "Matrix3", "MultiPoly", "NODE_ORDER", "NeedsFieldExtension",
    "NotNilpotentError", "OBSTRUCTION_TAGS", "Obstruction", "PoleAtZero",
    "PolyRing", "PrimeField", "RATIONALS", "RationalFunction",
    "RationalFunctionField", "Rationals", "SearchResult", "SimpleExtension",
    "StructureVector", "UnclassifiableError", "a0", "a3kappa", "act",
    "act_cleared", "adelta", "annihilator_basis", "annihilator_dimension",
    "basis_vector", "build_graph", "c1", "c3", "c5", "canonicalize",
    "check_obstruction", "compare_expected", "compose_curves", "curve_limit",
    "degenerates", "derivation_dimension", "emit", "extend_with_root", "gf4",
    "gf16", "hbeta", "identify", "identify_with_witness", "in_m_star_star",
    "invariant_profile", "is_associative", "is_commutative", "iso_witness",
    "known_witness", "l1", "lift_witness_to_rationals", "limit_at_zero",
    "nilpotency_class", "quarter", "search_witness",
    "square_basis", "structure_of", "t_valuation",
    "verify_lemma_identities", "verify_witness",
]
