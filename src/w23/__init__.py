"""Exact mod-2 computations in W_n, the subalgebra of H*(G~(n,3); Z/2)
generated by the Stiefel-Whitney classes w2 and w3.

The package models W_n as Z/2[w2,w3]/I_n, builds Groebner bases of I_n
(closed form for n >= 7, Buchberger from the defining generators for
cross-checking), reduces to normal form against the additive basis,
computes heights and the zero-divisor cup-length zcl(W_n), and layers the
sandwich bounds for zcl(G~(n,3)) and the topological-complexity lower
bounds on top.  Everything is over GF(2) and exact; `w23 verify all`
re-derives every headline value two independent ways.
"""

from .bounds import (
    BoundsRow,
    TcBand,
    bounds_row,
    exactness_established,
    exceptional_degrees,
    height_z_w2,
    tc_table_rows,
)
from .groebner import (
    GroebnerBasis,
    basis_for,
    buchberger,
    closed_form_basis,
    ideal_member,
    normal_form,
    reduce_basis,
    w3_ideal_member,
)
from .gseries import g_explicit, g_recurrence
from .poly import ONE, W2, W3, ZERO, Poly, lucas_binom_mod2, poly_text
from .quotient import (
    Heights,
    QuotientRing,
    brute_heights,
    build_quotient,
    class_nonzero,
    heights_closed_form,
    nf_monomial,
)
from .zcl import (
    SMALL_N_ZCL,
    GradedPiece,
    TensorElement,
    ZclResult,
    graded_piece,
    z,
    zcl_closed_form,
    zcl_search,
    zcl_wn,
    zero_divisor_product_nonzero,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsRow",
    "GradedPiece",
    "GroebnerBasis",
    "Heights",
    "ONE",
    "Poly",
    "QuotientRing",
    "SMALL_N_ZCL",
    "TcBand",
    "TensorElement",
    "W2",
    "W3",
    "ZERO",
    "ZclResult",
    "basis_for",
    "bounds_row",
    "brute_heights",
    "buchberger",
    "build_quotient",
    "class_nonzero",
    "closed_form_basis",
    "exactness_established",
    "exceptional_degrees",
    "g_explicit",
    "g_recurrence",
    "graded_piece",
    "height_z_w2",
    "heights_closed_form",
    "ideal_member",
    "lucas_binom_mod2",
    "nf_monomial",
    "normal_form",
    "poly_text",
    "reduce_basis",
    "tc_table_rows",
    "w3_ideal_member",
    "z",
    "zcl_closed_form",
    "zcl_search",
    "zcl_wn",
    "zero_divisor_product_nonzero",
]
