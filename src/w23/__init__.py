"""Exact mod-2 computations in W_n, the subalgebra of H*(G~(n,3); Z/2)
generated by the Stiefel-Whitney classes w2 and w3.

The package models W_n as Z/2[w2,w3]/I_n, builds Groebner bases of I_n
(closed form for every n >= 2, Buchberger from the defining generators for
cross-checking), reduces to normal form against the additive basis,
computes heights and the zero-divisor cup-length zcl(W_n), and layers the
sandwich bounds for zcl(G~(n,3)) and the topological-complexity lower
bounds on top.  Everything is over GF(2) and exact; `w23 verify all`
re-derives every headline value two independent ways.

The public names are listed once, in _EXPORTS, under the module that
defines them, and each is loaded on first access (PEP 562): `import w23`
loads no submodule, and `w23.zcl_search` loads only what w23.zcl imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = (
    ("bounds", ("BoundsRow", "TcBand", "bounds_row", "exactness_established",
                "exceptional_degrees", "height_z_w2", "tc_table_rows")),
    ("groebner", ("GroebnerBasis", "basis_for", "buchberger", "normal_form",
                  "reduce_basis")),
    ("gseries", ("g_recurrence",)),
    ("poly", ("ONE", "W2", "W3", "ZERO", "Poly", "lucas_binom_mod2", "poly_text")),
    ("quotient", ("Heights", "QuotientRing", "brute_heights", "build_quotient",
                  "class_nonzero", "heights_closed_form", "nf_monomial")),
    ("verify", ("GradedPiece", "TensorElement", "g_explicit", "graded_piece",
                "ideal_member", "w3_ideal_member", "z")),
    ("zcl", ("SMALL_N_ZCL", "ZclResult", "zcl_closed_form", "zcl_search", "zcl_wn",
             "zero_divisor_product_nonzero")),
)

__all__ = sorted(name for _, names in _EXPORTS for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS:
        if name in names:
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value  # later reads skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
