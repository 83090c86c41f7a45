"""Exact calculus for oscillator-valued layer operators on a triangular grid.

The package computes vacuum expectation values of layer operators of a
three-dimensional vertex model as exact multivariate Laurent polynomials and
verifies the algebraic identities they satisfy (exchange relations, the
tetrahedron equation, and a correspondence with Schur polynomials) against
independent symmetric-function oracles.

The identity battery (`trivertex.verify`, with the oracles of
`trivertex.symfunc` and the local algebra's verifiers in `trivertex.lattice`)
loads on first use: `import trivertex` compiles only the engine (`network`,
with the operators and tensors of `fock` and the polynomials of `poly`), and
`CheckReport` and `run_battery` import the battery when first looked up.
"""

from .network import (
    Convention,
    InvalidLabels,
    count_configurations,
    enumerate_configurations,
    inhomogeneous_spec,
    resolve_convention,
    scalar_spec,
    vev,
)
from .poly import (
    DivisionByZero,
    InexactDivision,
    LaurentPoly,
    NegativeExponentSubstitution,
    Var,
    parse_var_name,
)

__all__ = [
    "CheckReport",
    "Convention",
    "DivisionByZero",
    "InexactDivision",
    "InvalidLabels",
    "LaurentPoly",
    "NegativeExponentSubstitution",
    "Var",
    "count_configurations",
    "enumerate_configurations",
    "inhomogeneous_spec",
    "parse_var_name",
    "resolve_convention",
    "run_battery",
    "scalar_spec",
    "vev",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("CheckReport", "run_battery"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
