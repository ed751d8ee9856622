"""Exact computer-algebra kernel: rationals, polynomials, differential
operators, Gaussian-weighted functions, Poisson brackets, identity testing."""

from .poly import MultiPoly, RationalFn, VariableMismatch, ratio_str
from .gaussian import GaussFn
from .diffop import DiffOp
from .phase import (CANONICAL_PAIRS, MOM_VARS, PHASE_VARS, RHO_VARS,
                    phase_var, poisson_bracket)
from .idtest import (SingularSampleError, identity_test, random_point,
                     random_rational)

__all__ = [
    "MultiPoly", "RationalFn", "VariableMismatch", "ratio_str",
    "GaussFn", "DiffOp",
    "CANONICAL_PAIRS", "MOM_VARS", "PHASE_VARS", "RHO_VARS",
    "phase_var", "poisson_bracket",
    "SingularSampleError", "identity_test", "random_point", "random_rational",
]
