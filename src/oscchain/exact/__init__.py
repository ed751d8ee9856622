"""Exact computer-algebra kernel: rationals, polynomials, differential
operators, Gaussian-weighted functions, Poisson brackets and random
rational sample points."""

from .poly import (MultiPoly, RationalFn, VariableMismatch, power_table,
                   ratio_str, table_sum)
from .gaussian import GaussFn
from .diffop import DiffOp
from .phase import (CANONICAL_PAIRS, MOM_VARS, PHASE_VARS, RHO_VARS,
                    phase_var, poisson_bracket)
from .idtest import SingularSampleError, random_point, random_rational

__all__ = [
    "MultiPoly", "RationalFn", "VariableMismatch", "power_table",
    "ratio_str", "table_sum",
    "GaussFn", "DiffOp",
    "CANONICAL_PAIRS", "MOM_VARS", "PHASE_VARS", "RHO_VARS",
    "phase_var", "poisson_bracket",
    "SingularSampleError", "random_point", "random_rational",
]
