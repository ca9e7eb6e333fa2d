"""Self-dual polar factorization of sampled vector fields.

Factor u(x) = grad1 H(S(x), x) at grid scale: S a measure preserving
involution of equal-measure cells, H an anti-symmetric convex-concave
Hamiltonian obtained by restricted conjugation of an optimal kernel.
"""

from .conjugacy import (
    RegularHamiltonian,
    grad1,
    grad2,
    regularize,
    residual_gradients,
)
from .domain import (
    AntiSymmetricKernel,
    DiscreteDomain,
    DualPointSet,
    Involution,
    SampledField,
    build_dual_points,
    build_grid,
    interval_grid,
    make_kernel,
    pairing,
    sample_field,
    symmetric_square_grid,
)
from .dual_solver import (
    DualSolution,
    assignment_relaxation,
    dual_objective,
    solve_brute,
    solve_matching,
)
from .factorize import (
    DecompositionReport,
    check_monotone,
    check_uniqueness,
    decompose,
    second_identity_check,
    selfdual_test,
)
from .primal_solver import (
    optimal_kernel,
    primal_converged,
    weak_duality,
)

__version__ = "0.1.0"
