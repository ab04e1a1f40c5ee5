"""Solvers and diagnostics for bilinear convex-concave saddle point problems.

The toolkit covers the primal-dual gradient method and its variance-reduced
stochastic variant for problems min_x max_y f(x) + y^T A x - g(y), together
with the step-size schedules and potential functions that certify their
linear convergence, a library of concrete problem families, and a CLI
harness for reproducible experiments.
"""

from .problems import (
    ConvergenceError,
    GradientCheckReport,
    Iterate,
    SaddleProblem,
    SmoothnessParams,
    check_gradients,
    conj_grad,
    grad_L,
    grad_primal,
    primal_value,
)
from .theory import (
    PdgSchedule,
    ScSchedule,
    ghost_step,
    iteration_budget,
    pdg_schedule,
    potential_P,
    potential_Q,
    potential_R,
    sc_schedule,
)
from .solvers import (
    DivergenceError,
    StoppingRule,
    Trace,
    pdg_step,
    reference_solution,
    run_pdg,
    run_primal_gd,
)
from .svrg import (
    DenseSum,
    RowSum,
    SvrgConfig,
    component_grad,
    full_grad,
    run_pdsvrg,
    run_primal_svrg,
    vr_grad,
)
from . import instances

__version__ = "0.1.0"
