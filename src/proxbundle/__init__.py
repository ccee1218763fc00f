"""Proximal points of convex functions from exact values and inexact
subgradients, via a tilt-corrected proximal bundle method.

Main entry points:

- :func:`run` with a :class:`SolverConfig` drives the algorithm against any
  oracle ``x -> OracleResponse``.
- :func:`generate_max_quad` builds certified max-of-quadratics test problems
  with a known proximal point.
- :mod:`proxbundle.bench` reproduces the benchmark protocol at desk scale.
"""

from .model import (AGGREGATE_INDEX, CENTRE_INDEX, Bundle, BundleElement,
                    BundleVariant, ModelEvaluation, TiltReport, eval_model,
                    make_aggregate, select_bundle, tilt_correct)
from .oracles import (OracleResponse, ball_noise_oracle, exact_oracle,
                      make_ball_noise_oracle, make_exact_oracle, make_rng,
                      make_simplex_gradient_oracle, sample_ball,
                      simplex_gradient_oracle, standard_normals)
from .problems import (MaxQuadProblem, ProblemCertificateError, Quadratic,
                       check_problem, generate_max_quad,
                       load_problem, reference_prox, save_problem)
from .qp import QPConvergenceError, dist_to_hull, minimize_simplex_qp, prox_of_model
from .solver import (IterationRecord, SolveResult, SolverConfig, StopReason,
                     default_iteration_cap, error_bound, run, stopping_test)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_INDEX",
    "CENTRE_INDEX",
    "Bundle",
    "BundleElement",
    "BundleVariant",
    "ModelEvaluation",
    "TiltReport",
    "eval_model",
    "make_aggregate",
    "select_bundle",
    "tilt_correct",
    "OracleResponse",
    "ball_noise_oracle",
    "exact_oracle",
    "make_ball_noise_oracle",
    "make_exact_oracle",
    "make_rng",
    "make_simplex_gradient_oracle",
    "sample_ball",
    "simplex_gradient_oracle",
    "standard_normals",
    "MaxQuadProblem",
    "ProblemCertificateError",
    "Quadratic",
    "check_problem",
    "generate_max_quad",
    "load_problem",
    "reference_prox",
    "save_problem",
    "QPConvergenceError",
    "dist_to_hull",
    "minimize_simplex_qp",
    "prox_of_model",
    "IterationRecord",
    "SolveResult",
    "SolverConfig",
    "StopReason",
    "default_iteration_cap",
    "error_bound",
    "run",
    "stopping_test",
    "__version__",
]
