"""Outer (dual) billiard laboratory.

Convex curves with evaluable radial data, the outer billiard map and its
generating-function calculus in symplectic polar coordinates, discrete
Jacobi-field machinery with conjugate-point detection, and the
integral-geometric rigidity quantities down to the Blaschke-Santalo product.
"""

__version__ = "0.1.0"

from .curves import (CHI_MIN_DEFAULT, ConvexCurve, CurveSample, CurveValidation,
                     PlanePoint, area_centroid, circle, curve_from_dict, curve_to_dict,
                     ellipse, evaluate, fourier, load_curve, radial_about, radius_about,
                     require_valid, validate)
from .dynamics import (PhasePoint, TangencyResult, differential_fd, inverse_step,
                       orbit, phase_point, phase_point_polar, step, tangency,
                       write_orbit_csv)
from .errors import (ConvergenceError, InsideCurveError, InvalidCurveError,
                     NotInteriorError, TangencyError)
from .generating import (angles_to_chord, chain_rule_s1_s2, chord_to_angles,
                         forward_map_batch, s_derivatives, twist_scan)
from .jacobi import (ConjugateScanResult, JacobiState, MinimalityVerdict,
                     OmegaSample, OrbitWindow, build_window, conjugate_grid_scan,
                     hessian_minimality, hopf_omega, propagate_jacobi,
                     radial_conjugate_scan)
from .rigidity import (DualAreaResult, INumericResult, IntegrandSample,
                       RigidityReport, area_and_dual, dual_area_about, i_closed,
                       i_numeric, integrand, q_integral, rigidity_report,
                       santalo_point, total_curvature)
from .verify import VerificationResult, run_verification
