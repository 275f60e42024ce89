"""Outer (dual) billiard laboratory.

Convex curves with evaluable radial data, the outer billiard map and its
generating-function calculus in symplectic polar coordinates, discrete
Jacobi-field machinery with conjugate-point detection, and the
integral-geometric rigidity quantities down to the Blaschke-Santalo product.
"""

__version__ = "0.1.0"

from .curves import (CHI_MIN_DEFAULT, ConvexCurve, CurveValidation, PlanePoint,
                     area_centroid, circle, curve_from_dict, curve_to_dict, ellipse,
                     fourier, load_curve, radial_about, radius_about, require_valid,
                     validate)
from .dynamics import (PhasePoint, TangencyResult, differential_fd, inverse_step,
                       orbit, phase_point, step, tangency, write_orbit_csv)
from .errors import (ConvergenceError, InsideCurveError, InvalidCurveError,
                     NotInteriorError, TangencyError)
from .generating import chain_rule_s1_s2, forward_map_batch, s_derivatives, twist_scan
from .jacobi import (ConjugateScanResult, JacobiState, OmegaSample, OrbitWindow,
                     build_window, conjugate_grid_scan, hopf_omega, propagate_jacobi,
                     radial_conjugate_scan)
from .rigidity import (DualAreaResult, INumericResult, RigidityReport, area_and_dual,
                       dual_area_about, i_closed, i_numeric, q_integral, rigidity_report,
                       santalo_point, total_curvature)
from .verify import VerificationResult, run_verification
