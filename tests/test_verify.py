import pytest

import outerbilliard as ob
from outerbilliard import verify


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_verification_suite_passes(presets, name):
    result = verify.run_verification(presets[name])
    failed = [c.name for c in result.checks if not c.passed]
    assert result.all_passed, f"failed checks: {failed}"
    names = {c.name for c in result.checks}
    # one check per cross-module invariant family
    assert {"radial_fd_consistency", "total_curvature", "chain_rule_exactness",
            "fd_partial_derivatives", "mixed_partial_symmetry",
            "jacobian_fd_consistency", "measure_density_consistency",
            "chart_roundtrip", "triangle_area_identity", "twist_negative",
            "symplecticity", "midpoint_property", "map_consistency_p",
            "map_consistency_phi", "inverse_roundtrip", "dp_form_consistency",
            "integrand_decomposition", "dual_area_routes",
            "chi_support_identity", "cauchy_schwarz_chain",
            "i_two_routes"} <= names


@pytest.mark.parametrize("a, b, origin", [(5.0, 1.0, (0.0, 0.0)), (3.0, 1.0, (0.5, -0.2))],
                         ids=["ellipse51", "ellipse31_off_centre"])
def test_verification_suite_passes_on_eccentric_ellipses(a, b, origin):
    # the generating-function map starts its chart inversion cold; on these
    # curves that diverged until the chart's phi step was capped
    result = verify.run_verification(ob.require_valid(ob.ellipse(a, b, origin=origin)))
    failed = [(c.name, c.error) for c in result.checks if not c.passed]
    assert result.all_passed, f"failed checks: {failed}"


def test_kind_specific_checks(presets):
    circle_names = {c.name for c in verify.run_verification(presets["circle"]).checks}
    ellipse_names = {c.name for c in verify.run_verification(presets["ellipse"]).checks}
    assert "circle_rotation_law" in circle_names
    assert "ellipse_foliation" in ellipse_names


def test_result_serialization(presets):
    result = verify.run_verification(presets["circle"])
    doc = result.to_dict()
    assert doc["all_passed"] is True
    assert all(set(c) == {"name", "passed", "value", "threshold"}
               for c in doc["checks"])
