import json
from pathlib import Path

import pytest

import outerbilliard as ob
from outerbilliard import cli, dynamics, verify

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("name", ["unit_circle", "ellipse21", "wobbly3", "fourier8"])
def test_verify_report_matches_its_golden(request, tmp_path, name):
    # the goldens pin every check's value; a change that moves one edits its golden
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps(ob.curve_to_dict(request.getfixturevalue(name))))
    out = tmp_path / "verify.json"
    cli.main(["--curve", str(spec), "--cmd", "verify", "--out", str(out)])
    golden = (GOLDEN / f"verify_{name}.json").read_bytes()
    if out.read_bytes() != golden:
        old = {c["name"]: c for c in json.loads(golden)["checks"]}
        new = {c["name"]: c for c in json.loads(out.read_bytes())["checks"]}
        moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        pytest.fail(f"verify on {name} no longer matches its golden; checks that moved: {moved}")


def test_both_checks_of_a_pair_record_why_they_raised(monkeypatch, unit_circle):
    def broken(*args):
        raise RuntimeError("oracle unavailable")

    monkeypatch.setattr(verify, "_jacobian_fd_error", broken)
    monkeypatch.setattr(verify, "_map_consistency_error", broken)
    checks = {c.name: c for c in verify.run_verification(unit_circle).checks}
    for name in ("jacobian_fd_consistency", "measure_density_consistency",
                 "map_consistency_p", "map_consistency_phi"):
        assert checks[name].error == "RuntimeError: oracle unavailable", name
        assert not checks[name].passed


def test_verify_steps_each_sample_point_once(monkeypatch, unit_circle, ellipse21):
    # one step per sample point (100), which gives the shared images that
    # the midpoint check reads; symplecticity 400 (four stencil images per point,
    # the image itself shared), inverse 50, dp_form 11; the ellipse adds 300
    # foliation steps
    calls = []
    root = dynamics._tangency_root

    def counted(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(dynamics, "_tangency_root", counted)
    for curve, expected in ((unit_circle, 561), (ellipse21, 861)):
        calls.clear()
        verify.run_verification(curve)
        assert len(calls) == expected


@pytest.mark.parametrize("name", ["unit_circle", "ellipse21", "wobbly3", "fourier8"])
def test_midpoint_check_fails_on_images_reflected_off_the_tangency(monkeypatch, request, name):
    # a defect the check must see: each image reflected about gamma(psi + 1e-6)
    # instead of the tangency point gamma(psi); the midpoint is then still on
    # the curve, but A - midpoint is no longer tangent there
    curve = request.getfixturevalue(name)

    def skewed_step(curve, a, orientation=dynamics.CCW):
        gx, gy = curve.point(dynamics.tangency(curve, a, orientation).phi_m + 1e-6)
        return dynamics.phase_point(curve, 2.0 * float(gx) - a.x, 2.0 * float(gy) - a.y)

    monkeypatch.setattr(dynamics, "step", skewed_step)
    check = {c.name: c for c in verify.run_verification(curve).checks}["midpoint_property"]
    assert not check.passed and check.error is None
    assert 1e-7 < check.value < 1e-4
