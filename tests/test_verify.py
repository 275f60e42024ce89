import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import cli, curves, dynamics, generating, jacobi, rigidity, verify

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


# the finite-difference and grid checks that still fail on the 10:1 ellipse:
# their truncation error grows with the curve's higher derivatives; on the
# 20:1 ellipse the radial stencil fails too
FD_FAILURES_101 = {"total_curvature", "fd_partial_derivatives", "mixed_partial_symmetry",
                   "measure_density_consistency", "symplecticity"}
FD_FAILURES_201 = FD_FAILURES_101 | {"radial_fd_consistency"}


@pytest.mark.parametrize("a, b, origin, known", [(5.0, 1.0, (0.0, 0.0), set()),
                                                 (3.0, 1.0, (0.5, -0.2), set()),
                                                 (10.0, 1.0, (0.0, 0.0), FD_FAILURES_101),
                                                 (20.0, 1.0, (0.0, 0.0), FD_FAILURES_201)],
                         ids=["ellipse51", "ellipse31_off_centre", "ellipse101", "ellipse201"])
def test_verification_suite_passes_on_eccentric_ellipses(a, b, origin, known):
    # every check passes on the 5:1 and the off-centre 3:1 ellipse; on the
    # 10:1 and 20:1 ellipses the map checks and the chart round trip pass, and
    # only the finite-difference and grid checks in ``known`` may fail
    result = verify.run_verification(ob.require_valid(ob.ellipse(a, b, origin=origin)))
    checks = {c.name: c for c in result.checks}
    assert checks["map_consistency_p"].passed and checks["map_consistency_phi"].passed
    failed = [(c.name, c.error) for c in result.checks if not c.passed and c.name not in known]
    assert not failed, f"failed checks: {failed}"


def test_kind_specific_checks(presets):
    circle_names = {c.name for c in verify.run_verification(presets["circle"]).checks}
    ellipse_names = {c.name for c in verify.run_verification(presets["ellipse"]).checks}
    assert "circle_rotation_law" in circle_names
    assert "ellipse_foliation" in ellipse_names


def test_result_serialization(tmp_path, presets):
    # the CLI shapes the report from the check results
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps(ob.curve_to_dict(presets["circle"])))
    out = tmp_path / "verify.json"
    assert cli.main(["--curve", str(spec), "--cmd", "verify", "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
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


def test_map_checks_record_the_scalar_step_error_of_the_sample_points(monkeypatch, fourier8):
    # with two evaluations allowed the sample points' lane steps fail; every
    # check on their images records the error that stepping the points one at
    # a time gives.  The points are drawn as verify draws them: the 2 N chords'
    # angles and parameters, then the points' angles and gaps
    monkeypatch.setattr(dynamics, "TANGENCY_MAX_EVALS", 2)
    rng = np.random.default_rng(verify.RNG_SEED)
    rng.uniform(0.0, 2.0 * np.pi, 2 * verify.N_SAMPLE)
    rng.uniform(0.05, 3.0, 2 * verify.N_SAMPLE)
    phi = rng.uniform(0.0, 2.0 * np.pi, verify.N_SAMPLE)
    rho = fourier8.radius(phi)[0] * (1.0 + rng.uniform(*verify.EXTERIOR_GAP, verify.N_SAMPLE))
    x0, y0 = fourier8.origin
    want = None
    for u, v in zip((x0 + rho * np.cos(phi)).tolist(), (y0 + rho * np.sin(phi)).tolist()):
        try:
            ob.step(fourier8, ob.phase_point(fourier8, u, v))
        except Exception as exc:
            want = f"{type(exc).__name__}: {exc}"
            break
    assert want is not None and "did not converge" in want
    checks = {c.name: c for c in verify.run_verification(fourier8).checks}
    for name in ("midpoint_property", "symplecticity", "inverse_roundtrip"):
        assert checks[name].error == want, name


def test_verify_steps_each_sample_point_once(monkeypatch, unit_circle, ellipse21):
    # one step per sample point (100), which gives the shared images that
    # the midpoint check reads; symplecticity 400 (four stencil images per point,
    # the image itself shared), inverse 50, dp_form 11; the ellipse adds 300
    # foliation steps.  The sample points' steps run as lanes, one call each
    # for the images, the stencils and the inverses; the orbits stay scalar
    calls, lanes = [], []
    root, root_lanes = dynamics._tangency_root, dynamics._tangency_root_lanes

    def counted(*args):
        calls.append(args)
        return root(*args)

    def counted_lanes(curve, ax, *args):
        lanes.append(len(ax))
        return root_lanes(curve, ax, *args)

    monkeypatch.setattr(dynamics, "_tangency_root", counted)
    monkeypatch.setattr(dynamics, "_tangency_root_lanes", counted_lanes)
    for curve, expected in ((unit_circle, 561), (ellipse21, 861)):
        calls.clear()
        lanes.clear()
        verify.run_verification(curve)
        assert lanes == [100, 400, 50]
        assert len(calls) + sum(lanes) == expected


def test_verify_evaluates_each_shared_chord_sample_once(monkeypatch, unit_circle, wobbly3,
                                                        ellipse21):
    # the 200 sample chords get one radial call, which gives their closed forms
    # and angles; one stencil of nine chart inversions, run as 900 lanes of one
    # inversion, serves every S-derivative check, with one radial call per
    # iteration of the ray solve (2 on the circle and 3 on the others: a lane
    # starts exactly at the centre and to first order in the stencil step at the
    # eight other points) and one for the stencil's closed forms; the chart
    # round trip adds one inversion (2, 6 and 9 calls), and the forward map
    # inverts none.  The sample points' lane steps add one radial call per
    # exterior check (the points, their images, the stencil points and their
    # images, the inverse images: 5) and one per iteration of the three lane
    # solves (15, 23 and 29)
    counts = {}

    def counted(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted("radius", ob.ConvexCurve.radius))
    monkeypatch.setattr(generating, "_chord_from_angles_arrays",
                        counted("chart", generating._chord_from_angles_arrays))
    for curve, expected in ((unit_circle, (41, 2)), (wobbly3, (59, 2)),
                            (ellipse21, (69, 2))):
        # a fresh copy, as the CLI loads: its lazy diameter is one of the calls
        curve = ob.curve_from_dict(ob.curve_to_dict(curve))
        counts.update(radius=0, chart=0)
        verify.run_verification(curve)
        assert (counts["radius"], counts["chart"]) == expected


@pytest.mark.parametrize("name", ["unit_circle", "ellipse21", "wobbly3", "fourier8"])
def test_midpoint_check_fails_on_images_reflected_off_the_tangency(monkeypatch, request, name):
    # a defect the check must see: each image reflected about gamma(psi + 1e-6)
    # instead of the tangency point gamma(psi); the midpoint is then still on
    # the curve, but A - midpoint is no longer tangent there
    curve = request.getfixturevalue(name)

    def skewed_step(curve, a, direction):
        psi, _, _ = dynamics._tangency_root_lanes(
            curve, a.x - curve.origin[0], a.y - curve.origin[1], direction, a.exterior)
        gx, gy = curve.point(psi + 1e-6)
        return dynamics.phase_lanes(curve, 2.0 * gx - a.x, 2.0 * gy - a.y)

    monkeypatch.setattr(dynamics, "step_lanes", skewed_step)
    check = {c.name: c for c in verify.run_verification(curve).checks}["midpoint_property"]
    assert not check.passed and check.error is None
    assert 1e-7 < check.value < 1e-4


def _on_result(change):
    """A defect that changes what the patched function returns."""
    def wrap(f):
        return lambda *args, **kwargs: change(f(*args, **kwargs))
    return wrap


def _turned_backward_tangency(tangency_root_lanes):
    # the mirrored branch, behind inverse_step, reflects about gamma(psi + 1e-8)
    def defect(curve, ax, ay, direction, exterior):
        psi, gx, gy = tangency_root_lanes(curve, ax, ay, direction, exterior)
        if direction < 0:
            psi = psi + 1e-8
            r = curve.radius(psi)[0]
            gx, gy = r * np.cos(psi), r * np.sin(psi)
        return psi, gx, gy
    return defect


def _image_x_stretched(step):
    # each image moved off its homothetic ellipse by a relative 1e-8 in x
    def defect(curve, a, orientation=dynamics.CCW):
        q = step(curve, a, orientation)
        return dynamics.phase_point(curve, q.x * (1.0 + 1e-8), q.y)
    return defect


def _images_x_stretched(step_lanes):
    # the lane twin of _image_x_stretched, for the checks on the sample points
    def defect(curve, a, direction):
        q = step_lanes(curve, a, direction)
        return dynamics.phase_lanes(curve, q.x * (1.0 + 1e-8), q.y)
    return defect


# (owner, attr, make_defect, check name, curve fixture): one stated defect per check
DEFECTS = [
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, S=d["S"] * (1.0 + 1e-9))),
     "triangle_area_identity", "wobbly3"),
    (generating, "_chord_from_angles_arrays",
     _on_result(lambda chord: (chord[0], chord[1] * (1.0 + 1e-8))), "chart_roundtrip",
     "wobbly3"),
    (rigidity, "dual_support", _on_result(lambda h: (h[0], h[1] * (1.0 + 1e-6), h[2])),
     "dual_area_routes", "wobbly3"),
    (rigidity, "dual_support", _on_result(lambda h: (h[0], h[1], h[2] * (1.0 + 1e-8))),
     "chi_support_identity", "wobbly3"),
    (dynamics, "_tangency_root_lanes", _turned_backward_tangency, "inverse_roundtrip",
     "wobbly3"),
    (jacobi, "_jacobi_next", _on_result(lambda dq: dq * (1.0 + 1e-6)), "dp_form_consistency",
     "wobbly3"),
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, S1=d["S1"] * (1.0 + 1e-10))),
     "chain_rule_exactness", "wobbly3"),
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, S11=d["S11"] * (1.0 + 1e-4))),
     "fd_partial_derivatives", "wobbly3"),
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, S12=d["S12"] * (1.0 + 1e-4))),
     "mixed_partial_symmetry", "wobbly3"),
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, J=d["J"] * (1.0 + 1e-5))),
     "jacobian_fd_consistency", "wobbly3"),
    (generating, "s_closed_forms", _on_result(lambda d: dict(d, J=d["J"] * (1.0 + 1e-4))),
     "measure_density_consistency", "wobbly3"),
    (dynamics, "step", _image_x_stretched, "ellipse_foliation", "ellipse21"),
    # on a non-ellipse the Cauchy-Schwarz gap is far below the threshold, so
    # only the ellipse's equality case can show a small Q defect
    (rigidity, "q_integral", _on_result(lambda q: q * (1.0 + 1e-8)), "cauchy_schwarz_chain",
     "ellipse21"),
    # the map's finite-difference differential with its dp1/dp0 entry 1e-5 too large
    (dynamics, "differential_fd_lanes", _on_result(lambda m: m * np.array([[1.0 + 1e-5, 1.0],
                                                                           [1.0, 1.0]])),
     "symplecticity", "wobbly3"),
    # the generating-function map's p1 too large by a relative 1e-8, its phi1 by 1e-8
    (generating, "forward_map_batch", _on_result(lambda m: (m[0] * (1.0 + 1e-8), m[1])),
     "map_consistency_p", "wobbly3"),
    (generating, "forward_map_batch", _on_result(lambda m: (m[0], m[1] + 1e-8)),
     "map_consistency_phi", "wobbly3"),
    (rigidity, "total_curvature", _on_result(lambda k: k * (1.0 + 1e-10)), "total_curvature",
     "wobbly3"),
    # the f1 term of the integrand's split too large by a relative 1e-8
    (rigidity, "_integrand_arrays",
     _on_result(lambda parts: (parts[0], parts[1] * (1.0 + 1e-8), *parts[2:])),
     "integrand_decomposition", "wobbly3"),
    (dynamics, "step_lanes", _images_x_stretched, "circle_rotation_law", "unit_circle"),
    # r'' too large by a relative 1e-4 wherever the curve's radial data is read
    (curves.ConvexCurve, "radius", _on_result(lambda rad: (rad[0], rad[1], rad[2] * (1.0 + 1e-4))),
     "radial_fd_consistency", "wobbly3"),
    # the numeric route's integrand too large by a relative 1e-10
    (rigidity, "_weighted_total", _on_result(lambda w: w * (1.0 + 1e-10)), "i_two_routes",
     "wobbly3"),
]
DEFECT_IDS = ["S_times_1e-9", "chart_t_times_1e-8", "support_h1_times_1e-6",
        "support_h2_times_1e-8", "backward_psi_plus_1e-8", "jacobi_next_times_1e-6",
        "S1_times_1e-10", "S11_times_1e-4", "S12_times_1e-4", "J_times_1e-5",
        "J_times_1e-4", "image_x_times_1e-8", "q_times_1e-8", "dp1_dp0_times_1e-5",
        "map_p1_times_1e-8", "map_phi1_plus_1e-8", "curvature_times_1e-10",
        "f1_times_1e-8", "circle_image_x_times_1e-8", "rpp_times_1e-4",
        "weighted_total_times_1e-10"]
# checks whose defect case is a test of its own
DEFECTS_ELSEWHERE = {
    "midpoint_property": "test_midpoint_check_fails_on_images_reflected_off_the_tangency",
    "twist_negative": "tests/test_cli.py::test_verify_fault_injection_fails"}


@pytest.mark.parametrize("owner, attr, make_defect, name, curve", DEFECTS, ids=DEFECT_IDS)
def test_check_fails_on_its_defect(monkeypatch, request, owner, attr, make_defect, name, curve):
    # a small stated defect in the code under one check: that check must
    # fail on its value, not on an exception
    curve = request.getfixturevalue(curve)
    monkeypatch.setattr(owner, attr, make_defect(getattr(owner, attr)))
    check = {c.name: c for c in verify.run_verification(curve).checks}[name]
    assert not check.passed and check.error is None
    assert check.value > check.threshold


def test_fd_partials_fail_on_a_nan_closed_form(monkeypatch, wobbly3):
    # S11 NaN on one sample chord: the check reads NaN and fails
    closed_forms = generating.s_closed_forms

    def nan_s11(*args):
        d = closed_forms(*args)
        if np.ndim(d["S11"]):
            d["S11"] = d["S11"].copy()
            d["S11"][3] = np.nan
        return d

    monkeypatch.setattr(generating, "s_closed_forms", nan_s11)
    check = {c.name: c for c in verify.run_verification(wobbly3).checks}[
        "fd_partial_derivatives"]
    assert math.isnan(check.value) and not check.passed


class _NaNRadius:
    """A curve stub whose r'' is NaN, for the radial stencil."""

    def radius(self, phi):
        return np.ones_like(phi), np.zeros_like(phi), np.full_like(phi, np.nan)


def _with_nan(x, k=1):
    x = x.copy()
    x[k] = np.nan
    return x


def test_each_check_reduction_keeps_a_nan(unit_circle):
    # the NaN sits in a term after a finite one, which a reduction by
    # Python's max would drop
    rng = np.random.default_rng(1)
    pts = verify._random_exterior(unit_circle, rng, 4)
    images = dynamics.step_lanes(unit_circle, pts, 1)
    cphi, ct = verify._random_chords(rng, 4)
    a0, a1, _, _ = generating._angles_arrays(unit_circle, cphi, ct)
    ones = np.ones(4)
    d = {"S1": ones, "S11": ones, "S12": ones}
    stencil = {key: {"S1": ones, "S2": ones} for key in ((0, 1), (0, -1), (1, 0), (-1, 0))}
    stencil[(1, 0)] = {"S1": ones, "S2": _with_nan(ones)}
    with np.errstate(invalid="ignore"):
        values = {
            "radial": verify._radial_fd_error(_NaNRadius(), rng),
            "roundtrip": verify._roundtrip_error(unit_circle, cphi, _with_nan(ct), a0, a1),
            # images at the points themselves: A - M is zero, its sine 0 / 0
            "midpoint": verify._midpoint_error(unit_circle, pts, pts),
            "mixed": verify._mixed_partial_error(d, stencil),
            "inverse": verify._inverse_error(
                unit_circle, SimpleNamespace(x=_with_nan(pts.x), y=pts.y), images),
            "circle": verify._circle_law_error(
                unit_circle, pts, SimpleNamespace(p=images.p, phi=_with_nan(images.phi))),
            "fd": verify._fd_partials_error(d, {"S1": ones, "S11": _with_nan(ones)}),
        }
    assert [k for k, v in values.items() if not math.isnan(v)] == []


def test_every_check_has_a_defect_case(presets):
    names = {c.name for curve in presets.values() for c in verify.run_verification(curve).checks}
    cases = [case[3] for case in DEFECTS] + list(DEFECTS_ELSEWHERE)
    assert sorted(cases) == sorted(names)
