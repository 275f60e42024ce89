import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics, generating, jacobi
from outerbilliard.quadrature import TWO_PI


@pytest.fixture(scope="module")
def circle_seed(unit_circle):
    # tail of the t=1 chord at phi=0: the point (1, -1), radius sqrt2
    return dynamics.chord_tail_point(unit_circle, 0.0, 1.0)


@pytest.fixture(scope="module")
def conjugate_seed(wobbly3):
    # frozen from the grid scan: this chord's radial field returns at n = 6
    return dynamics.chord_tail_point(wobbly3, 0.0, 1.5)


def test_circle_window_coefficients(unit_circle, circle_seed):
    w = ob.build_window(unit_circle, circle_seed, 3, 3)
    assert len(w) == 7
    assert w.b_coeffs.size == 8
    assert np.abs(w.a_coeffs - 2.0).max() < 1e-12
    assert np.abs(w.b_coeffs + 1.0).max() < 1e-12
    gaps = np.diff(w.angles)
    assert np.abs(gaps - math.pi / 2).max() < 1e-12


def test_window_invariants(presets):
    for curve in presets.values():
        seed = dynamics.chord_tail_point(curve, 0.3, 0.9)
        w = ob.build_window(curve, seed, 5, 8)
        assert (w.b_coeffs < 0).all()
        gaps = np.diff(w.angles)
        assert gaps.min() > 0.0
        assert gaps.max() < math.pi


def test_window_length_one(unit_circle, circle_seed):
    w = ob.build_window(unit_circle, circle_seed, 0, 0)
    assert len(w) == 1
    assert w.b_coeffs.size == 2
    v = ob.hessian_minimality(w)
    assert v.positive_definite == (w.a_coeffs[0] > 0)


def test_propagate_linear_growth(unit_circle, circle_seed):
    w = ob.build_window(unit_circle, circle_seed, 0, 8)
    st = ob.propagate_jacobi(w, 0.0, 1.0)
    assert np.abs(st.dq - np.arange(9)).max() < 1e-9
    assert st.dq_beyond == pytest.approx(9.0, abs=1e-9)
    # dp = S22 dq_n + S12 dq_{n-1} = n - (n-1) = 1 along this field
    assert np.abs(st.dp - 1.0).max() < 1e-9
    assert st.form_residual < 1e-10


def test_propagate_zero_field(unit_circle, circle_seed):
    w = ob.build_window(unit_circle, circle_seed, 2, 4)
    st = ob.propagate_jacobi(w, 0.0, 0.0)
    assert np.abs(st.dq).max() == 0.0
    assert np.abs(st.dp).max() == 0.0


def test_dp_forms_agree(presets):
    for curve in presets.values():
        seed = dynamics.chord_tail_point(curve, 1.1, 0.7)
        w = ob.build_window(curve, seed, 4, 9)
        st = ob.propagate_jacobi(w, 0.37, 1.21)
        assert st.form_residual < 1e-10


def test_jacobi_satisfies_recurrence(ellipse21):
    seed = dynamics.chord_tail_point(ellipse21, 0.5, 1.2)
    w = ob.build_window(ellipse21, seed, 3, 7)
    st = ob.propagate_jacobi(w, 0.2, 0.9)
    a, b = w.a_coeffs, w.b_coeffs
    for i in range(1, len(w) - 1):
        res = b[i] * st.dq[i - 1] + a[i] * st.dq[i] + b[i + 1] * st.dq[i + 1]
        assert abs(res) < 1e-9 * max(1.0, np.abs(st.dq[:len(w)]).max())


def test_hessian_circle_positive_definite(unit_circle, circle_seed):
    for m in (1, 3, 8):
        w = ob.build_window(unit_circle, circle_seed, 0, m - 1)
        v = ob.hessian_minimality(w)
        assert v.positive_definite
        # classical spectrum of tridiag(-1, 2, -1): 2 - 2 cos(k pi/(m+1)) > 0
        mat = np.diag(w.a_coeffs) + np.diag(w.b_coeffs[1:m], 1) + np.diag(w.b_coeffs[1:m], -1)
        eig = np.linalg.eigvalsh(mat)
        expected = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1))
        assert np.abs(np.sort(eig) - np.sort(expected)).max() < 1e-9


def test_hessian_matches_eigenvalues(wobbly3, conjugate_seed):
    for n_fwd in (4, 6, 9):
        w = ob.build_window(wobbly3, conjugate_seed, 2, n_fwd)
        v = ob.hessian_minimality(w)
        m = len(w)
        mat = np.diag(w.a_coeffs) + np.diag(w.b_coeffs[1:m], 1) + np.diag(w.b_coeffs[1:m], -1)
        eig_min = np.linalg.eigvalsh(mat).min()
        assert v.positive_definite == (eig_min > 0)


def test_radial_scan_circle_none(unit_circle, circle_seed):
    assert ob.radial_conjugate_scan(unit_circle, circle_seed, 5000) is None


def test_radial_scan_ellipse_none(ellipse21):
    seed = dynamics.chord_tail_point(ellipse21, 0.7, 1.4)
    assert ob.radial_conjugate_scan(ellipse21, seed, 3000) is None


def test_radial_scan_finds_conjugate(wobbly3, conjugate_seed):
    assert ob.radial_conjugate_scan(wobbly3, conjugate_seed, 3000) == 6


def test_scan_equivalence_with_hessian(wobbly3, conjugate_seed):
    """The conjugate pair (0, 6) sits between window verdicts.

    Windows over nodes 1..N (built from the next orbit point) must be
    positive definite while the pair is outside, indefinite once node 6 is
    included.
    """
    seed1 = ob.step(wobbly3, conjugate_seed)
    w_inside = ob.build_window(wobbly3, seed1, 0, 3)    # nodes 1..4 of the orbit
    w_crossing = ob.build_window(wobbly3, seed1, 0, 5)  # nodes 1..6
    assert ob.hessian_minimality(w_inside).positive_definite
    assert not ob.hessian_minimality(w_crossing).positive_definite


def test_boundary_field_equivalence(presets):
    # PD of nodes M..N <=> the field vanishing at M-1 stays positive through N+1
    rng = np.random.default_rng(71)
    for curve in presets.values():
        for _ in range(4):
            seed = dynamics.chord_tail_point(curve, float(rng.uniform(0, TWO_PI)),
                                             float(rng.uniform(0.5, 2.0)))
            w = ob.build_window(curve, seed, 0, 10)
            st = ob.propagate_jacobi(w, 1.0, -w.a_coeffs[0] / w.b_coeffs[1])
            field_positive = (st.dq > 0).all() and st.dq_beyond > 0
            assert ob.hessian_minimality(w).positive_definite == field_positive


def test_grid_scan_wobbly_finds(wobbly3):
    scan = ob.conjugate_grid_scan(wobbly3, phi_count=8, t_count=8, t_max=3.0, n_max=500)
    assert scan.complete
    found = scan.found
    assert found
    assert min(r.n_conjugate for r in found) >= 2
    row = next(r for r in scan.rows
               if abs(r.seed_phi) < 1e-12 and abs(r.seed_t - 1.5) < 1e-12)
    assert row.n_conjugate == 6


def test_grid_scan_stop_at_first(wobbly3):
    scan = ob.conjugate_grid_scan(wobbly3, phi_count=8, t_count=8, t_max=3.0,
                                  n_max=500, stop_at_first=True)
    assert scan.found


def test_grid_scan_workers_bitwise_identical(wobbly3, monkeypatch):
    # 64-seed chunks, so the 256 seeds run as 4 chunks across processes
    monkeypatch.setattr(jacobi, "SCAN_CHUNK", 64)
    one = ob.conjugate_grid_scan(wobbly3, phi_count=16, t_count=16, t_max=3.0,
                                 n_max=300, workers=1)
    four = ob.conjugate_grid_scan(wobbly3, phi_count=16, t_count=16, t_max=3.0,
                                  n_max=300, workers=4)
    assert [r.n_conjugate for r in one.rows] == [r.n_conjugate for r in four.rows]
    # three processes on four chunks, whole rows
    monkeypatch.setattr(jacobi.os, "cpu_count", lambda: 4)
    three = ob.conjugate_grid_scan(wobbly3, phi_count=16, t_count=16, t_max=3.0,
                                   n_max=300, workers=3)
    assert three.rows == one.rows


def test_grid_scan_rows_do_not_depend_on_chunk_size(wobbly3, monkeypatch):
    # lanes with hits drop out of their batch at different steps for the two
    # chunk sizes; no row may change, and rows agree with the scalar scan
    rows = []
    for chunk in (64, 4096):
        monkeypatch.setattr(jacobi, "SCAN_CHUNK", chunk)
        scan = ob.conjugate_grid_scan(wobbly3, phi_count=16, t_count=16, t_max=3.0,
                                      n_max=300)
        rows.append([(r.seed_phi, r.seed_t, r.n_conjugate) for r in scan.rows])
    assert rows[0] == rows[1]
    hits = [r for r in rows[0] if r[2] is not None]
    assert 0 < len(hits) < len(rows[0])
    for phi, t, n in rows[0][::17]:
        seed = dynamics.chord_tail_point(wobbly3, phi, t)
        assert ob.radial_conjugate_scan(wobbly3, seed, 300) == n


def test_grid_scan_worker_count_is_bounded(wobbly3, monkeypatch):
    seen = []

    class RecordingPool:
        """Stand-in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    # conjugate_grid_scan imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jacobi.os, "cpu_count", lambda: 8)
    per_t = jacobi.SCAN_CHUNK // 16          # phi_count giving one chunk at t_count = 16
    # 2 chunks: never more processes than chunks
    ob.conjugate_grid_scan(wobbly3, phi_count=2 * per_t, t_count=16, n_max=3, workers=1000)
    # 16 chunks: no more processes than cores
    ob.conjugate_grid_scan(wobbly3, phi_count=16 * per_t, t_count=16, n_max=3, workers=1000)
    # one chunk, or an unknown core count: no pool, the chunks run in this process
    ob.conjugate_grid_scan(wobbly3, phi_count=per_t, t_count=16, n_max=3, workers=4)
    monkeypatch.setattr(jacobi.os, "cpu_count", lambda: None)
    ob.conjugate_grid_scan(wobbly3, phi_count=2 * per_t, t_count=16, n_max=3, workers=4)
    assert seen == [2, 8]


def test_grid_scan_chunks_are_capped_in_grid_order(wobbly3, monkeypatch):
    # chunks of SCAN_CHUNK seeds in grid order, the last one shorter; a grid
    # that fits one chunk runs in this process whatever the worker count
    pools, chunks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    scan_batch = jacobi._scan_batch

    def recording_batch(curve, seed_phi, seed_t, *rest):
        chunks.append((seed_phi[0], seed_t[0], seed_phi.size))
        return scan_batch(curve, seed_phi, seed_t, *rest)

    # conjugate_grid_scan imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jacobi, "_scan_batch", recording_batch)
    monkeypatch.setattr(jacobi, "SCAN_CHUNK", 64)
    monkeypatch.setattr(jacobi.os, "cpu_count", lambda: 8)

    def scan(phi_count, workers):
        pools.clear()
        chunks.clear()
        rows = ob.conjugate_grid_scan(wobbly3, phi_count=phi_count, t_count=16,
                                      n_max=3, workers=workers).rows
        starts = [(rows[i].seed_phi, rows[i].seed_t) for i in range(0, len(rows), 64)]
        assert [c[:2] for c in chunks] == starts
        return list(pools), [c[2] for c in chunks]

    assert scan(9, 1) == ([], [64, 64, 16])
    assert scan(9, 2) == ([2], [64, 64, 16])
    assert scan(4, 1000) == ([], [64])
    assert scan(3, 1000) == ([], [48])


def test_scan_batch_memory_per_chunk(wobbly3):
    # one full chunk at the benchmark's 40 steps: its numpy temporaries stay
    # within a few MiB, which is what SCAN_CHUNK bounds
    import tracemalloc

    phis = np.repeat(np.arange(64) * (TWO_PI / 64), 64)
    ts = np.tile(3.0 * np.arange(1, 65) / 64, 64)
    assert phis.size == jacobi.SCAN_CHUNK
    tracemalloc.start()
    try:
        jacobi._scan_batch(wobbly3, phis, ts, 40, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_grid_scan_marks_seeds_below_min_chord_t(unit_circle):
    scan = ob.conjugate_grid_scan(unit_circle, phi_count=8, t_count=64, t_max=5e-5,
                                  n_max=10)
    assert not scan.complete
    short = [r for r in scan.rows if r.seed_t < dynamics.MIN_CHORD_T]
    assert len(short) == 8
    assert scan.unscanned == short
    assert all(r.unscanned == "t below 1.5e-06" and r.n_conjugate is None for r in short)
    # a grid with no seed to step is an error, as a single chord step is
    with pytest.raises(ob.TangencyError):
        ob.conjugate_grid_scan(unit_circle, phi_count=8, t_count=8, t_max=1e-6, n_max=10)


def test_hopf_circle(unit_circle, circle_seed):
    om = ob.hopf_omega(unit_circle, circle_seed)
    assert om.converged and om.minimizing
    # the window value decays like 1/N toward 0
    assert abs(om.omega) < 1e-3
    assert om.bound_low == pytest.approx(-1.0, abs=1e-12)
    assert om.bound_high == pytest.approx(1.0, abs=1e-12)
    assert om.bound_low < om.omega < om.bound_high
    assert om.relation_fwd_residual < 1e-8
    assert om.relation_here_residual < 1e-8


def test_hopf_ellipse_seeds(ellipse21):
    for phi, t in ((0.0, 1.0), (1.2, 0.6)):
        seed = dynamics.chord_tail_point(ellipse21, phi, t)
        om = ob.hopf_omega(ellipse21, seed)
        assert om.converged and om.minimizing
        assert om.bound_low < om.omega < om.bound_high
        assert om.relation_fwd_residual < 1e-8
        assert om.relation_here_residual < 1e-8


def test_hopf_conjugate_seed_reports_failure(wobbly3, conjugate_seed):
    om = ob.hopf_omega(wobbly3, conjugate_seed)
    assert not om.minimizing
    assert not om.converged
    assert om.omega is None
    assert "not locally minimizing" in om.message


def jacobi_push(s11: float, s12: float, s22: float, dp: float, dq: float):
    """Tangent-map update ((dp, dq) at x) -> ((dp, dq) at T x) from the
    generating relations; the oracle counterpart is the finite-difference
    differential of the geometric map."""
    dq1 = (-dp - s11 * dq) / s12
    dp1 = s12 * dq + s22 * dq1
    return dp1, dq1


def test_jacobi_push_matches_differential(presets):
    # the closed-form tangent update must track the finite-difference
    # differential of the geometric map along 100-step orbits
    for curve in presets.values():
        pt = dynamics.chord_tail_point(curve, 0.9, 1.1)
        for _ in range(100):
            phi_m, t = dynamics.chord_of(curve, pt)
            d = generating.s_derivatives(curve, phi_m, t)
            s11, s22, s12 = d["S11"], d["S22"], d["S12"]
            dmat = ob.differential_fd(curve, pt)
            for dp, dq in ((1.0, 0.0), (0.3, 0.7)):
                dp1, dq1 = jacobi_push(s11, s12, s22, dp, dq)
                fd = dmat @ np.array([dp, dq])
                assert abs(fd[0] - dp1) / max(1.0, abs(dp1)) < 1e-5
                assert abs(fd[1] - dq1) / max(1.0, abs(dq1)) < 1e-5
            pt = ob.step(curve, pt)


# -- one radius evaluation per chord, and zero S12 -------------------------------

def test_chord_line_caches_each_chords_data(wobbly3):
    # each chord's closed forms come from its one cached radial evaluation,
    # which also heads the steps from it: chords and data are bitwise those
    # of a chain stepped without heads
    seed = dynamics.chord_tail_point(wobbly3, 0.4, 0.3)
    line = jacobi._ChordLine(wobbly3, seed)
    for k in (3, -2, 5, -5, 0, 1, -1, 4, -4, 2, -3):
        assert line.data(k) == generating.s_derivatives(wobbly3, *line.chord(k))
    for direction in (1, -1):
        chord = dynamics.chord_of(wobbly3, seed)
        for k in range(1, 6):
            chord = dynamics.chord_step_scalar(wobbly3, *chord, direction)
            assert line.chord(direction * k) == chord


def test_scalar_jacobi_paths_head_each_step_with_the_chords_radial_data(monkeypatch, wobbly3,
                                                                        fourier8):
    heads = []
    chord_step = jacobi.chord_step_scalar

    def recording(curve, phi_m, t, direction=1, head=None):
        heads.append((curve, phi_m, head))
        return chord_step(curve, phi_m, t, direction, head=head)

    monkeypatch.setattr(jacobi, "chord_step_scalar", recording)
    for curve in (wobbly3, fourier8):
        seed = dynamics.chord_tail_point(curve, 0.4, 0.3)
        ob.radial_conjugate_scan(curve, seed, 40)
        ob.hopf_omega(curve, seed)
        ob.build_window(curve, seed, 5, 5)
    assert len(heads) > 100
    for curve, phi_m, head in heads:
        assert head == curve.radius_scalar(phi_m)


def test_window_angles_from_one_radius_call_per_chord(monkeypatch, wobbly3):
    # outside the tangency solves radius_scalar runs once per chord, and the
    # angles are the atan2 gaps of that data, summed in the same order
    seed = dynamics.chord_tail_point(wobbly3, 0.4, 0.3)
    calls, solving = [], []
    radius_scalar = ob.ConvexCurve.radius_scalar

    def counted(curve, phi):
        if not solving:
            calls.append(phi)
        return radius_scalar(curve, phi)

    def solver(fn):
        def inside(*args, **kwargs):
            solving.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                solving.pop()
        return inside

    with monkeypatch.context() as m:
        m.setattr(ob.ConvexCurve, "radius_scalar", counted)
        m.setattr(jacobi, "chord_of", solver(jacobi.chord_of))
        m.setattr(jacobi, "chord_step_scalar", solver(jacobi.chord_step_scalar))
        w = ob.build_window(wobbly3, seed, 3, 5)
    assert sorted(calls) == sorted(w.chords_phi.tolist())
    gaps = []
    for phi, t in zip(w.chords_phi.tolist(), w.chords_t.tolist()):
        r, rp, _ = wobbly3.radius_scalar(phi)
        gaps.append(math.atan2(t * r, r - t * rp) + math.atan2(t * r, r + t * rp))
    q = [seed.phi - sum(gaps[:4])]
    for gap in gaps:
        q.append(q[-1] + gap)
    assert np.array_equal(w.angles, q)


def _zero_s12_at(monkeypatch, chord):
    """jacobi.s_closed_forms with S12 = 0 at the chord (phi, t) (matched by t)."""
    s_closed_forms = jacobi.s_closed_forms

    def patched(r, rp, rpp, t):
        d = s_closed_forms(r, rp, rpp, t)
        return dict(d, S12=0.0) if t == chord[1] else d

    monkeypatch.setattr(jacobi, "s_closed_forms", patched)


@pytest.mark.parametrize("k", [3, -3])
def test_zero_s12_stops_the_scalar_recurrences(monkeypatch, wobbly3, k):
    # a zero S12 breaks the twist; the recurrence must not divide by it
    seed = dynamics.chord_tail_point(wobbly3, 0.4, 0.3)
    chord = jacobi._ChordLine(wobbly3, seed).chord(k)
    _zero_s12_at(monkeypatch, chord)
    with pytest.raises(ob.ConvergenceError, match=f"S12 = 0 at chord {k}:"):
        if k > 0:
            ob.radial_conjugate_scan(wobbly3, seed, 50)
        else:
            ob.hopf_omega(wobbly3, seed)


def test_zero_s12_in_a_window_raises(wobbly3):
    w = ob.build_window(wobbly3, dynamics.chord_tail_point(wobbly3, 0.4, 0.3), 2, 4)
    # b_coeffs[j] belongs to chord M - 1 + j = j - 3; the recurrence divides
    # by b_coeffs[2:], the first and the last of which are tried
    for j in (2, 4, w.b_coeffs.size - 1):
        b = w.b_coeffs.copy()
        b[j] = 0.0
        with pytest.raises(ob.ConvergenceError, match=f"S12 = 0 at chord {j - 3}:"):
            ob.propagate_jacobi(dataclasses.replace(w, b_coeffs=b), 0.3, 1.1)


@pytest.mark.parametrize("k", [0, 3, 10])
def test_zero_s12_stops_the_grid_scan(monkeypatch, wobbly3, k):
    # S12 = 0 on the last lane (seed 1, still running at chord 10) of the
    # k-th chord; the scan must name that seed and chord, not divide by zero
    s_closed_forms, calls = jacobi.s_closed_forms, []

    def patched(r, rp, rpp, t):
        d = s_closed_forms(r, rp, rpp, t)
        if len(calls) == k:                     # one call per chord
            d["S12"][-1] = 0.0
        calls.append(t)
        return d

    monkeypatch.setattr(jacobi, "s_closed_forms", patched)
    seed_phi, seed_t = np.array([0.3, 1.0]), np.array([0.5, 0.7])
    seed = f"({seed_phi[1]:.17g}, {seed_t[1]:.17g})"
    with pytest.raises(ob.ConvergenceError,
                       match=re.escape(f"S12 = 0 at chord {k} of the seed (phi, t) = {seed}")):
        jacobi._scan_batch(wobbly3, seed_phi, seed_t, 50, False)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_non_finite_field_stops_the_grid_scan(monkeypatch, wobbly3, k):
    # an overflow in the closed forms (S11 = NaN on the last lane at chord k)
    # must stop the scan with its seed and chord, not read as "no conjugate point"
    s_closed_forms, calls = jacobi.s_closed_forms, []

    def patched(r, rp, rpp, t):
        d = s_closed_forms(r, rp, rpp, t)
        if len(calls) == k:
            d["S11"][-1] = math.nan
        calls.append(t)
        return d

    monkeypatch.setattr(jacobi, "s_closed_forms", patched)
    seed_phi, seed_t = np.array([0.3, 1.0]), np.array([0.5, 0.7])
    seed = f"({seed_phi[1]:.17g}, {seed_t[1]:.17g})"
    with pytest.raises(ob.ConvergenceError, match=re.escape(
            f"non-finite Jacobi field at chord {k} of the seed (phi, t) = {seed}")):
        jacobi._scan_batch(wobbly3, seed_phi, seed_t, 50, False)


def test_non_finite_field_stops_the_radial_scan(monkeypatch, wobbly3):
    seed = dynamics.chord_tail_point(wobbly3, 0.4, 0.3)
    chord = jacobi._ChordLine(wobbly3, seed).chord(3)
    s_closed_forms = jacobi.s_closed_forms

    def patched(r, rp, rpp, t):
        d = s_closed_forms(r, rp, rpp, t)
        return dict(d, S11=math.nan) if t == chord[1] else d

    monkeypatch.setattr(jacobi, "s_closed_forms", patched)
    with pytest.raises(ob.ConvergenceError, match=re.escape(
            f"non-finite Jacobi field at chord 3 of the seed (x, y) = ({seed.x:.17g}, "
            f"{seed.y:.17g})")):
        ob.radial_conjugate_scan(wobbly3, seed, 50)


# -- one recurrence, one coefficient source ---------------------------------------

def test_window_coefficients_are_the_chord_lines_data(monkeypatch, presets, fourier8):
    # build_window reads S11, S12, S22 of chords k = M-1 .. N from the same
    # cached closed forms hopf_omega uses, bitwise, and evaluates no radius array
    def no_radius(*args, **kwargs):
        raise AssertionError("build_window evaluated a radius array")

    for curve in (*presets.values(), fourier8):
        seed = dynamics.chord_tail_point(curve, 0.4, 0.3)
        with monkeypatch.context() as m:
            m.setattr(ob.ConvexCurve, "radius", no_radius)
            w = ob.build_window(curve, seed, 4, 6)
        line = jacobi._ChordLine(curve, seed)
        data = [line.data(k) for k in range(-5, 7)]
        assert w.s11.tolist() == [d["S11"] for d in data]
        assert w.b_coeffs.tolist() == [d["S12"] for d in data]
        assert w.s22.tolist() == [d["S22"] for d in data]
        assert w.a_coeffs.tolist() == [d0["S22"] + d1["S11"] for d0, d1 in zip(data, data[1:])]


def test_propagate_jacobi_is_the_recurrence_bit_for_bit(presets, fourier8):
    for curve in (*presets.values(), fourier8):
        w = ob.build_window(curve, dynamics.chord_tail_point(curve, 0.4, 0.3), 4, 6)
        a, b = w.a_coeffs.tolist(), w.b_coeffs.tolist()
        dq = [0.3, 1.1]
        for i in range(1, len(w)):          # through node N + 1
            dq.append(-(a[i] * dq[i] + b[i] * dq[i - 1]) / b[i + 1])
        state = ob.propagate_jacobi(w, 0.3, 1.1)
        assert state.dq.tolist() == dq[:-1]
        assert state.dq_beyond == dq[-1]


def test_hopf_non_convergence_reports_the_last_two_iterates(monkeypatch, unit_circle,
                                                            circle_seed):
    # windows 8 and 16 give different slopes; the error names both and their gap
    monkeypatch.setattr(jacobi, "HOPF_CAP", 16)
    with pytest.raises(ob.ConvergenceError, match="by N=16: last iterates") as info:
        ob.hopf_omega(unit_circle, circle_seed)
    first, last = (float(x) for x in str(info.value).rsplit("iterates ", 1)[1].split(", "))
    assert first != last
    assert info.value.residual == abs(last - first)
    assert info.value.residual > 0.0
