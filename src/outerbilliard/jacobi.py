"""Discrete Jacobi fields, conjugate points, Hessian minimality, Hopf field.

Along an orbit with configuration angles {q_n}, a Jacobi field {dq_n} solves
    b_{n-1} dq_{n-1} + a_n dq_n + b_n dq_{n+1} = 0,
with a_n = S22(q_{n-1}, q_n) + S11(q_n, q_{n+1}) and b_n = S12(q_n, q_{n+1}).
A radial tangent vector has dq = 0; its image returns to radial after n steps
exactly when the field started as (dp, dq) = (1, 0) vanishes again at index n
(a conjugate point).  Absence of conjugate points in a window is equivalent
to positive definiteness of the tridiagonal Hessian of the action sum over
that window, which is what local minimality means.

Orbits are stepped in the chord chart (phi, t), where every coefficient is a
closed form in the curve data at the chord (no chart inversion needed).
"""

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import ConvexCurve
from .dynamics import (MIN_CHORD_T, PhasePoint, _near_boundary_message, chord_of,
                       chord_step_batch, chord_step_scalar)
from .errors import ConvergenceError, TangencyError
# unused here, but bench/tracer.py wraps jacobi._sderiv_arrays and
# jacobi.sderiv_scalar by name
from .generating import _sderiv_arrays, s_closed_forms  # noqa: F401
from .generating import s_derivatives as sderiv_scalar  # noqa: F401
from .quadrature import uniform_angles

HOPF_START = 8
HOPF_CAP = 2 ** 14
HOPF_TOL = 1e-4
ZERO_TOL = 1e-12          # |dq| below this times the running max counts as a zero
RENORM_LIMIT = 1e100
NO_TWIST = "the twist condition S12 < 0 fails"
OVERFLOW = "the closed forms or the recurrence overflowed"
# Most seeds per conjugate-scan chunk.  It caps a chunk's memory (about 1.8
# MiB of numpy temporaries at 4096 lanes) while leaving each of the 13 radius
# evaluations per lane-step a long array pass; rows do not depend on it.
SCAN_CHUNK = 4096


def _gap(r: float, rp: float, t: float) -> float:
    """Angle advance q_{n+1} - q_n of a chord with r, r' at its tangency
    angle; always in (0, pi)."""
    return math.atan2(t * r, r - t * rp) + math.atan2(t * r, r + t * rp)


def _nonzero_s12(s12: float, k: int) -> float:
    """S12 of chord k, a divisor of the Jacobi recurrence; zero breaks the twist."""
    if s12 == 0.0:
        raise ConvergenceError(f"S12 = 0 at chord {k}: {NO_TWIST}")
    return s12


def _check_lanes(ok: np.ndarray, k: int, seed_phi, seed_t, live, what: str, why: str):
    """ConvergenceError at chord k naming the seed of the first of the scan's
    lanes where ok fails; live[i] is lane i's seed."""
    if not ok.all():
        i = live[np.flatnonzero(~ok)[0]]
        raise ConvergenceError(f"{what} at chord {k} of the seed (phi, t) = ({seed_phi[i]:.17g}, "
                               f"{seed_t[i]:.17g}): {why}")


def _jacobi_next(a, b_prev, b, dq, dq_prev):
    """dq_{n+1} of b_{n-1} dq_{n-1} + a_n dq_n + b_n dq_{n+1} = 0, on floats or arrays."""
    return -(a * dq + b_prev * dq_prev) / b


# -- orbit windows -------------------------------------------------------------

@dataclass(frozen=True)
class OrbitWindow:
    """Coefficients along an orbit segment for window nodes M..N.

    ``angles`` covers q_{M-1}..q_{N+1} (lifted to the real line).
    ``a_coeffs[i]`` is a_{M+i} for the N-M+1 window nodes;
    ``b_coeffs[j]``, ``s11[j]``, ``s22[j]`` belong to chord_{M-1+j} for the
    N-M+2 chords of the segment, chord_k joining nodes k and k+1.
    """

    angles: np.ndarray
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    s11: np.ndarray
    s22: np.ndarray
    chords_phi: np.ndarray
    chords_t: np.ndarray
    node_start: int

    def __len__(self):
        return self.a_coeffs.size


@dataclass(frozen=True)
class JacobiState:
    dq: np.ndarray            # over window nodes M..N
    dp: np.ndarray
    dq_beyond: float          # dq at node N+1 (used by the first dp form at N)
    form_residual: float      # worst relative disagreement of the two dp forms


@dataclass(frozen=True)
class MinimalityVerdict:
    positive_definite: bool
    first_nonpositive_minor: Optional[int]
    pivots: np.ndarray


@dataclass(frozen=True)
class OmegaSample:
    """Hopf-field slope dp0/dq0 at a phase point, with its window diagnostics."""

    omega: Optional[float]
    window: int
    converged: bool
    minimizing: bool
    bound_low: Optional[float] = None
    bound_high: Optional[float] = None
    relation_fwd_residual: Optional[float] = None
    relation_here_residual: Optional[float] = None
    message: str = ""


class _ChordLine:
    """Lazy doubly-infinite chord sequence with cached radial and closed-form
    data: one radius_scalar call per chord, which also heads the steps from it."""

    def __init__(self, curve: ConvexCurve, seed: PhasePoint):
        self.curve = curve
        self._fwd = [chord_of(curve, seed)]     # chords 0, 1, 2, ...
        self._back = []                          # chords -1, -2, ...
        self._radial = {}
        self._data = {}

    def chord(self, k: int):
        while k >= len(self._fwd):
            last = len(self._fwd) - 1
            self._fwd.append(chord_step_scalar(self.curve, *self._fwd[last], 1,
                                               head=self.radial(last)))
        while k < -len(self._back):
            last = -len(self._back)
            self._back.append(chord_step_scalar(self.curve, *self.chord(last), -1,
                                                head=self.radial(last)))
        return self._fwd[k] if k >= 0 else self._back[-k - 1]

    def radial(self, k: int):
        """(r, r', r'') at chord k's tangency angle."""
        if k not in self._radial:
            self._radial[k] = self.curve.radius_scalar(self.chord(k)[0])
        return self._radial[k]

    def data(self, k: int):
        if k not in self._data:
            self._data[k] = s_closed_forms(*self.radial(k), self.chord(k)[1])
        return self._data[k]

    def a_of(self, n: int) -> float:
        return self.data(n - 1)["S22"] + self.data(n)["S11"]

    def b_of(self, n: int) -> float:
        return _nonzero_s12(self.data(n)["S12"], n)


def build_window(curve: ConvexCurve, seed: PhasePoint, m_back: int, n_fwd: int) -> OrbitWindow:
    """Iterate the map both ways from the seed and fill the Jacobi coefficients.

    Window nodes are M = -m_back .. N = n_fwd; the orbit is extended one
    chord past each end so every a_n is defined.
    """
    if m_back < 0 or n_fwd < 0:
        raise ValueError("window extents must be non-negative")
    line = _ChordLine(curve, seed)
    ks = range(-m_back - 1, n_fwd + 1)                  # chord_k, k = M-1 .. N
    chords = [line.chord(k) for k in ks]
    cphi = np.array([c[0] for c in chords])
    ct = np.array([c[1] for c in chords])
    s11, s12, s22 = (np.array([line.data(k)[name] for k in ks])
                     for name in ("S11", "S12", "S22"))

    gaps = [_gap(*line.radial(k)[:2], line.chord(k)[1]) for k in ks]
    q = np.empty(len(chords) + 1)
    q[0] = seed.phi - sum(gaps[:m_back + 1])
    for i, gap in enumerate(gaps):
        q[i + 1] = q[i] + gap

    return OrbitWindow(angles=q,
                       a_coeffs=s22[:-1] + s11[1:],
                       b_coeffs=s12, s11=s11, s22=s22,
                       chords_phi=cphi, chords_t=ct, node_start=-m_back)


def propagate_jacobi(window: OrbitWindow, dq0: float, dq1: float) -> JacobiState:
    """Run the three-term recurrence from the first two window values.

    dp is filled from the first form dp_n = -S11 dq_n - S12 dq_{n+1} (data at
    chord n) and cross-checked against the second form
    dp_n = S22 dq_n + S12 dq_{n-1} (data at chord n-1) on the overlap.
    """
    L = len(window)
    if L < 2:
        raise ValueError("propagation needs a window of at least two nodes")
    a, b, m = window.a_coeffs, window.b_coeffs, window.node_start
    dq_ext = np.empty(L + 1)          # nodes M..N, then N+1
    dq_ext[0], dq_ext[1] = dq0, dq1
    for i in range(1, L):             # b[i] belongs to chord m - 1 + i
        dq_ext[i + 1] = _jacobi_next(a[i], b[i], _nonzero_s12(b[i + 1], m + i),
                                     dq_ext[i], dq_ext[i - 1])
    dq, dq_beyond = dq_ext[:L], dq_ext[L]

    dp = -window.s11[1:] * dq - window.b_coeffs[1:] * dq_ext[1:]
    dp_alt = window.s22[:-1][1:] * dq[1:] + window.b_coeffs[1:-1] * dq[:-1]
    scale = max(float(np.abs(dp).max()), 1e-300)
    form_residual = float(np.abs(dp[1:] - dp_alt).max()) / scale
    return JacobiState(dq=dq, dp=dp, dq_beyond=float(dq_beyond),
                       form_residual=form_residual)


def hessian_minimality(window: OrbitWindow) -> MinimalityVerdict:
    """LDL^T positivity test of the window's tridiagonal Hessian.

    Diagonal a_n over the window nodes, off-diagonal b_n between consecutive
    nodes.  The k-th pivot is the ratio of consecutive leading principal
    minors, so the first non-positive pivot indexes the first failing minor.
    """
    a = window.a_coeffs
    off = window.b_coeffs[1:len(window)]
    pivots = np.empty(a.size)
    pivots[0] = a[0]
    for i in range(1, a.size):
        if pivots[i - 1] <= 0.0:
            pivots[i:] = np.nan
            break
        pivots[i] = a[i] - off[i - 1] ** 2 / pivots[i - 1]
    with np.errstate(invalid="ignore"):
        bad = np.nonzero(~(pivots > 0.0))[0]
    if bad.size:
        return MinimalityVerdict(False, int(bad[0]) + 1, pivots)
    return MinimalityVerdict(True, None, pivots)


# -- conjugate points ----------------------------------------------------------

def radial_conjugate_scan(curve: ConvexCurve, seed: PhasePoint, n_max: int) -> Optional[int]:
    """First n with the radial-start Jacobi field back at radial, else None.

    Starts (dp, dq) = (1, 0) at the seed, so dq_1 = -1/b_0 > 0, and watches
    for the first sign change or vanishing of dq_n, n <= n_max; a non-finite
    dq_n raises ConvergenceError.  One radius_scalar call per chord feeds its
    closed forms and heads the next step.
    """
    phi_m, t = chord_of(curve, seed)
    radial = curve.radius_scalar(phi_m)
    d = s_closed_forms(*radial, t)
    b_prev, s22_prev = _nonzero_s12(d["S12"], 0), d["S22"]
    dq_prev, dq = 0.0, -1.0 / b_prev
    runmax = abs(dq)
    for n in range(1, n_max):
        phi_m, t = chord_step_scalar(curve, phi_m, t, 1, head=radial)
        radial = curve.radius_scalar(phi_m)
        d = s_closed_forms(*radial, t)
        dq_next = _jacobi_next(s22_prev + d["S11"], b_prev, _nonzero_s12(d["S12"], n), dq, dq_prev)
        if not math.isfinite(dq_next):
            raise ConvergenceError(f"non-finite Jacobi field at chord {n} of the seed (x, y) = "
                                   f"({seed.x:.17g}, {seed.y:.17g}): {OVERFLOW}")
        if dq_next < 0.0 or abs(dq_next) <= ZERO_TOL * runmax:
            return n + 1
        dq_prev, dq = dq, dq_next
        b_prev, s22_prev = d["S12"], d["S22"]
        runmax = max(runmax, abs(dq))
        if runmax > RENORM_LIMIT:
            dq_prev /= runmax
            dq /= runmax
            runmax = 1.0
    return None


@dataclass(frozen=True)
class ConjugateScanRow:
    seed_phi: float
    seed_t: float
    n_conjugate: Optional[int]
    unscanned: Optional[str] = None     # why the seed was not stepped


@dataclass(frozen=True)
class ConjugateScanResult:
    rows: list
    complete: bool

    @property
    def found(self):
        return [r for r in self.rows if r.n_conjugate is not None]

    @property
    def unscanned(self):
        return [r for r in self.rows if r.unscanned is not None]


def _scan_batch(curve: ConvexCurve, seed_phi: np.ndarray, seed_t: np.ndarray,
                n_max: int, stop_at_first: bool) -> np.ndarray:
    """Vectorized radial conjugate scan; -1 marks seeds with no sign change.

    The seeds' radial data is evaluated once; after that each step's
    chord_step_batch hands back (cos, sin, r, r', r'') at the new tangency
    angle, which feeds s_closed_forms and is passed back as the next step's
    head, so a lane-step costs 13 radius evaluations.  A lane drops out as
    soon as its index is known: after each step with a hit the state is
    gathered down to the lanes still running, so later steps cost only
    those.  Every kernel is elementwise, so which lanes share a step never
    changes a lane's arithmetic.  A zero S12 or a non-finite field on any
    lane raises ConvergenceError naming its seed and chord.
    """
    c, s = np.cos(seed_phi), np.sin(seed_phi)
    radial = (c, s) + curve.radius(seed_phi, cs=(c, s))
    d = s_closed_forms(*radial[2:], seed_t)
    live = np.arange(seed_phi.size)           # seed index of each running lane
    b_prev, s22_prev = d["S12"], d["S22"]
    _check_lanes(b_prev != 0.0, 0, seed_phi, seed_t, live, "S12 = 0", NO_TWIST)
    dq_prev = np.zeros_like(seed_phi)
    dq = -1.0 / b_prev
    runmax = np.abs(dq)
    found = np.full(seed_phi.shape, -1, dtype=np.int64)
    phi_m, t = seed_phi, seed_t
    for n in range(1, n_max):
        phi_m, t, radial = chord_step_batch(curve, phi_m, t, 1, head=radial)
        d = s_closed_forms(*radial[2:], t)
        b = d["S12"]
        _check_lanes(b != 0.0, n, seed_phi, seed_t, live, "S12 = 0", NO_TWIST)
        dq_next = _jacobi_next(s22_prev + d["S11"], b_prev, b, dq, dq_prev)
        _check_lanes(np.isfinite(dq_next), n, seed_phi, seed_t, live, "non-finite Jacobi field",
                     OVERFLOW)
        hit = (dq_next < 0.0) | (np.abs(dq_next) <= ZERO_TOL * runmax)
        dq_prev, dq = dq, dq_next
        b_prev, s22_prev = b, d["S22"]
        runmax = np.maximum(runmax, np.abs(dq))
        big = runmax > RENORM_LIMIT
        if big.any():
            dq_prev = np.where(big, dq_prev / runmax, dq_prev)
            dq = np.where(big, dq / runmax, dq)
            runmax = np.where(big, 1.0, runmax)
        if hit.any():
            found[live[hit]] = n + 1
            keep = ~hit
            live = live[keep]
            if stop_at_first or live.size == 0:
                break
            phi_m, t, dq_prev, dq, b_prev, s22_prev, runmax = (
                x[keep] for x in (phi_m, t, dq_prev, dq, b_prev, s22_prev, runmax))
            radial = tuple(x[keep] for x in radial)
    return found


def _scan_chunk_worker(args):
    curve, seed_phi, seed_t, n_max = args
    return _scan_batch(curve, seed_phi, seed_t, n_max, False)


def conjugate_grid_scan(curve: ConvexCurve, phi_count: int = 40, t_count: int = 40,
                        t_max: float = 3.0, n_max: int = 10_000, workers: int = 1,
                        stop_at_first: bool = False) -> ConjugateScanResult:
    """Radial conjugate scan over a (phi, t) grid of seed chords.

    Seeds are the tails M0 of the chords (phi_i, t_j), phi uniform on
    [0, 2pi), t_j = t_max (j+1)/t_count.  Seeds with t below MIN_CHORD_T
    cannot be stepped: their rows carry an ``unscanned`` reason and
    ``complete`` goes False, unless no seed at all can be stepped, which
    raises TangencyError.  The other seeds are cut, in grid order, into
    chunks of SCAN_CHUNK seeds, which run in up to min(workers, chunks,
    cores) processes, or in this process when that is one; so a grid of at
    most SCAN_CHUNK seeds, such as 64x64, never starts a pool.  Each
    lane-step costs 13 radius evaluations (see _scan_batch).
    Every kernel is elementwise, so a seed's result is the same for any
    chunk size and worker count.  With stop_at_first the chunks run serially
    and the scan stops at the first chunk containing a hit.
    """
    phis = uniform_angles(phi_count)
    ts = t_max * np.arange(1, t_count + 1) / t_count
    seed_phi = np.repeat(phis, t_count)
    seed_t = np.tile(ts, phi_count)
    n_seeds = seed_phi.size
    steppable = seed_t >= MIN_CHORD_T          # False for NaN too
    if n_seeds and not steppable.any():
        raise TangencyError(_near_boundary_message(np.min(seed_t)))
    scan_phi, scan_t = seed_phi[steppable], seed_t[steppable]
    chunks = [(scan_phi[i:i + SCAN_CHUNK], scan_t[i:i + SCAN_CHUNK])
              for i in range(0, scan_phi.size, SCAN_CHUNK)]
    # one process per chunk at most, and no more than the machine has cores
    n_proc = min(workers, len(chunks), os.cpu_count() or 1)

    complete = bool(steppable.all())
    if n_proc > 1 and not stop_at_first:
        # imported here: a one-process scan never needs the pool machinery,
        # and importing it would slow every CLI start
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(curve, cp, ctt, n_max) for cp, ctt in chunks]
        with ProcessPoolExecutor(max_workers=n_proc) as pool:
            results = list(pool.map(_scan_chunk_worker, jobs))
    else:
        # serial, grid order; with stop_at_first any hit stops the scan early,
        # so rows past the hit (None) only mean "not fully scanned"
        results = []
        for cp, ctt in chunks:
            results.append(_scan_batch(curve, cp, ctt, n_max, stop_at_first))
            if stop_at_first and (results[-1] >= 0).any():
                complete = False
                break

    found = np.full(n_seeds, -1, dtype=np.int64)
    if results:
        done = np.concatenate(results)
        found[np.flatnonzero(steppable)[:done.size]] = done
    reason = f"t below {MIN_CHORD_T:g}"
    rows = [ConjugateScanRow(float(seed_phi[i]), float(seed_t[i]),
                             int(found[i]) if found[i] >= 0 else None,
                             None if steppable[i] else reason)
            for i in range(n_seeds)]
    return ConjugateScanResult(rows=rows, complete=complete)


# -- Hopf construction ----------------------------------------------------------

def _window_field(line: _ChordLine, n_win: int):
    """Solve dq_{-N} = 0, dq_{-N+1} = 1 forward to node 2.

    Returns (values at nodes -1..2, first node with a non-positive value or
    None).  Renormalizes deep in the window to dodge overflow; ratios are all
    that matter.
    """
    u_prev, u = 0.0, 1.0
    stored = {}
    for n in range(-n_win + 1, 2):
        if u <= 0.0:
            return None, n
        if n >= -1:
            stored[n] = u
        u_prev, u = u, _jacobi_next(line.a_of(n), line.b_of(n - 1), line.b_of(n), u, u_prev)
        if n < -2 and abs(u) > RENORM_LIMIT:
            scale = abs(u)
            u_prev /= scale
            u /= scale
    stored[2] = u
    return stored, None


def hopf_omega(curve: ConvexCurve, seed: PhasePoint) -> OmegaSample:
    """Finite-window Hopf construction of omega = dp0/dq0 at the seed.

    Window N solves the boundary problem dq_{-N} = 0, dq_0 = 1; N doubles
    from HOPF_START until |omega_2N - omega_N| < HOPF_TOL * scale, positivity
    of the window field fails (reported as a finding, not an error), or N
    exceeds HOPF_CAP (ConvergenceError with the last two iterates).  On
    success the two evolution relations are evaluated at the seed from the
    propagated field:

        omega(T x) = S22(q0,q1) + S12(q0,q1)/dq1       (first form at node 1)
        omega(x)   = -S11(q0,q1) - S12(q0,q1) * dq1    (second form at node 0)

    and their residuals are returned; both sit at round-off when the
    closed-form coefficients of adjacent chords are mutually consistent.
    """
    line = _ChordLine(curve, seed)
    d0 = line.data(0)
    s11_0, s22_0, s12_0 = d0["S11"], d0["S22"], d0["S12"]
    s22_prev = line.data(-1)["S22"]
    scale = max(1.0, abs(s11_0), abs(s22_prev))

    omega = None
    n_win = HOPF_START
    while n_win <= HOPF_CAP:
        stored, bad_node = _window_field(line, n_win)
        if stored is None:
            return OmegaSample(
                omega=None, window=n_win, converged=False, minimizing=False,
                message=("not locally minimizing along the computed window: "
                         f"field vanished at node {bad_node} of window {n_win}"))
        omega_prev, omega = omega, (-s11_0 * stored[0] - s12_0 * stored[1]) / stored[0]
        if omega_prev is not None and abs(omega - omega_prev) < HOPF_TOL * scale:
            dq1 = stored[1] / stored[0]
            d1 = line.data(1)
            omega_fwd = (-d1["S11"] * stored[1] - d1["S12"] * stored[2]) / stored[1]
            rel_fwd = abs(omega_fwd - (s22_0 + s12_0 / dq1))
            omega_here = s22_prev + line.data(-1)["S12"] * stored[-1] / stored[0]
            rel_here = abs(omega_here - (-s11_0 - s12_0 * dq1))
            return OmegaSample(
                omega=float(omega), window=n_win, converged=True, minimizing=True,
                bound_low=float(-s11_0), bound_high=float(s22_prev),
                relation_fwd_residual=float(rel_fwd),
                relation_here_residual=float(rel_here))
        n_win *= 2
    raise ConvergenceError(
        f"window doubling did not converge by N={HOPF_CAP}: last iterates "
        f"{omega_prev:.17g}, {omega:.17g}", residual=abs(omega - omega_prev))

