"""Command-line front door: data-only CSV/JSON output for external plotting.

Exit codes: 0 success, 1 verification failure, 2 invalid curve or usage,
3 dynamics (tangency) failure, 4 optimizer failure.
"""

import argparse
import contextlib
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, dynamics, generating, jacobi, rigidity, serialize, verify
from .curves import load_curve
from .errors import (ConvergenceError, InsideCurveError, InvalidCurveError,
                     NotInteriorError, TangencyError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CURVE = 2
EXIT_DYNAMICS = 3
EXIT_OPTIMIZER = 4

COMMANDS = ("simulate", "verify", "rigidity", "portrait", "twist-scan", "conjugate-scan")


def _grid(value: str) -> int:
    n = int(value)
    if n < 64 or n & (n - 1):
        raise argparse.ArgumentTypeError("grid sizes must be powers of two >= 64")
    return n


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line usage error instead of the usage block."""

    def error(self, message):
        self.exit(EXIT_INVALID_CURVE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="outerbilliard",
        description="Outer billiard laboratory: orbits, generating-function "
                    "verification, and convex-geometry rigidity reports.")
    p.add_argument("--curve", required=True, help="curve specification JSON file")
    p.add_argument("--cmd", required=True, choices=COMMANDS)
    p.add_argument("--seed", nargs=2, type=float, metavar=("X", "Y"),
                   help="orbit seed in world coordinates (simulate)")
    p.add_argument("--steps", type=int, default=None,
                   help="orbit steps / conjugate-scan iteration cap")
    p.add_argument("--phi-grid", type=_grid, default=None)
    p.add_argument("--t-grid", type=_grid, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="primary tolerance of the command (echoed in reports)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--orientation", choices=(dynamics.CCW, dynamics.CW),
                   default=dynamics.CCW)
    p.add_argument("--conjugate-scan", action="store_true",
                   help="append a conjugate-point scan to the rigidity report")
    p.add_argument("--version", action="version", version=__version__)
    # argparse's own pattern reads "--tol -1e-9" or "--seed -1e-05 2" as flags
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return p


@dataclass
class RunConfig:
    command: str
    steps: int
    phi_grid: int
    t_grid: int
    t_max: float
    tol: float
    workers: int
    orientation: str
    out_format: str

    def __post_init__(self):
        # written so that NaN fails every comparison
        for flag, value in (("--tol", self.tol), ("--t-max", self.t_max)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{flag} must be finite and positive, got {value!r}")
        if self.command == "rigidity" and not self.t_max >= 10.0:
            raise ValueError(f"rigidity needs --t-max of at least 10, got {self.t_max!r}")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.workers < 1:
            raise ValueError("--workers must be at least 1")

    def echo(self) -> dict:
        # workers deliberately not echoed: reports must be byte-identical
        # for any worker count
        return {"command": self.command, "steps": self.steps,
                "phi_grid": self.phi_grid, "t_grid": self.t_grid,
                "t_max": self.t_max, "tol": self.tol,
                "orientation": self.orientation}


_DEFAULTS = {
    "simulate": dict(steps=100, phi_grid=2048, t_grid=64, t_max=3.0, tol=1e-12, fmt="csv"),
    "portrait": dict(steps=500, phi_grid=2048, t_grid=64, t_max=3.0, tol=1e-12, fmt="csv"),
    "verify": dict(steps=0, phi_grid=2048, t_grid=128, t_max=20.0, tol=1e-9, fmt="json"),
    "rigidity": dict(steps=2000, phi_grid=2048, t_grid=64, t_max=50.0, tol=1e-7, fmt="json"),
    "twist-scan": dict(steps=0, phi_grid=256, t_grid=256, t_max=20.0, tol=1e-12, fmt="json"),
    "conjugate-scan": dict(steps=10_000, phi_grid=64, t_grid=64, t_max=3.0, tol=1e-12, fmt="json"),
}


def make_config(args) -> RunConfig:
    if args.seed is not None and not all(map(math.isfinite, args.seed)):
        raise ValueError(f"--seed must be finite, got {args.seed[0]!r} {args.seed[1]!r}")
    d = _DEFAULTS[args.cmd]
    return RunConfig(
        command=args.cmd,
        steps=d["steps"] if args.steps is None else args.steps,
        phi_grid=d["phi_grid"] if args.phi_grid is None else args.phi_grid,
        t_grid=d["t_grid"] if args.t_grid is None else args.t_grid,
        t_max=d["t_max"] if args.t_max is None else args.t_max,
        tol=d["tol"] if args.tol is None else args.tol,
        workers=args.workers,
        orientation=args.orientation,
        out_format=d["fmt"] if args.format is None else args.format)


@contextlib.contextmanager
def _output(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# -- commands -------------------------------------------------------------------

def cmd_simulate(curve, cfg: RunConfig, seed, out):
    if seed is None:
        raise InvalidCurveError("simulate requires --seed X Y")
    a = dynamics.phase_point(curve, seed[0], seed[1])
    pts = dynamics.orbit(curve, a, cfg.steps, cfg.orientation)
    footer = []
    if curve.kind == "ellipse":
        aa, bb = curve.axis_a, curve.axis_b
        q0 = ((pts[0].x - curve.origin[0]) / aa) ** 2 + ((pts[0].y - curve.origin[1]) / bb) ** 2
        dev = max(abs(((p.x - curve.origin[0]) / aa) ** 2
                      + ((p.y - curve.origin[1]) / bb) ** 2 - q0) / q0 for p in pts)
        footer.append(f"homothetic_ellipse_invariant_max_rel_dev={dev:.17g}")
    dynamics.write_orbit_csv(out, pts, footer)
    return EXIT_OK


def cmd_portrait(curve, cfg: RunConfig, out):
    out.write("seed,n,x,y,p,phi\n")
    for j in range(1, cfg.t_grid + 1):
        t = cfg.t_max * j / cfg.t_grid
        a = dynamics.chord_tail_point(curve, 0.0, t)
        pts = dynamics.orbit(curve, a, cfg.steps, cfg.orientation)
        for n, pt in enumerate(pts):
            out.write(f"{j:d},{n:d},{pt.x:.17g},{pt.y:.17g},{pt.p:.17g},{pt.phi:.17g}\n")
    return EXIT_OK


def cmd_verify(curve, cfg: RunConfig, out):
    result = verify.run_verification(curve)
    doc = result.to_dict()
    doc["config"] = cfg.echo()
    out.write(serialize.dumps(doc))
    return EXIT_OK if result.all_passed else EXIT_VERIFY_FAILED


def cmd_twist_scan(curve, cfg: RunConfig, out):
    if cfg.out_format == "csv":
        pm, tm, d = generating.derivative_table(curve, cfg.phi_grid, cfg.t_grid, cfg.t_max)
        generating.write_derivative_csv(out, pm, tm, d)
        return EXIT_OK
    scan = generating.twist_scan(curve, cfg.phi_grid, cfg.t_grid, cfg.t_max)
    doc = {"max_s12": scan.max_s12, "phi_at_max": scan.phi_at_max,
           "t_at_max": scan.t_at_max, "twist_negative": scan.max_s12 < 0.0,
           "config": cfg.echo()}
    out.write(serialize.dumps(doc))
    return EXIT_OK


def _scan_row(r):
    row = {"seed_phi": r.seed_phi, "seed_t": r.seed_t, "n_conjugate": r.n_conjugate}
    if r.unscanned is not None:
        row["unscanned"] = r.unscanned
    return row


def cmd_conjugate_scan(curve, cfg: RunConfig, out):
    scan = jacobi.conjugate_grid_scan(
        curve, phi_count=cfg.phi_grid, t_count=cfg.t_grid, t_max=cfg.t_max,
        n_max=cfg.steps, workers=cfg.workers)
    # the unscanned fields appear only when some seed could not be stepped,
    # so every other report keeps its bytes
    n_unscanned = len(scan.unscanned)
    if cfg.out_format == "csv":
        out.write("seed_phi,seed_t,n_conjugate\n")
        for r in scan.rows:
            n = "" if r.n_conjugate is None else str(r.n_conjugate)
            out.write(f"{r.seed_phi:.17g},{r.seed_t:.17g},{n}\n")
        if n_unscanned:
            out.write(f"# unscanned_rows={n_unscanned}\n")
        return EXIT_OK
    doc = {"found_count": len(scan.found)}
    if n_unscanned:
        doc["unscanned_count"] = n_unscanned
    doc.update(rows=[_scan_row(r) for r in scan.rows], config=cfg.echo())
    out.write(serialize.dumps(doc))
    return EXIT_OK


def cmd_rigidity(curve, cfg: RunConfig, out, with_scan: bool):
    report = rigidity.rigidity_report(
        curve, phi_grid=cfg.phi_grid, t_max=cfg.t_max, equality_tol=cfg.tol)
    doc = {
        "q_value": report.q_value,
        "q_defect": report.q_defect,
        "i_closed": report.i_closed,
        "i_numeric": report.i_numeric,
        "i_numeric_error": report.i_numeric_error,
        "area_gamma": report.area_gamma,
        "area_dual": report.area_dual,
        "bs_product": report.bs_product,
        "santalo_point": [report.santalo_x, report.santalo_y],
        "eq_q_holds": report.eq_q_holds,
        "eq_qq_holds": report.eq_qq_holds,
        "equality_case": report.equality_case,
        "certifies_non_minimizing": report.certifies_non_minimizing,
        "origin_moved": report.origin_moved,
        "config": cfg.echo(),
    }
    if with_scan:
        scan = jacobi.conjugate_grid_scan(
            curve, phi_count=cfg.t_grid, t_count=cfg.t_grid, t_max=3.0,
            n_max=cfg.steps, workers=cfg.workers)
        found = scan.found
        doc["conjugate_scan"] = {
            "seeds": len(scan.rows),
            "n_max": cfg.steps,
            "found_count": len(found),
            "first_found": None if not found else {
                "seed_phi": found[0].seed_phi, "seed_t": found[0].seed_t,
                "n_conjugate": found[0].n_conjugate},
        }
    out.write(serialize.dumps(doc))
    return EXIT_OK


# -- entry points ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CURVE
    try:
        curve = load_curve(args.curve)
    except (InvalidCurveError, OSError) as exc:
        print(f"error: invalid curve: {exc}", file=sys.stderr)
        return EXIT_INVALID_CURVE
    try:
        with _output(args.out) as out:
            if args.cmd == "simulate":
                return cmd_simulate(curve, cfg, args.seed, out)
            if args.cmd == "portrait":
                return cmd_portrait(curve, cfg, out)
            if args.cmd == "verify":
                return cmd_verify(curve, cfg, out)
            if args.cmd == "twist-scan":
                return cmd_twist_scan(curve, cfg, out)
            if args.cmd == "conjugate-scan":
                return cmd_conjugate_scan(curve, cfg, out)
            return cmd_rigidity(curve, cfg, out, args.conjugate_scan)
    except InvalidCurveError as exc:
        print(f"error: invalid curve: {exc}", file=sys.stderr)
        return EXIT_INVALID_CURVE
    except (TangencyError, InsideCurveError) as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"error: dynamics failure{where}: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except (ConvergenceError, NotInteriorError) as exc:
        print(f"error: optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
