"""Command-line front door: data-only CSV/JSON output for external plotting.

Exit codes: 0 success, 1 verification failure, 2 invalid curve, usage or not
enough memory, 3 dynamics (tangency) failure, 4 solver failure.
"""

import argparse
import contextlib
import dataclasses
import math
import os
import re
import sys
from typing import Optional

from . import __version__, dynamics, generating, jacobi, rigidity, serialize, verify
from .curves import load_curve
from .errors import (ConvergenceError, InsideCurveError, InvalidCurveError,
                     NotInteriorError, TangencyError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CURVE = 2
EXIT_DYNAMICS = 3
EXIT_SOLVER = 4

# One row per command: the settings it reads, with their defaults (None: the
# flag is required), and nothing else.  A flag outside its row exits 2.
ROWS = {
    "simulate": {"seed": None, "steps": 100, "orientation": dynamics.CCW},
    "portrait": {"steps": 500, "t_grid": 64, "t_max": 3.0, "orientation": dynamics.CCW},
    "verify": {},
    "rigidity": {"phi_grid": 2048, "t_max": 50.0, "tol": rigidity.EQUALITY_TOL,
                 "conjugate_scan": False},
    "twist-scan": {"phi_grid": 256, "t_grid": 256, "t_max": 20.0, "format": "json"},
    "conjugate-scan": {"steps": 10_000, "phi_grid": 64, "t_grid": 64, "t_max": 3.0,
                       "workers": 1, "format": "json"},
}
# what rigidity reads besides its row with --conjugate-scan; that scan runs on
# a t_grid x t_grid seed grid up to SCAN_T_MAX
SCAN_ROW = {"steps": 2000, "t_grid": 64, "workers": 1}
SCAN_T_MAX = 3.0
UNSCANNED = f"t below {dynamics.MIN_CHORD_T:g}"     # why a grid scan did not step a seed
# what a JSON report's config echoes, in this order, when its row holds it;
# never workers, so reports are byte-identical for any worker count
ECHOED = ("command", "steps", "phi_grid", "t_grid", "t_max", "tol")


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
    p.add_argument("--cmd", required=True, choices=ROWS)
    p.add_argument("--out", help="output path (default stdout)")
    # every flag below defaults to None: a command reads only the flags in its row
    p.add_argument("--seed", nargs=2, type=float, metavar=("X", "Y"),
                   help="orbit seed in world coordinates (simulate)")
    p.add_argument("--steps", type=int, help="orbit steps / conjugate-scan iteration cap")
    p.add_argument("--phi-grid", type=_grid)
    p.add_argument("--t-grid", type=_grid)
    p.add_argument("--t-max", type=float)
    p.add_argument("--tol", type=float, help="rigidity's equality tolerance on |Q - 2pi|")
    p.add_argument("--workers", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--orientation", choices=(dynamics.CCW, dynamics.CW))
    p.add_argument("--conjugate-scan", action="store_true",
                   help="append a conjugate-point scan to the rigidity report")
    p.add_argument("--version", action="version", version=__version__)
    # argparse's own pattern reads "--tol -1e-9" or "--seed -1e-05 2" as flags
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return p


def flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def settings(args) -> dict:
    """The command's row with the given flags in place of its defaults.

    ValueError names a given flag outside the row, a value out of range, or an
    empty --out, which open would read as the working directory.
    """
    if args.out == "":
        raise ValueError("cannot write --out '': the path is empty")
    s = dict(ROWS[args.cmd])
    if args.cmd == "rigidity" and args.conjugate_scan:
        s.update(SCAN_ROW)
    for key, value in vars(args).items():
        if key in ("curve", "cmd", "out") or value is None or value is False:
            continue
        if key not in s:
            raise ValueError(f"{flag(key)} does not apply to {args.cmd}")
        s[key] = value
    s["command"] = args.cmd
    seed = s.get("seed", ())
    if seed is None:
        raise ValueError(f"{args.cmd} requires --seed X Y")
    if not all(map(math.isfinite, seed)):
        raise ValueError(f"--seed must be finite, got {seed[0]!r} {seed[1]!r}")
    # written so that NaN fails every comparison
    for key in ("tol", "t_max"):
        if key in s and not 0.0 < s[key] < math.inf:
            raise ValueError(f"{flag(key)} must be finite and positive, got {s[key]!r}")
    if args.cmd == "rigidity" and not s["t_max"] >= 10.0:
        raise ValueError(f"rigidity needs --t-max of at least 10, got {s['t_max']!r}")
    if s.get("steps", 0) < 0:
        raise ValueError("--steps must be non-negative")
    if s.get("workers", 1) < 1:
        raise ValueError("--workers must be at least 1")
    return s


def _echo(s: dict) -> dict:
    return {key: s[key] for key in ECHOED if key in s}


class _OutputError(Exception):
    """--out names nothing a report can be written to."""


@contextlib.contextmanager
def _output(path: Optional[str]):
    """stdout or path.  A new or regular file, through a symlink too, is written
    beside itself and replaced, keeping its mode, once the command returns, so a
    raise leaves it; a device, pipe or file in a read-only directory is written in
    place.  A path that cannot be opened, a directory too, raises _OutputError."""
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    in_place = exists and not os.path.isfile(target) or not os.access(os.path.dirname(target),
                                                                       os.W_OK)
    tmp = path if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write --out {path!r}: {exc.strerror}") from exc
    if in_place:
        with fh:
            yield fh
        return
    try:
        with fh:
            if exists:
                os.chmod(tmp, os.stat(target).st_mode & 0o7777)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


# -- commands -------------------------------------------------------------------

def cmd_simulate(curve, s, out):
    a = dynamics.phase_point(curve, *s["seed"])
    pts = dynamics.orbit(curve, a, s["steps"], s["orientation"])
    footer = []
    if curve.kind == "ellipse":
        dev = dynamics.ellipse_invariant_deviation(curve, pts)
        footer.append(f"homothetic_ellipse_invariant_max_rel_dev={dev:.17g}")
    dynamics.write_orbit_csv(out, pts, footer)
    return EXIT_OK


def cmd_portrait(curve, s, out):
    def seeds():            # one orbit at a time, its rows prefixed by the seed's number
        for j in range(1, s["t_grid"] + 1):
            a = dynamics.chord_tail_point(curve, 0.0, s["t_max"] * j / s["t_grid"])
            yield from dynamics.orbit_chunks(
                dynamics.orbit(curve, a, s["steps"], s["orientation"]), j)

    out.write("seed,n,x,y,p,phi\n")
    serialize.write_g17_csv(out, seeds())
    return EXIT_OK


def cmd_verify(curve, s, out):
    result = verify.run_verification(curve)
    # a check's error key appears only on a check that raised
    checks = [{k: v for k, v in vars(c).items() if k != "error" or v is not None}
              for c in result.checks]
    doc = {"all_passed": result.all_passed, "checks": checks, "config": _echo(s)}
    out.write(serialize.dumps(doc))
    return EXIT_OK if result.all_passed else EXIT_VERIFY_FAILED


def cmd_twist_scan(curve, s, out):
    grid = (curve, s["phi_grid"], s["t_grid"], s["t_max"])
    if s["format"] == "csv":
        generating.write_derivative_csv(out, *generating.derivative_table(*grid))
        return EXIT_OK
    scan = generating.twist_scan(*grid)
    doc = {**dataclasses.asdict(scan), "twist_negative": scan.max_s12 < 0.0,
           "config": _echo(s)}
    out.write(serialize.dumps(doc))
    return EXIT_OK


def cmd_conjugate_scan(curve, s, out):
    scan = jacobi.conjugate_grid_scan(
        curve, phi_count=s["phi_grid"], t_count=s["t_grid"], t_max=s["t_max"],
        n_max=s["steps"], workers=s["workers"])
    # the unscanned fields appear only when some seed could not be stepped,
    # so every other report keeps its bytes
    n_unscanned = scan.unscanned_count
    index = scan.n_conjugate.tolist()
    if s["format"] == "csv":
        out.write("seed_phi,seed_t,n_conjugate\n")
        out.write("".join([f"{phi},{t},{'' if n < 0 else n}\n" for phi, t, n in zip(
            serialize.g17_fields(scan.seed_phi), serialize.g17_fields(scan.seed_t), index)]))
        if n_unscanned:
            out.write(f"# unscanned_rows={n_unscanned}\n")
        return EXIT_OK
    doc = {"found_count": scan.found_count}
    if n_unscanned:
        doc["unscanned_count"] = n_unscanned
    rows = {"seed_phi": scan.seed_phi, "seed_t": scan.seed_t,
            "n_conjugate": [None if n < 0 else n for n in index],
            "unscanned": dict.fromkeys((~scan.steppable).nonzero()[0].tolist(), UNSCANNED)}
    doc.update(rows=serialize.Rows(len(index), rows), config=_echo(s))
    out.write(serialize.dumps(doc))
    return EXIT_OK


def cmd_rigidity(curve, s, out):
    report = rigidity.rigidity_report(
        curve, phi_grid=s["phi_grid"], t_max=s["t_max"], equality_tol=s["tol"])
    doc = {**dataclasses.asdict(report), "config": _echo(s)}
    if s["conjugate_scan"]:
        scan = jacobi.conjugate_grid_scan(
            curve, phi_count=s["t_grid"], t_count=s["t_grid"], t_max=SCAN_T_MAX,
            n_max=s["steps"], workers=s["workers"])
        # the first hit in grid order; a hit is always steppable, so no unscanned key
        first = None
        if scan.found_count:
            i = (scan.n_conjugate >= 0).nonzero()[0][0]
            first = {"seed_phi": float(scan.seed_phi[i]), "seed_t": float(scan.seed_t[i]),
                     "n_conjugate": int(scan.n_conjugate[i])}
        doc["conjugate_scan"] = {
            "seeds": scan.seed_phi.size, "n_max": s["steps"], "t_max": SCAN_T_MAX,
            "found_count": scan.found_count, "first_found": first}
    out.write(serialize.dumps(doc))
    return EXIT_OK


COMMANDS = {"simulate": cmd_simulate, "portrait": cmd_portrait, "verify": cmd_verify,
            "rigidity": cmd_rigidity, "twist-scan": cmd_twist_scan,
            "conjugate-scan": cmd_conjugate_scan}


# -- entry points ----------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        s = settings(args)
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
            return COMMANDS[args.cmd](curve, s, out)
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CURVE
    except MemoryError as exc:      # a grid too large to allocate
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_INVALID_CURVE
    except (TangencyError, InsideCurveError) as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"error: dynamics failure{where}: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except (ConvergenceError, NotInteriorError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
