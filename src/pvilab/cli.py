"""Command-line front end: JSON reports and CSV grids for the library.

Subcommands:
  eval    lambda_{r,s}, t and wp(p) at a given (r, s, tau)
  zeros   locate zeros of Z2_{r,s} over a fundamental domain
  count   P(N), pole counts, M_N zero count and valence bookkeeping
  orbits  witnessed orbit classification and the BFS partition for Q_N
  scan    CSV grid of Z2 over a tau rectangle, or of windings over (r, s)
  verify  run the acceptance suite; exit 0 iff all criteria pass

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 acceptance
failure.  Complex numbers are written "a+bi", rationals "p/q".
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    BoundaryTooClose,
    DomainError,
    IncoherentWinding,
    PviLabError,
)
from .elliptic import ModuliPoint
from .locator import (
    MAX_N,
    DomainSpec,
    classify_triangle,
    locate_zeros,
    valence_check,
    winding_count,
)
from .orbits import (
    classify_orbit,
    enumerate_qn,
    orbit_brute_force,
    p_of_n,
    pole_count,
    qn_size,
)
from .premodular import TorsionPair, z2_stable
from .report import Report, parse_rational_or_float
from .solutions import lambda_rs

CSV_HEADER = "re,im,value_re,value_im,abs,winding"


def number(text: str):
    """argparse type of --r, --s and --tau, so that a malformed number is a
    usage error: "p/q" or an integer -> Fraction, "a+bi" -> complex, else
    float."""
    try:
        return parse_rational_or_float(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def grid_size(text: str) -> int:
    """argparse type of --nx and --ny: an integer >= 1, so that an empty
    grid is a usage error."""
    n = int(text)
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    return n


def finite(text: str) -> float:
    """argparse type of --re-min, --re-max, --im-min and --im-max: a finite
    float, so that a NaN or infinite bound is a usage error."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"bound must be finite, got {x}")
    return x


def _pair(args) -> TorsionPair:
    if args.r is None or args.s is None:
        raise DomainError("--r and --s are required")
    return TorsionPair.of(args.r, args.s)


def _report(command: str, inputs: dict, results: dict, t0: float, **diagnostics) -> Report:
    """The report of one subcommand; its diagnostics always carry the wall
    time since t0."""
    diagnostics["timings"] = {command: time.time() - t0}
    return Report(
        command=command,
        inputs=inputs,
        results=results,
        diagnostics=diagnostics,
        version=__version__,
    )


def _emit(report: Report, args) -> None:
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_eval(args) -> int:
    pair = _pair(args)
    if args.tau is None:
        raise DomainError("--tau is required")
    m = ModuliPoint.from_tau(complex(args.tau))
    t0 = time.time()
    sv = lambda_rs(pair, m)
    results = {
        "t": sv.t,
        "wp_p": sv.wp_p,
        "lambda": sv.lam,
        "is_pole": sv.is_pole,
        "branch_copy": sv.branch_note,
        "alpha": sv.alpha,
    }
    inputs = {"r": pair.r, "s": pair.s, "tau": m.tau}
    _emit(_report("eval", inputs, results, t0, est_error=sv.est_error), args)
    return 0


def _cmd_zeros(args) -> int:
    pair = _pair(args)
    d = DomainSpec(args.domain)
    t0 = time.time()
    w = winding_count(pair, d)
    certs = locate_zeros(pair, d, expected=w)
    results = {
        "winding": w,
        "triangle": classify_triangle(pair).tag,
        "zeros": [
            {
                "tau0": c.tau0,
                "residual": c.residual,
                "dz_mag": c.dz_mag,
                "newton_iters": c.newton_iters,
            }
            for c in certs
        ],
    }
    inputs = {"r": pair.r, "s": pair.s, "domain": d.kind}
    _emit(_report("zeros", inputs, results, t0), args)
    return 0


def _cmd_count(args) -> int:
    N = args.N
    if N is None or N < 3:
        raise DomainError("--N must be an integer >= 3")
    t0 = time.time()
    nsol, per = pole_count(N)
    results = {
        "N": N,
        "Q_N_size": qn_size(N),
        "P": p_of_n(N),
        "solutions": nsol,
        "poles_per_solution": per,
    }
    if N <= MAX_N:
        results["valence"] = valence_check(N)
        results["merge_events"] = results["valence"].pop("merge_events")
    _emit(_report("count", {"N": N}, results, t0), args)
    return 0


def _cmd_orbits(args) -> int:
    N = args.N
    if N is None or N < 3:
        raise DomainError("--N must be an integer >= 3")
    t0 = time.time()
    classes = orbit_brute_force(N)
    reports = []
    for pr in enumerate_qn(N):
        rep = classify_orbit(pr)
        reports.append(
            {
                "pair": [Fraction(pr.k1, pr.N), Fraction(pr.k2, pr.N)],
                "representative": [
                    Fraction(rep.representative.k1, N),
                    Fraction(rep.representative.k2, N),
                ],
                "gamma": list(rep.gamma_witness.as_tuple()),
                "shift": list(rep.shift),
            }
        )
    results = {
        "N": N,
        "classes": len(classes),
        "class_sizes": sorted(len(c) for c in classes),
        "elements": reports,
    }
    _emit(_report("orbits", {"N": N}, results, t0), args)
    return 0


def _scan_tau(args, pair: TorsionPair, nx: int, ny: int) -> list[str]:
    x0, x1 = args.re_min, args.re_max
    y0, y1 = args.im_min, args.im_max
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    rows = []
    for y in ys:
        for x in xs:
            val, _ = z2_stable(pair, ModuliPoint.from_tau(complex(x, y)))
            rows.append(f"{x!r},{y!r},{val.real!r},{val.imag!r},{abs(val)!r},")
    return rows


def _scan_winding(args, nx: int, ny: int) -> list[str]:
    d = DomainSpec(args.domain)
    x0, x1 = args.re_min, args.re_max
    y0, y1 = args.im_min, args.im_max
    rs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ss = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    rows = []
    for s in ss:
        for r in rs:
            try:
                w = winding_count(TorsionPair.of(r, s), d)
                rows.append(f"{r!r},{s!r},,,,{w}")
            except PviLabError:
                rows.append(f"{r!r},{s!r},,,,")
    return rows


def _cmd_scan(args) -> int:
    nx, ny = args.nx, args.ny
    t0 = time.time()
    if args.mode == "z2":
        pair = _pair(args)
        rows = _scan_tau(args, pair, nx, ny)
        inputs = {
            "mode": "z2",
            "r": pair.r,
            "s": pair.s,
            "rect": [args.re_min, args.re_max, args.im_min, args.im_max],
        }
    else:
        rows = _scan_winding(args, nx, ny)
        inputs = {
            "mode": "winding",
            "domain": args.domain,
            "rect": [args.re_min, args.re_max, args.im_min, args.im_max],
        }
    csv_text = "\n".join([CSV_HEADER] + rows) + "\n"
    # stdout carries one document: the CSV, or the report when the CSV has
    # its own file
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(_report("scan", inputs, {"rows": len(rows)}, t0).to_json())
    else:
        print(csv_text, end="")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all()
    n_failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_failed}/{len(results)} criteria passed")
    return 0 if n_failed == 0 else 3


_FLAGS = {
    "--N": dict(type=int, default=None),
    "--r": dict(type=number, default=None, help="rational p/q, float or a+bi"),
    "--s": dict(type=number, default=None),
    "--tau": dict(type=number, default=None, help="complex a+bi, Im > 0"),
    "--domain": dict(choices=("F0", "F", "F2"), default="F0"),
    "--out": dict(type=str, default=None),
    "--mode": dict(choices=("z2", "winding"), default="z2"),
    "--re-min": dict(type=finite, default=0.0),
    "--re-max": dict(type=finite, default=1.0),
    "--im-min": dict(type=finite, default=0.1),
    "--im-max": dict(type=finite, default=2.0),
    "--nx": dict(type=grid_size, default=21),
    "--ny": dict(type=grid_size, default=21),
}

# Each subcommand accepts exactly the flags its handler reads.
_SUBCOMMANDS = (
    ("eval", "lambda_{r,s}, t, wp(p) at (r, s, tau)", ("--r", "--s", "--tau", "--out")),
    ("zeros", "locate zeros of Z2 over a domain", ("--r", "--s", "--domain", "--out")),
    ("count", "pole-count formulas and valence for N", ("--N", "--out")),
    ("orbits", "orbit classification for Q_N", ("--N", "--out")),
    (
        "scan",
        "CSV grid of Z2 or windings",
        ("--mode", "--r", "--s", "--domain", "--re-min", "--re-max",
         "--im-min", "--im-max", "--nx", "--ny", "--out"),
    ),
    ("verify", "run the acceptance suite", ()),
)


# Built once per process: parsing reads the parser and never changes it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pvilab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return ap


_DISPATCH = {
    "eval": _cmd_eval,
    "zeros": _cmd_zeros,
    "count": _cmd_count,
    "orbits": _cmd_orbits,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = _DISPATCH[args.cmd](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # exit does not raise again (the SIGPIPE note of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BoundaryTooClose, IncoherentWinding, ArithmeticError) as exc:
        # ArithmeticError: a kernel divides by a value that rounds or
        # underflows to 0 at an extreme tau, such as e2 - e1 or j**2
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PviLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
