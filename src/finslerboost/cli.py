"""Command-line front end.

Every number printed is produced by a library call.  Output is JSON with
stable key order; identical argv and seed give byte-identical output.
Exit codes: 0 success, 1 usage error, 2 domain error, 3 check failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import boost, spinor, subgroups, velocity_space
from .core import (
    AnisotropySpec,
    DomainError,
    FourVector,
    OutOfRange,
    UnitVector3,
    Velocity3,
    _unit3,
    _vel3,
    bispinor_to_json,
    finsler_interval_sq,
    matrix_to_json,
    minkowski_interval,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as -1e-3, -0.5,0,0 or -inf is an option's value,
        # not an unknown option
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _floats(text: str, count: int, what: str) -> tuple:
    """count finite floats, comma-separated; argparse prefixes an error with
    the option's name."""
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(
            f"{what} needs {count} comma-separated numbers, got {text!r}"
        )
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"{what} has a non-finite component: {text!r}")
    return values


def _finite(text: str) -> float:
    return _floats(text, 1, "number")[0]


def _triple(text: str) -> tuple:
    return _floats(text, 3, "vector")


def _four(text: str) -> tuple:
    return _floats(text, 4, "event")


def _psi(text: str) -> tuple:
    vals = _floats(text, 8, "bispinor (re,im interleaved)")
    return tuple(complex(re, im) for re, im in zip(vals[0::2], vals[1::2]))


def _resolution(text: str) -> tuple:
    n1, _, n2 = text.partition("x")
    try:
        grid = (int(n1), int(n2))
    except ValueError:
        grid = (0, 0)
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(
            f"bad resolution {text!r}: need ROWSxCOLS, each at least 1"
        )
    return grid


def _emit(obj: dict) -> None:
    """Print obj as strict JSON.  A value holding inf or NaN prints nothing
    and raises OutOfRange naming its key."""
    for key, value in obj.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise OutOfRange(f"{key} is not finite") from None
    sys.stdout.write(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _params(args, nu, suffix=""):
    """The boost given as (--n, --alpha) or as --v."""
    n = getattr(args, "n" + suffix, None)
    alpha = getattr(args, "alpha" + suffix, None)
    v = getattr(args, "v" + suffix, None)
    if v is not None:
        if n is not None or alpha is not None:
            raise argparse.ArgumentTypeError("give either (n, alpha) or v, not both")
        return boost.params_from_velocity(nu, Velocity3.from_array(v))
    if n is None or alpha is None:
        raise argparse.ArgumentTypeError(
            f"need --n{suffix} and --alpha{suffix}, or --v{suffix}"
        )
    return boost.BoostParams(UnitVector3.normalized(n), alpha)


def cmd_boost(args) -> int:
    nu = UnitVector3.normalized(args.nu)
    spec = AnisotropySpec(nu, args.r)
    params = _params(args, nu)
    if args.v is not None:
        vel = Velocity3.from_array(args.v)
    else:
        vel = boost.velocity_from_params(nu, params)
    dilation, mat = boost._generalized_rows(spec, params)
    out = {
        "matrix": matrix_to_json(mat),
        "params": params.to_json(),
        "velocity": vel.to_json(),
        "dilation": dilation,
    }
    if args.x is not None:
        out["x_prime"] = boost.apply_matrix(mat, FourVector.from_array(args.x)).to_json()
    _emit(out)
    return EXIT_OK


def cmd_compose(args) -> int:
    nu = UnitVector3.normalized(args.nu)
    g1 = _params(args, nu, "1")
    g2 = _params(args, nu, "2")
    g = boost.compose(nu, g1, g2)
    l1 = boost._boost_rows(nu, g1)
    l2 = boost._boost_rows(nu, g2)
    product = [[sum(r[k] * l1[k][j] for k in range(4)) for j in range(4)] for r in l2]
    diffs = [
        abs(p - q)
        for row, prow in zip(boost._boost_rows(nu, g), product)
        for p, q in zip(row, prow)
    ]
    # relative to the largest term that the product sums, at least 1 (the product
    # of the time-time entries, two gammas): the product itself may cancel to 0
    # where the composite is near the identity.  A term that overflows makes its
    # entry, and then the residual, not finite; so does a NaN entry, whatever its
    # position.
    size = max(abs(r[k] * l1[k][j]) for r in l2 for k in range(4) for j in range(4))
    residual = math.nan if any(map(math.isnan, diffs)) else max(diffs) / size
    _emit(
        {
            "params": g.to_json(),
            "velocity": boost.velocity_from_params(nu, g).to_json(),
            "residual": residual,
        }
    )
    return EXIT_OK


def _guarded(out: dict, key: str, fn) -> bool:
    try:
        out[key] = fn()
        return False
    except DomainError as exc:
        out[key] = {"error": type(exc).__name__, "message": str(exc)}
        return True


def cmd_invariants(args) -> int:
    if args.x is None and args.v is None and args.psi is None:
        raise argparse.ArgumentTypeError("nothing to compute: give --x, --v or --psi")
    nu = UnitVector3.normalized(args.nu)
    spec = AnisotropySpec(nu, args.r)
    out = {}
    failed = False
    if args.x is not None:
        x = FourVector.from_array(args.x)
        out["minkowski_interval"] = minkowski_interval(x)
        failed |= _guarded(
            out, "finsler_interval_sq", lambda: finsler_interval_sq(x, spec)
        )
        failed |= _guarded(
            out, "axial_invariants", lambda: subgroups.axial_invariants(spec, x).to_json()
        )
    if args.v is not None:
        v = Velocity3.from_array(args.v)
        out["horosphere_level"] = velocity_space.horosphere_level(nu, v)
        out["cylinder_level"] = velocity_space.cylinder_level(nu, v)
        out["dilation"] = boost.dilation_factor(spec, v)
    if args.psi is not None:
        psi = args.psi
        out["density"] = spinor._density(psi)
        failed |= _guarded(
            out,
            "finsler_bispinor_invariant",
            lambda: spinor.finsler_bispinor_invariant(spec, psi),
        )
    _emit(out)
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_spinor(args) -> int:
    nu = UnitVector3.normalized(args.nu)
    spec = AnisotropySpec(nu, args.r)
    v = Velocity3.from_array(args.v)
    psi_p = spinor._apply(spinor._bispinor_blocks(_unit3(nu), _vel3(v), spec.r), args.psi)
    _emit(
        {
            "psi_prime": bispinor_to_json(psi_p),
            "dilation": boost.dilation_factor(spec, v),
        }
    )
    return EXIT_OK


def cmd_check(args) -> int:
    if args.samples < 0:
        raise argparse.ArgumentTypeError(
            f"--samples must be non-negative, got {args.samples}"
        )
    if args.seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be non-negative, got {args.seed}")
    from . import checks

    for name in args.suite or ():
        try:
            checks._suite_index(name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    names = args.suite if args.suite else list(checks.SUITES)
    reports = checks.run_all(names, seed=args.seed, samples=args.samples)
    passed = all(r.passed for r in reports)
    _emit(
        {
            "seed": args.seed,
            "samples": args.samples,
            "pass": passed,
            "suites": [r.to_json() for r in reports],
        }
    )
    return EXIT_OK if passed else EXIT_CHECK


def cmd_surface(args) -> int:
    nu = UnitVector3.normalized(args.nu)
    sample = velocity_space.sample_surface(
        nu, args.family, args.level, args.resolution, extent=args.extent
    )
    if args.family == "cylinder" and args.level == 0.0:
        sys.stderr.write(
            "warning: cylinder level 0 degenerates to the diameter parallel to nu;"
            f" the {args.resolution[1]} columns of --resolution are not used\n"
        )
    try:
        with open(args.output, "w", newline="") as fh:
            if args.format == "json":
                json.dump(sample.to_json(), fh, indent=2)
                fh.write("\n")
            else:
                sample.write_csv(fh)
    except OSError as exc:
        sys.stderr.write(f"error writing {args.output}: {exc}\n")
        return EXIT_DOMAIN
    _emit(
        {
            "family": sample.family,
            "level": sample.level,
            "points": len(sample.points),
            "path": args.output,
        }
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="finslerboost", description=__doc__)
    nu_parent = _Parser(add_help=False)
    nu_parent.add_argument("--nu", type=_triple, required=True,
                           help="preferred direction, comma triple (normalized)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boost", parents=[nu_parent], help="build one generalized boost")
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--n", type=_triple)
    p.add_argument("--alpha", type=_finite)
    p.add_argument("--v", type=_triple)
    p.add_argument("--x", type=_four, help="optional event to transform")
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("compose", parents=[nu_parent], help="compose two boosts")
    for suffix in ("1", "2"):
        p.add_argument(f"--n{suffix}", type=_triple)
        p.add_argument(f"--alpha{suffix}", type=_finite)
        p.add_argument(f"--v{suffix}", type=_triple)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("invariants", parents=[nu_parent], help="report invariants")
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--x", type=_four)
    p.add_argument("--v", type=_triple)
    p.add_argument("--psi", type=_psi)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("spinor", parents=[nu_parent], help="transform a bispinor")
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--v", type=_triple, required=True)
    p.add_argument("--psi", type=_psi, required=True)
    p.set_defaults(func=cmd_spinor)

    p = sub.add_parser("check", help="run conformance suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--suite", action="append",
                   help="run only this suite (repeatable; default: all suites)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("surface", parents=[nu_parent], help="export an invariant surface")
    p.add_argument("--family", choices=["horosphere", "cylinder"], required=True)
    p.add_argument("--level", type=_finite, required=True)
    p.add_argument("--resolution", type=_resolution, default="8x8", help="grid, e.g. 8x8")
    p.add_argument("--extent", type=_finite, default=2.0,
                   help="half-width of the parameter grid")
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return EXIT_USAGE
    except (DomainError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"{parser.prog}: {type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
