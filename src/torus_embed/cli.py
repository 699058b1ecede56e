"""Command-line interface: embed, verify, gen, inspect.

Exit codes are a stable contract, mapped from typed errors by the one table
in `main`: 0 success / verification pass, 1 usage error or unreadable or
malformed input or certificate, 2 input is not a simplex or has fewer than
two points, 3 verification failed.
A `squared_distances` input is embedded as given, not through points.
`main(argv)` may be called any number of times in one process: the parser
is built on the first call and reused, and the `torus-embed` console
script, one call per process, runs as before.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .certificate import (
    DEFAULT_ACCEPT_TOL,
    dumps_canonical,
    load_certificate,
    parse_json,
    read_number_matrix,
    save_certificate,
    verify_certificate,
)
from .errors import (
    InputError,
    InvalidCertificate,
    NotEuclidean,
    NotSimplex,
    TrivialInput,
    VerificationFailed,
)
from .gen import KINDS, generate_points
from .geometry import check_squared_distances
from .pipeline import embed_simplex, embed_squared_distances


def _load_input(path):
    """The embed function for an `embed` input file and its argument: the
    points, or the validated squared-distance matrix, which is certified as
    given. Any fault raises InputError("cannot read input: ...")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = parse_json(fh.read(), InputError)
        if not isinstance(data, dict):
            raise InputError("input must be a JSON object")
        if "points" in data:
            return embed_simplex, read_number_matrix(data["points"], "'points'", InputError)
        if "squared_distances" in data:
            matrix = read_number_matrix(
                data["squared_distances"], "'squared_distances'", InputError
            )
            return embed_squared_distances, check_squared_distances(matrix)
        raise InputError("input must contain 'points' or 'squared_distances'")
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise InputError(f"cannot read input: {exc}") from None


def _read_certificate(path):
    try:
        return load_certificate(path)
    except OSError as exc:
        raise InputError(f"cannot read certificate: {exc}") from None


def _cmd_embed(args) -> int:
    embed, data = _load_input(args.input)
    cert = embed(data)
    try:
        save_certificate(cert, args.output)
    except OSError as exc:
        raise InputError(f"cannot write certificate: {exc}") from None
    if not args.quiet:
        print(f"wrote certificate: {args.output}")
        print(
            f"points: {len(cert.assignment)}  torus factors: {len(cert.torus.factors)}  "
            f"ambient dimension: {cert.torus.ambient_dim}"
        )
        print(
            f"max abs error: {cert.errors['max_abs']:.3e}  "
            f"max rel error: {cert.errors['max_rel']:.3e}  (tolerance {DEFAULT_ACCEPT_TOL:g})"
        )
    return 0


def _cmd_verify(args) -> int:
    report = verify_certificate(_read_certificate(args.cert), args.tolerance)
    print(
        f"pairs: {report.pair_count}  max abs error: {report.max_abs_error:.6e}  "
        f"max rel error: {report.max_rel_error:.6e}  tolerance: {report.tolerance:g}"
    )
    if report.passed:
        print("PASS")
        return 0
    print(f"FAIL  worst pair: {report.worst_pair}")
    return 3


def _cmd_gen(args) -> int:
    points = generate_points(args.kind, args.n, seed=args.seed, noise=args.noise)
    text = dumps_canonical({"points": [[float(v) for v in row] for row in points]})
    if args.output is None:
        print(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from None
    return 0


def _inspect_summary(cert) -> dict:
    factors = cert.torus.factors
    orders = Counter(f.m for f in factors)
    radii = [f.r for f in factors]
    return {
        "points": len(cert.assignment),
        "scale": cert.scale,
        "factor_count": len(factors),
        "ambient_dim": cert.torus.ambient_dim,
        "polygon_orders": [
            {"m": str(m), "bits": m.bit_length(), "count": count}
            for m, count in sorted(orders.items())
        ],
        "radius_min": min(radii),
        "radius_max": max(radii),
        "alpha": cert.parameters.get("alpha"),
        "scale_exponent": cert.parameters.get("scale_exponent"),
        "delta": cert.parameters.get("delta"),
        "errors": cert.errors,
    }


def _provenance(value, spec: str) -> str:
    # verification never reads provenance, so a value other than a number is
    # shown as given; the reader keeps every number within the double range
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, spec)
    return str(value)


def _cmd_inspect(args) -> int:
    cert = _read_certificate(args.cert)
    summary = _inspect_summary(cert)
    if args.as_json:
        print(dumps_canonical(summary))
        return 0
    print(f"points:            {summary['points']}")
    print(f"torus factors:     {summary['factor_count']}")
    print(f"ambient dimension: {summary['ambient_dim']}")
    print("polygon orders:")
    for entry in summary["polygon_orders"]:
        print(f"  m = {entry['m']} ({entry['bits']} bits) x{entry['count']}")
    print(f"radius range:      [{summary['radius_min']:.6g}, {summary['radius_max']:.6g}]")
    if summary["alpha"] is not None:
        print(f"alpha:             {_provenance(summary['alpha'], '.6g')}")
    if summary["delta"] is not None:
        print(f"delta:             {_provenance(summary['delta'], '.6g')}")
    if summary["scale_exponent"] is not None:
        print(f"scale exponent:    {_provenance(summary['scale_exponent'], '')}")
    if errors := summary["errors"]:
        print(
            f"errors:            max_abs {_provenance(errors.get('max_abs'), '.3e')}  "
            f"max_rel {_provenance(errors.get('max_rel'), '.3e')}"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, to exit 1 by `main`'s table: argparse's
    own exit code 2 means "not a simplex" here. Subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torus-embed",
        description="Isometric embedding of simplices into regular polygonal tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed a simplex and write a certificate")
    p_embed.add_argument("input", help="JSON file with 'points' or 'squared_distances'")
    p_embed.add_argument("output", help="certificate output path")
    p_embed.add_argument("--quiet", action="store_true")
    p_embed.set_defaults(func=_cmd_embed)

    p_verify = sub.add_parser("verify", help="verify a certificate")
    p_verify.add_argument("cert", help="certificate path")
    p_verify.add_argument("--tolerance", type=float, default=DEFAULT_ACCEPT_TOL,
                          help="relative tolerance (default %(default)g)")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a test input")
    p_gen.add_argument("kind", choices=KINDS)
    p_gen.add_argument("n", type=int, help="number of points")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise", type=float, default=0.01,
                       help="coordinate noise magnitude for 'perturbed'")
    p_gen.add_argument("--output", "-o", default=None,
                       help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_inspect = sub.add_parser("inspect", help="summarize a certificate")
    p_inspect.add_argument("cert", help="certificate path")
    p_inspect.add_argument("--json", action="store_true", dest="as_json")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    """Run one command; the one table from typed error to exit code and message."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotEuclidean:
        code, message = 2, "input is not a simplex (squared distances are not Euclidean)"
    except NotSimplex:
        code, message = 2, "input is not a simplex"
    except TrivialInput:
        code, message = 2, "input has fewer than two points"
    except VerificationFailed as exc:
        code, message = 3, str(exc)
    except InvalidCertificate as exc:
        code, message = 1, f"invalid certificate: {exc}"
    except InputError as exc:
        code, message = 1, str(exc)
    print(f"torus-embed: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
