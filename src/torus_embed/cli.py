"""Command-line interface: embed, verify, gen, inspect.

Exit codes are a stable contract: 0 success / verification pass, 1 malformed
input or certificate, 2 input is not a simplex, 3 verification failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from .certificate import (
    dumps_canonical,
    dumps_certificate,
    load_certificate,
    save_certificate,
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
from .geometry import centered_gram, realize
from .pipeline import (
    DEFAULT_ACCEPT_TOL,
    PipelineConfig,
    embed_simplex,
    verify_certificate,
)


def _fail(message: str, code: int) -> int:
    print(f"torus-embed: {message}", file=sys.stderr)
    return code


def _resolve_tolerance(value) -> float:
    if value is not None:
        return float(value)
    env = os.environ.get("TORUS_EMBED_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise InputError(f"TORUS_EMBED_TOL is not a number: {env!r}") from None
    return DEFAULT_ACCEPT_TOL


def _load_input_points(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    if "points" in data:
        arr = np.asarray(data["points"], dtype=float)
        if arr.ndim != 2:
            raise InputError("'points' must be an array of coordinate arrays")
        return arr
    if "squared_distances" in data:
        mat = np.asarray(data["squared_distances"], dtype=float)
        return realize(centered_gram(mat))
    raise InputError("input must contain 'points' or 'squared_distances'")


def _cmd_embed(args) -> int:
    try:
        tol = _resolve_tolerance(args.tolerance)
    except InputError as exc:
        return _fail(str(exc), 1)
    try:
        points = _load_input_points(args.input)
    except NotEuclidean:
        return _fail("input is not a simplex (squared distances are not Euclidean)", 2)
    except (OSError, json.JSONDecodeError, InputError, TypeError, ValueError) as exc:
        return _fail(f"cannot read input: {exc}", 1)
    cfg = PipelineConfig(
        accept_tol=tol,
        alpha_fraction=args.alpha_fraction,
        uniform_m=args.uniform_m,
    )
    try:
        cert = embed_simplex(points, cfg)
    except (NotSimplex, TrivialInput):
        return _fail("input is not a simplex", 2)
    except InputError as exc:
        return _fail(str(exc), 1)
    except VerificationFailed as exc:
        return _fail(str(exc), 3)
    try:
        save_certificate(cert, args.output)
    except OSError as exc:
        return _fail(f"cannot write certificate: {exc}", 1)
    if not args.quiet:
        print(f"wrote certificate: {args.output}")
        print(
            f"points: {len(cert.assignment)}  torus factors: {len(cert.torus.factors)}  "
            f"ambient dimension: {cert.torus.ambient_dim}"
        )
        print(
            f"max abs error: {cert.errors['max_abs']:.3e}  "
            f"max rel error: {cert.errors['max_rel']:.3e}  (tolerance {tol:g})"
        )
    return 0


def _cmd_verify(args) -> int:
    try:
        tol = _resolve_tolerance(args.tolerance)
        cert = load_certificate(args.cert)
        report = verify_certificate(cert, tol)
    except InputError as exc:
        return _fail(str(exc), 1)
    except InvalidCertificate as exc:
        return _fail(f"invalid certificate: {exc}", 1)
    except OSError as exc:
        return _fail(f"cannot read certificate: {exc}", 1)
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
    try:
        points = generate_points(args.kind, args.n, seed=args.seed, noise=args.noise)
    except InputError as exc:
        return _fail(str(exc), 1)
    text = dumps_canonical({"points": [[float(v) for v in row] for row in points]})
    if args.output is None:
        print(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 1)
    return 0


def _inspect_summary(cert) -> dict:
    factors = cert.torus.factors
    orders = Counter(f.m for f in factors)
    radii = [f.r for f in factors]
    return {
        "points": len(cert.assignment),
        "factor_count": len(factors),
        "ambient_dim": cert.torus.ambient_dim,
        "polygon_orders": [
            {"m": str(m), "bits": m.bit_length(), "count": count}
            for m, count in sorted(orders.items())
        ],
        "radius_min": min(radii),
        "radius_max": max(radii),
        "alpha": cert.parameters.get("alpha"),
        "delta": cert.parameters.get("delta"),
        "errors": cert.errors,
    }


def _provenance(value, spec: str) -> str:
    # verification never reads provenance, so a non-number is shown as given
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, spec)
    return str(value)


def _cmd_inspect(args) -> int:
    try:
        cert = load_certificate(args.cert)
    except InvalidCertificate as exc:
        return _fail(f"invalid certificate: {exc}", 1)
    except OSError as exc:
        return _fail(f"cannot read certificate: {exc}", 1)
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
    if cert.errors:
        print(
            f"errors:            max_abs {_provenance(cert.errors.get('max_abs'), '.3e')}  "
            f"max_rel {_provenance(cert.errors.get('max_rel'), '.3e')}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-embed",
        description="Isometric embedding of simplices into regular polygonal tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed a simplex and write a certificate")
    p_embed.add_argument("input", help="JSON file with 'points' or 'squared_distances'")
    p_embed.add_argument("output", help="certificate output path")
    p_embed.add_argument("--tolerance", type=float, default=None,
                         help="relative acceptance tolerance (default 1e-8)")
    p_embed.add_argument("--uniform-m", action="store_true", dest="uniform_m",
                         help="force every torus factor to the same polygon order")
    p_embed.add_argument("--alpha-fraction", type=float, default=1.0,
                         dest="alpha_fraction",
                         help="expansion fraction of the smallest Gram eigenvalue, in (0, 2)")
    p_embed.add_argument("--quiet", action="store_true")
    p_embed.set_defaults(func=_cmd_embed)

    p_verify = sub.add_parser("verify", help="verify a certificate")
    p_verify.add_argument("cert", help="certificate path")
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="relative tolerance (default 1e-8)")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
