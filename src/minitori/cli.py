"""Command-line front end.

Exit codes: 0 verified / success, 1 falsified, 2 indeterminate or
infeasible/construction failure, 64 usage error, 65 malformed file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import io as cio
from .certificates import (MatrixData, embeddedness, is_homogeneous, reduce_target_dimension,
                           verify_full, verify_matrix_data)
from .constructions import (Bryant2TorusParams, ConstructionError, PythagoreanParams,
                            RationalPipelineConfig, catalog, catalog_descriptions,
                            bryant_2torus, construct_pencil_3torus, construct_rational,
                            pythagorean_family)
from .lattices import eigenfunction_index, enumerate_norm, shortest_vectors, spectrum
from .optimize import InfeasibleRegion, columns_from_matrix
from .scalars import parse_rational
from .symmetric import SymMatrix, determinant, is_positive_definite

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_gram(spec: str) -> SymMatrix:
    """Gram matrix from 'I<n>', 'diag:a,b,c', or a JSON file {"rows": [...]}."""
    if spec.startswith("I") and spec[1:].isdigit():
        if int(spec[1:]) < 1:
            raise UsageError(f"gram {spec!r}: the dimension must be at least 1")
        return SymMatrix.identity(int(spec[1:]))
    if spec.startswith("diag:"):
        return SymMatrix.diag([_rational_flag("gram diag entry", v) for v in spec[5:].split(",")])
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read gram file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise cio.CertificateFormatError(f"gram file {spec!r}: {exc}") from exc
    rows = doc["rows"] if isinstance(doc, dict) else doc
    return SymMatrix([[parse_rational(x) if isinstance(x, str) else x for x in row]
                      for row in rows])


def _rational_flag(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{name} {text!r} is not a rational number p or p/q") from exc


def load_y(path: str):
    """Integer matrix rows from a whitespace-separated text file; returns columns."""
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    rows.append([int(tok) for tok in line.split()])
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read vector file {path!r}: {exc}") from exc
    if not rows:
        raise UsageError(f"vector file {path!r} is empty")
    return columns_from_matrix(rows)


def _report_exit(report) -> int:
    return {"verified": EXIT_VERIFIED, "falsified": EXIT_FALSIFIED,
            "indeterminate": EXIT_INDETERMINATE}[report.verdict]


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"verdict: {report.verdict}" + (f" ({report.reason})" if report.reason else ""))
    for key, val in report.residuals.items():
        print(f"  residual {key}: {val:.3e}")
    if report.psd_margin is not None:
        print(f"  psd margin: {report.psd_margin:.3e}")


def _eigenfunction_index_if_cheap(data: MatrixData):
    if data.q.regime == "algebraic":  # lattice enumeration needs a rational or float Gram
        return None
    try:
        det = float(determinant(data.q))
        est = 4.0 / 3.0 * math.pi / math.sqrt(det)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if est > 2e5:
        return None
    try:
        return eigenfunction_index(data.q, Fraction(1))
    except (ValueError, RuntimeError):
        return None


def _summarize(data: MatrixData) -> None:
    print(f"classes N = {data.big_n}, sphere dimension = {data.sphere_dim}")
    degree = data.metadata.get("degree")
    if degree is not None:
        print(f"extension degree = {degree}")
    emb = embeddedness(data.y, exhaustive=_exhaustive_is_cheap(data.y))
    print(f"embeddedness: {emb.status}"
          + (f" (witness {tuple(str(x) for x in emb.witness)})" if emb.witness else ""))
    k = _eigenfunction_index_if_cheap(data)
    if k is not None:
        print(f"eigenfunction index k = {k}")


def _exhaustive_is_cheap(y) -> bool:
    cols = list(y)
    n = len(cols[0])
    bounds = sorted(sum(abs(v) for v in c) for c in cols)[:n]
    vol = 1
    for b in bounds:
        vol *= 2 * b - 1
    return vol <= 2 * 10**5


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    # NaN passes every tolerance comparison, and a negative tolerance fails them all
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, not {args.tol!r}")
    try:
        with open(args.path) as fh:
            cert = cio.parse(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    if isinstance(cert, MatrixData):
        report = verify_matrix_data(cert, tol=args.tol)
    else:
        gram, q, y, _ = cert
        report = verify_full(gram, (q, y), tol=args.tol)
    if args.exhaustive_embedding:
        yy = cert.y if isinstance(cert, MatrixData) else cert[2]
        emb = embeddedness(yy, exhaustive=True)
        print(f"embeddedness: {emb.status}"
              + (f" (witness {tuple(str(x) for x in emb.witness)})" if emb.witness else ""))
    _print_report(report, args.format)
    return _report_exit(report)


def cmd_construct(args) -> int:
    try:
        if args.what == "rational":
            cfg = RationalPipelineConfig(q=load_gram(args.gram), seed=args.seed,
                                         sample_count=args.samples,
                                         max_denominator=args.max_denominator)
            data = construct_rational(cfg)
        elif args.what == "pencil":
            data, report = construct_pencil_3torus(load_y(args.Y), require=args.require)
            meta = dict(data.metadata)
            if report.minpoly is not None:
                meta["minpoly"] = list(report.minpoly)
            data = MatrixData(q=data.q, y=data.y, weights=data.weights, metadata=meta)
        elif args.what == "pythagorean":
            p, q, r = args.triple
            res = pythagorean_family(PythagoreanParams(
                triple=(p, q, r), r1=args.r1, r2=args.r2,
                phi1=args.phi1, psi1=args.psi1, phi2=args.phi2, psi2=args.psi2))
            text = cio.emit((res.gram, res.q, res.y),
                            metadata={"construction": "pythagorean",
                                      "triple": list(args.triple),
                                      "homogeneous": is_homogeneous(res.gram)})
            _write_or_print(text, args.output)
            print(f"classes N = 12, sphere dimension = 23, "
                  f"homogeneous = {is_homogeneous(res.gram)}")
            return EXIT_VERIFIED
        elif args.what == "bryant":
            m, n = args.mn
            params = Bryant2TorusParams(m=m, n=n, rho=args.rho,
                                        rho_scaled=(parse_rational(args.rho_scaled)
                                                    if args.rho_scaled else None))
            data = bryant_2torus(params)
        else:  # pragma: no cover
            raise UsageError(f"unknown construction {args.what!r}")
    except (ConstructionError, InfeasibleRegion, ValueError, TypeError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    _write_or_print(cio.emit(data), args.output)
    _summarize(data)
    return EXIT_VERIFIED


def cmd_enumerate(args) -> int:
    if args.spectrum is not None and args.spectrum < 1:
        raise UsageError(f"--spectrum must be a positive integer, not {args.spectrum}")
    target = None if args.target is None else _rational_flag("--target", args.target)
    if target is not None and target <= 0:
        raise UsageError(f"--target must be positive, not {args.target}")
    try:
        gram = load_gram(args.gram)
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    if is_positive_definite(gram) is not True:
        print("error: gram matrix is not positive definite", file=sys.stderr)
        return EXIT_INDETERMINATE
    if args.spectrum is not None:
        for line in spectrum(gram, args.spectrum):
            print(f"eigenvalue {line.eigenvalue:.12g}  multiplicity {line.multiplicity}"
                  f"  (|xi|^2 = {line.norm})")
        return EXIT_VERIFIED
    if args.shortest:
        lam, classes = shortest_vectors(gram)
        print(f"lambda_1 = {lam}")
        for c in classes:
            print(" ", c)
        return EXIT_VERIFIED
    if target is None:
        print("error: one of --target, --shortest, --spectrum is required", file=sys.stderr)
        return EXIT_USAGE
    classes = enumerate_norm(gram, target)
    print(f"{len(classes)} classes of norm {classes.target}"
          + ("" if classes.complete else " (INCOMPLETE: box bound hit)"))
    for c in classes:
        print(" ", c)
    return EXIT_VERIFIED


def cmd_reduce(args) -> int:
    try:
        with open(args.path) as fh:
            cert = cio.parse(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    if not isinstance(cert, MatrixData):
        print("error: reduce expects a homogeneous certificate", file=sys.stderr)
        return EXIT_FALSIFIED
    try:
        reduced = reduce_target_dimension(cert)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    print(f"sphere dimension {cert.sphere_dim} -> {reduced.sphere_dim} "
          f"(classes {cert.big_n} -> {reduced.big_n})")
    _write_or_print(cio.emit(reduced), args.output)
    return EXIT_VERIFIED


def cmd_catalog(args) -> int:
    if args.list:
        for cid, desc in catalog_descriptions():
            print(f"{cid:14s} {desc}")
        return EXIT_VERIFIED
    if not args.id:
        print("error: an id or --list is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = catalog(args.id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    _write_or_print(cio.emit(data), args.output)
    return EXIT_VERIFIED


def build_parser() -> _Parser:
    parser = _Parser(prog="minitori",
                     description="Minimal isometric immersions of flat tori into spheres: "
                                 "construct, verify, enumerate and reduce certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a certificate file")
    pv.add_argument("path")
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.add_argument("--exhaustive-embedding", action="store_true")
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("construct", help="run a construction pipeline")
    csub = pc.add_subparsers(dest="what", required=True)

    pr = csub.add_parser("rational", help="rational torus via sampling + exact LP")
    pr.add_argument("--gram", required=True,
                    help="I<n>, diag:a,b,c or a JSON file with rational rows")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--samples", type=int, default=48)
    pr.add_argument("--max-denominator", type=int, default=10**4)
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=cmd_construct)

    pp = csub.add_parser("pencil", help="3-torus from an integer vector set")
    pp.add_argument("--Y", required=True, help="text file: rows of the 3 x N matrix")
    pp.add_argument("--require", choices=("rank4", "rank5"))
    pp.add_argument("-o", "--output")
    pp.set_defaults(func=cmd_construct)

    py = csub.add_parser("pythagorean", help="non-homogeneous 12-class family")
    py.add_argument("--triple", nargs=3, type=int, required=True, metavar=("P", "Q", "R"))
    py.add_argument("--r1", type=float, default=0.0)
    py.add_argument("--r2", type=float, default=0.0)
    py.add_argument("--phi1", type=float, default=0.0)
    py.add_argument("--psi1", type=float, default=0.0)
    py.add_argument("--phi2", type=float, default=0.0)
    py.add_argument("--psi2", type=float, default=0.0)
    py.add_argument("-o", "--output")
    py.set_defaults(func=cmd_construct)

    pb = csub.add_parser("bryant", help="one-parameter family of flat 2-tori in S^7")
    pb.add_argument("--mn", nargs=2, type=int, required=True, metavar=("M", "N"))
    pb.add_argument("--rho", type=float)
    pb.add_argument("--rho-scaled", help="exact ratio rho*2b in [0,1], e.g. 1/2")
    pb.add_argument("-o", "--output")
    pb.set_defaults(func=cmd_construct)

    pe = sub.add_parser("enumerate", help="lattice norm classes / spectrum")
    pe.add_argument("--gram", required=True)
    pe.add_argument("--target", help="rational norm value, e.g. 1 or 3/4")
    pe.add_argument("--shortest", action="store_true")
    pe.add_argument("--spectrum", type=int, metavar="K")
    pe.set_defaults(func=cmd_enumerate)

    pd = sub.add_parser("reduce", help="Caratheodory-reduce a homogeneous certificate")
    pd.add_argument("path")
    pd.add_argument("-o", "--output")
    pd.set_defaults(func=cmd_reduce)

    pg = sub.add_parser("catalog", help="worked-example certificates")
    pg.add_argument("id", nargs="?")
    pg.add_argument("--list", action="store_true")
    pg.add_argument("-o", "--output")
    pg.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
