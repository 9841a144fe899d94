"""Command-line front end.

The commands are one table, `COMMANDS`.  Each `main` call builds a fresh parser
of the branch its argv names, or of the whole tree when argv names no command.

Exit codes: 0 verified / success, 1 falsified, 2 indeterminate or
infeasible/construction failure, 64 usage error, 65 malformed file, 141
standard output closed early (128 + SIGPIPE; e.g. piped into `head`), with
no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


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
    rows = doc.get("rows") if isinstance(doc, dict) else doc
    try:
        if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)):
            raise ValueError("'rows' must be a nonempty list of lists")
        if any(isinstance(x, bool) for row in rows for x in row):  # bool is an int
            raise ValueError("entries must be numbers or 'p/q' strings, not booleans")
        q = SymMatrix([[parse_rational(x) if isinstance(x, str) else x for x in row]
                       for row in rows])
        if q.regime == "float" and not all(math.isfinite(x) for row in q.entries for x in row):
            raise ValueError("entries must be finite")
        return q
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise cio.CertificateFormatError(f"gram file {spec!r}: {exc}") from exc


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
    if any(len(row) != len(rows[0]) for row in rows):
        raise UsageError(f"vector file {path!r}: rows have unequal lengths "
                         f"{[len(row) for row in rows]}")
    return columns_from_matrix(rows)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: NaN and infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


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
    print(_embeddedness_line(embeddedness(data.y, exhaustive=_exhaustive_is_cheap(data.y))))
    k = _eigenfunction_index_if_cheap(data)
    if k is not None:
        print(f"eigenfunction index k = {k}")


def _embeddedness_line(emb) -> str:
    return (f"embeddedness: {emb.status}"
            + (f" (witness {tuple(str(x) for x in emb.witness)})" if emb.witness else ""))


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


def _read_certificate(path: str):
    """The certificate in the file `path`, or the exit code after saying on
    stderr why the file could not be read (64) or parsed (65)."""
    try:
        with open(path) as fh:
            return cio.parse(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def cmd_verify(args) -> int:
    # NaN passes every tolerance comparison, and a negative tolerance fails them all
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, not {args.tol!r}")
    cert = _read_certificate(args.path)
    if isinstance(cert, int):
        return cert
    if isinstance(cert, MatrixData):
        report = verify_matrix_data(cert, tol=args.tol)
    else:
        gram, q, y, _ = cert
        report = verify_full(gram, (q, y), tol=args.tol)
    if args.exhaustive_embedding:
        yy = cert.y if isinstance(cert, MatrixData) else cert[2]
        try:
            print(_embeddedness_line(embeddedness(yy, exhaustive=True)))
        except ValueError:  # rank(Y) < n: the columns of Y immerse no n-torus
            print("embeddedness: not applicable (rank(Y) < n)")
    _print_report(report, args.format)
    return _report_exit(report)


def cmd_construct(args) -> int:
    try:
        if args.what == "rational":
            q = load_gram(args.gram)
            try:
                cfg = RationalPipelineConfig(q=q, seed=args.seed, sample_count=args.samples,
                                             max_denominator=args.max_denominator)
            except ValueError as exc:  # --samples or --max-denominator out of range
                raise UsageError(str(exc)) from exc
            data = construct_rational(cfg)
        elif args.what == "pencil":
            data, report = construct_pencil_3torus(load_y(args.Y))
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
            rho_scaled = (_rational_flag("--rho-scaled", args.rho_scaled)
                          if args.rho_scaled is not None else None)
            data = bryant_2torus(Bryant2TorusParams(m=m, n=n, rho=args.rho,
                                                    rho_scaled=rho_scaled))
        else:  # pragma: no cover
            raise UsageError(f"unknown construction {args.what!r}")
    except cio.CertificateFormatError:
        raise  # a malformed --gram file: exit 65, not a failed construction
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
    gram = load_gram(args.gram)
    if is_positive_definite(gram) is not True:
        print("error: gram matrix is not positive definite", file=sys.stderr)
        return EXIT_INDETERMINATE
    if args.spectrum is not None:
        sys.stdout.write("".join(f"eigenvalue {line.eigenvalue:.12g}  multiplicity "
                                 f"{line.multiplicity}  (|xi|^2 = {line.norm})\n"
                                 for line in spectrum(gram, args.spectrum)))
        return EXIT_VERIFIED
    if args.shortest:
        lam, classes = shortest_vectors(gram)
        _write_classes(f"lambda_1 = {lam}", classes)
        return EXIT_VERIFIED
    if target is None:
        print("error: one of --target, --shortest, --spectrum is required", file=sys.stderr)
        return EXIT_USAGE
    classes = enumerate_norm(gram, target)
    _write_classes(f"{len(classes)} classes of norm {classes.target}"
                   + ("" if classes.complete else " (INCOMPLETE: box bound hit)"), classes)
    return EXIT_VERIFIED


def _write_classes(header: str, classes) -> None:
    """The header, then one class a line, indented by two spaces: one write."""
    sys.stdout.write(header + "\n" + "".join(f"  {c}\n" for c in classes))


def cmd_reduce(args) -> int:
    cert = _read_certificate(args.path)
    if isinstance(cert, int):
        return cert
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


def _arg(*flags, **kwargs):
    return flags, kwargs


_OUTPUT = _arg("-o", "--output")

# name -> (help, command function, argument specs), or for a command with
# sub-commands, (help, command function, (destination, their table)).
COMMANDS = {
    "verify": ("verify a certificate file", cmd_verify, [
        _arg("path"), _arg("--tol", type=float, default=1e-10),
        _arg("--exhaustive-embedding", action="store_true"),
        _arg("--format", choices=("text", "json"), default="text")]),
    "construct": ("run a construction pipeline", cmd_construct, ("what", {
        "rational": ("rational torus via sampling + exact LP", cmd_construct, [
            _arg("--gram", required=True,
                 help="I<n>, diag:a,b,c or a JSON file with rational rows"),
            _arg("--seed", type=int, default=0), _arg("--samples", type=int, default=48),
            _arg("--max-denominator", type=int, default=10**4), _OUTPUT]),
        "pencil": ("3-torus from an integer vector set", cmd_construct, [
            _arg("--Y", required=True, help="text file: rows of the 3 x N matrix"), _OUTPUT]),
        "pythagorean": ("non-homogeneous 12-class family", cmd_construct, [
            _arg("--triple", nargs=3, type=int, required=True, metavar=("P", "Q", "R")),
            *(_arg(f"--{name}", type=_finite_float, default=0.0)
              for name in ("r1", "r2", "phi1", "psi1", "phi2", "psi2")), _OUTPUT]),
        "bryant": ("one-parameter family of flat 2-tori in S^7", cmd_construct, [
            _arg("--mn", nargs=2, type=int, required=True, metavar=("M", "N")),
            _arg("--rho", type=_finite_float),
            _arg("--rho-scaled", help="exact ratio rho*2b in [0,1], e.g. 1/2"), _OUTPUT]),
    })),
    "enumerate": ("lattice norm classes / spectrum", cmd_enumerate, [
        _arg("--gram", required=True), _arg("--target", help="rational norm value, e.g. 1 or 3/4"),
        _arg("--shortest", action="store_true"), _arg("--spectrum", type=int, metavar="K")]),
    "reduce": ("Caratheodory-reduce a homogeneous certificate", cmd_reduce,
               [_arg("path"), _OUTPUT]),
    "catalog": ("worked-example certificates", cmd_catalog,
                [_arg("id", nargs="?"), _arg("--list", action="store_true"), _OUTPUT]),
}


def _add_branches(parser, dest: str, table: dict, argv) -> None:
    """Sub-parsers for the one entry argv[0] names, or for every entry when it
    names none, so that help and invalid-choice errors list them all."""
    sub = parser.add_subparsers(dest=dest, required=True)
    if argv and argv[0] in table:
        table, argv = {argv[0]: table[argv[0]]}, argv[1:]
    else:
        argv = None
    for name, (help_text, func, spec) in table.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if isinstance(spec, tuple):
            _add_branches(p, *spec, argv)
        else:
            for flags, kwargs in spec:
                p.add_argument(*flags, **kwargs)


def build_parser(argv=None) -> _Parser:
    """The parser of the branch that argv (the arguments after the program
    name) selects; with argv None, or naming no known command, every branch."""
    parser = _Parser(prog="minitori",
                     description="Minimal isometric immersions of flat tori into spheres: "
                                 "construct, verify, enumerate and reduce certificates.")
    _add_branches(parser, "command", COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`minitori ... | head`): send what is still
        # buffered to devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cio.CertificateFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
