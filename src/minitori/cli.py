"""Command-line front end.

The commands are one table, `COMMANDS`.  `main` reads a well-formed argv
straight from that table (`_parse_from_table`): command words, exact option
strings and their values, with each argument's type, choices, nargs,
store_true, default and required applied.  Everything it cannot decide alone
(help, an abbreviated option, `--opt=value`, `--`, a value that starts with
'-', an unknown or missing argument, a value its type or choices refuse)
goes to the argparse tree of the same table (`build_parser`), which is built
and imported only then, once per process, and which alone prints help and
usage errors.  So a well-formed command loads no argparse.

Exit codes: 0 verified / success, 1 falsified, 2 indeterminate or
infeasible/construction failure (also `enumerate --shortest` or `--spectrum`
stopped by the coordinate box bound; `--target` reports an incomplete list
in its header and exits 0), 64 usage error (also an output file that cannot
be written, a certificate of kind "general" given to `reduce`, or an `I<n>`
Gram whose n is not an integer of ASCII digits or exceeds MAX_IDENTITY_DIM),
65 malformed file (also one that is not UTF-8, or whose JSON holds an
integer beyond the interpreter's digit limit), 141 standard output closed
early (128 + SIGPIPE; e.g. piped into `head`), with no traceback.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import io as cio
from .certificates import (MatrixData, UnverifiedCertificate, embeddedness, is_homogeneous,
                           reduce_target_dimension, verify_full, verify_matrix_data)
from .constructions import (Bryant2TorusParams, ConstructionError, PythagoreanParams,
                            RationalPipelineConfig, catalog, catalog_descriptions,
                            bryant_2torus, construct_pencil_3torus, construct_rational,
                            pythagorean_family)
from .lattices import (EnumerationIncomplete, eigenfunction_index, enumerate_norm,
                       shortest_vectors, spectrum)
from .optimize import InfeasibleRegion, as_columns
from .scalars import parse_rational
from .symmetric import SymMatrix, determinant, is_positive_definite

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
MAX_IDENTITY_DIM = 100  # the largest n of an `I<n>` Gram: its identity holds n^2 entries


class UsageError(Exception):
    pass


def load_gram(spec: str) -> SymMatrix:
    """Gram matrix from 'I<n>' (1 <= n <= MAX_IDENTITY_DIM, checked before the
    identity is built), 'diag:a,b,c', or a JSON file {"rows": [...]}."""
    if spec.startswith("I") and spec[1:].isdigit():  # isdigit() also holds for '²'
        if not spec.isascii():
            raise UsageError(f"gram {spec!r}: the dimension must be written in ASCII digits")
        try:
            n = int(spec[1:])
        except ValueError as exc:  # more digits than the interpreter converts
            raise UsageError(f"gram I<n>: {exc}") from None
        if n < 1:
            raise UsageError(f"gram {spec!r}: the dimension must be at least 1")
        if n > MAX_IDENTITY_DIM:
            raise UsageError(f"gram {spec!r}: the dimension must be at most {MAX_IDENTITY_DIM}")
        return SymMatrix.identity(n)
    if spec.startswith("diag:"):
        return SymMatrix.diag([_rational_flag("gram diag entry", v) for v in spec[5:].split(",")])
    try:
        with open(spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read gram file {spec!r}: {exc}") from exc
    # invalid JSON or UTF-8, an int beyond the digit limit, or nesting beyond the recursion limit
    except (ValueError, RecursionError) as exc:
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
    return as_columns(zip(*rows))


def _finite_float(text: str) -> float:
    """The `type` of the Pythagorean amplitudes and angles and of `--rho`: a
    finite float, else argparse's ArgumentTypeError, so that text that is no
    number, NaN and the infinities are usage errors.  (`--tol` is a plain
    float; `cmd_verify` refuses its NaN.)"""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        import argparse
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
    n = data.q.n
    try:
        det = float(determinant(data.q))  # lattice points ~ vol(unit n-ball) / sqrt(det)
        est = math.pi ** (n / 2) / math.gamma(n / 2 + 1) / math.sqrt(det)
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
    """True iff the box of the n columns of least L1 norm holds at most 2 10^5
    angle vectors: the box `embeddedness` walks if those columns are
    independent, a lower bound on it otherwise."""
    cols = list(y)
    n = len(cols[0])
    bounds = sorted(sum(abs(v) for v in c) for c in cols)[:n]
    vol = 1
    for b in bounds:
        vol *= 2 * b - 1
    return vol <= 2 * 10**5


def _write_or_print(text: str, out: str | None) -> int:
    """Write `text` to the file `out`, or without one to stdout; the exit code,
    64 after saying on stderr why the file could not be written."""
    if not out:
        sys.stdout.write(text)  # outside the try: a closed pipe is an OSError too
        return EXIT_VERIFIED
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {out}")
    return EXIT_VERIFIED


def _read_certificate(path: str):
    """The certificate in the file `path`, or the exit code after saying on
    stderr why the file could not be read (64) or parsed (65)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return cio.parse(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (cio.CertificateFormatError, UnicodeDecodeError) as exc:
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
            data = construct_pencil_3torus(load_y(args.Y))
        elif args.what == "pythagorean":
            p, q, r = args.triple
            res = pythagorean_family(PythagoreanParams(
                triple=(p, q, r), r1=args.r1, r2=args.r2,
                phi1=args.phi1, psi1=args.psi1, phi2=args.phi2, psi2=args.psi2))
            homogeneous = is_homogeneous(res.gram)
            text = cio.emit((res.gram, res.q, res.y),
                            metadata={"construction": "pythagorean",
                                      "triple": list(args.triple),
                                      "homogeneous": homogeneous})
            code = _write_or_print(text, args.output)
            if code == EXIT_VERIFIED:
                print(f"classes N = 12, sphere dimension = 23, homogeneous = {homogeneous}")
            return code
        else:  # bryant: the table and argparse admit only the four routes
            m, n = args.mn
            rho_scaled = (_rational_flag("--rho-scaled", args.rho_scaled)
                          if args.rho_scaled is not None else None)
            data = bryant_2torus(Bryant2TorusParams(m=m, n=n, rho=args.rho,
                                                    rho_scaled=rho_scaled))
    except cio.CertificateFormatError:
        raise  # a malformed --gram file: exit 65, not a failed construction
    except (ConstructionError, InfeasibleRegion, ValueError, TypeError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    code = _write_or_print(cio.emit(data), args.output)
    if code == EXIT_VERIFIED:
        _summarize(data)
    return code


def cmd_enumerate(args) -> int:
    modes = [flag for flag, given in (("--target", args.target is not None),
                                      ("--shortest", args.shortest),
                                      ("--spectrum", args.spectrum is not None)) if given]
    if len(modes) != 1:
        raise UsageError("give exactly one of --target, --shortest, --spectrum"
                         + (f" ({', '.join(modes)} given)" if modes else ""))
    if args.spectrum is not None and args.spectrum < 1:
        raise UsageError(f"--spectrum must be a positive integer, not {args.spectrum}")
    target = None if args.target is None else _rational_flag("--target", args.target)
    if target is not None and target <= 0:
        raise UsageError(f"--target must be positive, not {args.target}")
    gram = load_gram(args.gram)
    if is_positive_definite(gram) is not True:
        print("error: gram matrix is not positive definite", file=sys.stderr)
        return EXIT_INDETERMINATE
    try:
        if args.spectrum is not None:
            sys.stdout.write("".join(f"eigenvalue {line.eigenvalue:.12g}  multiplicity "
                                     f"{line.multiplicity}  (|xi|^2 = {line.norm})\n"
                                     for line in spectrum(gram, args.spectrum)))
            return EXIT_VERIFIED
        if args.shortest:
            lam, classes = shortest_vectors(gram)
            _write_classes(f"lambda_1 = {lam}", classes)
            return EXIT_VERIFIED
    except EnumerationIncomplete as exc:  # the coordinate box bound stopped the search
        print(f"error: enumeration incomplete: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    classes = enumerate_norm(gram, target)
    _write_classes(f"{len(classes)} classes of norm {classes.target}"
                   + ("" if classes.complete else " (INCOMPLETE: box bound hit)"), classes)
    return EXIT_VERIFIED


def _class_template(n: int) -> str:
    """The %-template that prints an integer n-tuple c as f"  {c}\\n" does."""
    return "  (" + ", ".join(["%d"] * n) + ("," if n == 1 else "") + ")\n"


def _write_classes(header: str, classes) -> None:
    """The header, then one class a line, indented by two spaces: one write.

    The classes of one list share their length n, so every line goes through
    one fixed-arity template (`_class_template`), built once per list.
    """
    rows = classes.classes
    line = _class_template(len(rows[0]) if rows else 0)
    sys.stdout.write(header + "\n" + "".join([line % c for c in rows]))


def cmd_reduce(args) -> int:
    cert = _read_certificate(args.path)
    if isinstance(cert, int):
        return cert
    if not isinstance(cert, MatrixData):
        raise UsageError(f"{args.path!r} holds a certificate of kind \"general\"; "
                         f"reduce takes kind \"homogeneous\"")
    try:
        reduced = reduce_target_dimension(cert)
    except UnverifiedCertificate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    print(f"sphere dimension {cert.sphere_dim} -> {reduced.sphere_dim} "
          f"(classes {cert.big_n} -> {reduced.big_n})")
    return _write_or_print(cio.emit(reduced), args.output)


def cmd_catalog(args) -> int:
    if args.list:
        for cid, desc in catalog_descriptions():
            print(f"{cid:14s} {desc}")
        return EXIT_VERIFIED
    if not args.id:
        raise UsageError("an id or --list is required")
    try:
        data = catalog(args.id)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    return _write_or_print(cio.emit(data), args.output)


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
        "pencil": ("torus from an integer vector set", cmd_construct, [
            _arg("--Y", required=True, help="text file: rows of the n x N matrix"), _OUTPUT]),
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


def _add_branches(parser, dest: str, table: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, func, spec) in table.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if isinstance(spec, tuple):
            _add_branches(p, *spec)
        else:
            for flags, kwargs in spec:
                p.add_argument(*flags, **kwargs)


@functools.cache
def build_parser():
    """The argparse parser of the whole `COMMANDS` tree, built on the first call;
    its errors raise `UsageError`."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = _Parser(prog="minitori",
                     description="Minimal isometric immersions of flat tori into spheres: "
                                 "construct, verify, enumerate and reduce certificates.")
    _add_branches(parser, "command", COMMANDS)
    return parser


def _parse_from_table(argv):
    """The namespace argparse builds from `argv`, read straight from `COMMANDS`,
    or None when the table cannot decide alone: `-h`, an abbreviation,
    `--opt=value`, `--` or any token that starts with '-' and is not an exact
    option string; an option value or positional that starts with '-'; an
    unknown token; a missing required argument; a value that its type or
    choices refuse."""
    args, dest, table, i = {}, "command", COMMANDS, 0
    while isinstance(table, dict):  # the command words
        if i == len(argv) or argv[i] not in table:
            return None
        args[dest] = argv[i]
        _, args["func"], spec = table[argv[i]]
        dest, table = spec if isinstance(spec, tuple) else (None, spec)
        i += 1
    options, positionals, required = {}, [], set()
    for flags, kw in table:
        if flags[0].startswith("-"):  # an option; its long string, the last, names it
            name = flags[-1][2:].replace("-", "_")
            options.update(dict.fromkeys(flags, (name, kw)))
            if kw.get("required"):
                required.add(name)
        else:
            name = flags[0]
            positionals.append((name, kw))
            if kw.get("nargs") != "?":
                required.add(name)
        args[name] = False if kw.get("action") == "store_true" else kw.get("default")
    positionals.reverse()  # popped from the end, so in table order
    while i < len(argv):
        if argv[i].startswith("-"):
            if argv[i] not in options:
                return None
            name, kw = options[argv[i]]
            i += 1
        elif positionals:
            name, kw = positionals.pop()
        else:
            return None
        required.discard(name)
        if kw.get("action") == "store_true":
            args[name] = True
            continue
        many = isinstance(kw.get("nargs"), int)  # a list of nargs values, else one value
        count = kw["nargs"] if many else 1
        values = argv[i:i + count]
        if len(values) < count or any(v.startswith("-") for v in values):
            return None
        try:
            values = [kw.get("type", str)(v) for v in values]
        except Exception:  # argparse calls the type again: it reports what the type
            return None    # refuses, and any other error propagates from there
        if "choices" in kw and any(v not in kw["choices"] for v in values):
            return None
        args[name] = values if many else values[0]
        i += count
    return None if required else SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_from_table(argv) or build_parser().parse_args(argv)
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
