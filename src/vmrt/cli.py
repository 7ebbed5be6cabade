"""Command-line front end with deterministic, machine-readable output.

Subcommands: eco-cert, eqs, eco-line, converse, count, variation,
selftest.  Identical invocations produce byte-identical output; every
randomized command takes an explicit --seed and echoes it.  Rationals are
serialized as "p/q" strings, polynomials in the canonical text format.

Exit codes: 0 success, 1 malformed input (including usage errors),
2 violated precondition (base point on the hypersurface, degenerate
elimination, missing normalization, ...).  The environment variable
VMRT_LOG names a logging level (DEBUG, INFO, ...) for progress logging on
stderr and never affects results; an unknown name is reported in one
warning line on stderr and otherwise ignored.  At DEBUG, selftest logs
each criterion's wall time.

Size limits: the dimension n is at most MAX_N = 12 and the degree 2m (of
a hypersurface, a prescribed equation or a coefficient vector a1..a2m) at
most MAX_DEGREE = 24.  They are checked before any heavy work, so an
oversized input exits 2 with an InvalidInput record instead of running
away.  Both are twice the largest size the tests, demos, selftest and
benchmark use (n = 6, degree 12).  The caps alone still admit inputs
whose work never ends in practice, so `eqs` and `variation` also refuse
an (n, m) whose work estimate exceeds WORK_BUDGET = 10**7: the dense
term products of the half-square recursion up to tail 2m (`_recursion_work`;
5.7e5 at n = 6, degree 12) and, for `variation`, the matrix cells
C(n+m, m+1)*(n+n^2).  The numeric restriction of `eco-line` keeps 2m + 1
coefficients of B bits each, B the Kronecker slot width of
`unipoly._kronecker_slots`, which grows with the digits of the point and
the direction; the square oracle and the certificate then work on numbers
of that size.  So `eco-line` refuses a line with (2m + 1)*B above
MAX_LINE_BITS = 10**5, and `eqs` and `count`, whose symbolic restriction
has coefficients of at most B bits along z = (1, ..., 1), refuse such a
point.  On a 2-core host the slowest `eco-line` input found below the
limit (degree 24, 12-digit entries) ran in 3.6 s, and 3000-digit entries
are refused at once.  The half-square recursion of `eqs` and `count`
multiplies coefficients of about B bits, so their work estimate is
weighted by (B/64)^1.6 above 64 bits (`_equation_work`).  A rational
argument in decimal notation may carry an exponent of at most four
digits, so "1e999999999" is a parse error instead of a billion-digit
integer.  A result with a number longer than Python's limit for
integer-to-text conversion (4300 digits by default) exits 2 with an
InvalidInput record.

A polynomial file is refused before it is parsed when its terms, cleared
to the lcm of their denominators as the parser clears them, would carry
more than MAX_CLEARED_BITS = 5*10**7 bits (terms times the lcm's bits),
500 times MAX_LINE_BITS.  On a 2-core host a dense degree-8 form in
t0..t4 with 100- or 300-digit fractions spent 10 or 85 s in the parse and
`graded_parts` and now exits 2 at once; the slowest inputs found below
the limit, `variation --f` on dense forms with long fractions, take under
5 s.  The digits of the denominators would bound the lcm far too loosely
for the texts `format_poly` writes: a witness at (n, m) = (6, 6) has
109,643 digits of denominators over an lcm of 32 bits.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from fractions import Fraction
from math import comb, lcm, prod
from pathlib import Path

from .eco import certify
from .errors import InvalidInput, ParseError, VmrtError
from .lines import (
    Hypersurface,
    build_converse,
    count_vmrt_points,
    is_eco_line,
    line_certificate,
    vmrt_equations,
)
from .poly import SparsePoly, format_poly, parse_poly
from .selftest import run_selftest
from .unipoly import _kronecker_slots
from .variation import explicit_family, variation_report

log = logging.getLogger("vmrt")

MAX_N = 12
MAX_DEGREE = 24
WORK_BUDGET = 10**7
MAX_LINE_BITS = 10**5
MAX_CLEARED_BITS = 5 * 10**7

_INDEXED_RE = re.compile(r"(?<![A-Za-z0-9_])[tz](\d+)(?![A-Za-z0-9_])")
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]*)")
_SIGN_RE = re.compile(r"[+-]")
_DENOMINATOR_RE = re.compile(r"/(\d+)")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 (parse error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fraction(text: str) -> Fraction:
    exponent = _EXPONENT_RE.search(text)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
        raise ParseError(f"bad rational {text[:20]!r}: exponent too long")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _fraction_list(text: str) -> list[Fraction]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ParseError("empty coordinate list")
    return [_fraction(s) for s in items]


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"n = {n} is below the minimum n >= 1")
    if n > MAX_N:
        raise InvalidInput(f"n = {n} exceeds the limit n <= {MAX_N}")


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise InvalidInput(f"degree {degree} exceeds the limit 2m <= {MAX_DEGREE}")


def _recursion_work(n: int, m: int) -> int:
    """Term products of the half-square recursion up to tail 2m on dense forms in n variables.

    sigma_k has at most C(n+k-1, k) terms, and the recursion takes each
    product sigma_l*sigma_{k-l} once, for k <= 2m and max(1, k-m) <= l <= k/2.
    """
    size = [comb(n + k - 1, k) for k in range(m + 1)]
    return sum(
        size[ell] * size[k - ell] for k in range(2, 2 * m + 1) for ell in range(max(1, k - m), k // 2 + 1)
    )


def _check_work(work: int, n: int, m: int) -> None:
    if work > WORK_BUDGET:
        raise InvalidInput(f"work estimate {work:.3g} at n = {n}, m = {m} exceeds the budget {WORK_BUDGET:.0e}")


def _check_line_bits(hyp: Hypersurface, point, direction=None) -> int:
    """Refuse a line whose restriction carries more than MAX_LINE_BITS bits: (2m + 1) slots of B bits; returns B.

    B is the slot width of the numeric restriction (`unipoly._kronecker_slots`),
    from f's numerators and the cleared point and direction.  A symbolic
    direction (`eqs`, `count`) is sized along z = (1, ..., 1), where B also
    bounds every coefficient of the forms.
    """
    _, bits = _kronecker_slots(hyp.f, 2 * hyp.m, point, [1] * hyp.n if direction is None else direction)
    if (2 * hyp.m + 1) * bits > MAX_LINE_BITS:
        raise InvalidInput(f"line restriction of {(2 * hyp.m + 1) * bits} bits exceeds the limit {MAX_LINE_BITS}")
    return bits


def _equation_work(n: int, m: int, bits: int) -> float:
    """`_recursion_work` times (B/64)^1.6 for a slot width B above one 64-bit word.

    The recursion multiplies forms whose coefficients grow with B, and a
    big-integer product costs more than linearly in its bits.  1.6 is the
    least-squares exponent of `eqs` timings on dense seeded forms at
    (n, degree) = (6, 12), (9, 8) and (12, 6), B from 96 to 2246 bits
    (2-core host, Python 3.11): (6, 12) took 5.4 s at B = 392 and 21.6 s
    at 872.  The unit of 64 bits puts the budget near 5 s: the slowest
    admitted input found at the boundary, degree 24 in 5 variables at the
    point (62, 62, 62, 62), ran in 7.2 s.
    """
    return _recursion_work(n, m) * max(1, bits / 64) ** 1.6


def _check_equations(hyp: Hypersurface, point) -> None:
    """Refuse an `eqs` or `count` point whose restriction or half-square recursion is too large."""
    bits = _check_line_bits(hyp, point)
    _check_work(_equation_work(hyp.n, hyp.m, bits), hyp.n, hyp.m)


def _check_cleared_bits(compact: str) -> None:
    """Refuse a text that the parser would clear to more than MAX_CLEARED_BITS bits: its terms times the lcm's bits.

    A term's denominator is the product of its numbers' denominators, and
    the parser sums the terms over their lcm.  The lcm is built term by
    term and checked after each, so a text far over the limit is refused
    after a small part of it.
    """
    bodies = _SIGN_RE.split(compact)
    common = 1
    for body in bodies:
        try:
            common = lcm(common, prod(map(int, _DENOMINATOR_RE.findall(body))))
        except ValueError:  # more digits than int() converts: the parser refuses the number
            return
        if len(bodies) * common.bit_length() > MAX_CLEARED_BITS:
            raise InvalidInput(
                f"{len(bodies)} terms over a denominator of at least {common.bit_length()} bits exceed"
                f" the limit of {MAX_CLEARED_BITS:.0e} cleared bits"
            )


def _read_poly(path: str, variables=None):
    """Parse a polynomial file, refusing oversized inputs before any heavy work."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    compact = "".join(text.split())
    # a variable index bounds n; check it before the parser builds the variable list
    for digits in _INDEXED_RE.findall(compact):
        digits = digits.lstrip("0")
        if len(digits) > len(str(MAX_N)) or int(digits or 0) > MAX_N:
            raise InvalidInput(f"a variable index exceeds the limit n <= {MAX_N}")
    _check_cleared_bits(compact)
    p = parse_poly(text, variables)
    _check_degree(p.total_degree())
    return p


def _load_hypersurface(path: str, n: int | None) -> Hypersurface:
    if n is not None:
        _check_n(n)
    variables = tuple(f"t{i}" for i in range(n + 1)) if n is not None else None
    return Hypersurface(_read_poly(path, variables))


def _emit(report: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vmrt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eco-cert", help="certify a coefficient vector a1..a2m")
    p.add_argument("--coeffs", required=True, help='comma-separated rationals "a1,a2,...,a2m"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eqs", help="defining equations at a base point")
    p.add_argument("--f", required=True, metavar="FILE", help="polynomial file in t0..tn")
    p.add_argument("--point", required=True, help='affine base point "y1,...,yn"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eco-line", help="even-contact test for one line")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--point", required=True)
    p.add_argument("--dir", required=True, help='direction "z1,...,zn"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("converse", help="hypersurface realizing prescribed equations")
    p.add_argument("--b", required=True, help="comma-separated files with b_{m+1},...,b_{2m} in z1..zn")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="resultant point count for n=3, m=2")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--point", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("variation", help="variation verdict at the origin")
    p.add_argument("--family", choices=["m2", "mge3"], help="use a built-in explicit family")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--b", default="1")
    p.add_argument("--c", default="1")
    p.add_argument("--f", metavar="FILE", help="general f with f(1,0,...,0) = 1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="run the full acceptance suite (JSON output)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_eco_cert(args) -> None:
    coeffs = _fraction_list(args.coeffs)
    _check_degree(len(coeffs))
    cert = certify(coeffs)
    report = {
        "command": "eco-cert",
        "m": cert.m,
        "coeffs": [str(c) for c in coeffs],
        "pass": cert.passed,
        "sigma": [str(s) for s in cert.sigma],
        "residuals": [str(r) for r in cert.residuals],
    }
    _emit(
        report,
        args.json,
        [
            f"pass: {cert.passed}",
            f"sigma: ({', '.join(str(s) for s in cert.sigma)})",
            f"residuals: ({', '.join(str(r) for r in cert.residuals)})",
        ],
    )


def _cmd_eqs(args) -> None:
    point = _fraction_list(args.point)
    hyp = _load_hypersurface(args.f, len(point))
    _check_equations(hyp, point)
    system = vmrt_equations(hyp, point)
    texts = [format_poly(eq) for eq in system.equations]
    degrees = range(hyp.m + 1, 2 * hyp.m + 1)
    report = {
        "command": "eqs",
        "m": hyp.m,
        "n": hyp.n,
        "point": [str(c) for c in point],
        "equations": [{"degree": k, "poly": text} for k, text in zip(degrees, texts)],
        "seed": None,
    }
    _emit(report, args.json, [f"B_{k} = {text}" for k, text in zip(degrees, texts)])


def _cmd_eco_line(args) -> None:
    point = _fraction_list(args.point)
    direction = _fraction_list(args.dir)
    hyp = _load_hypersurface(args.f, len(point))
    _check_line_bits(hyp, point, direction)
    verdict = is_eco_line(hyp, point, direction)
    cert = line_certificate(hyp, point, direction)
    report = {
        "command": "eco-line",
        "m": hyp.m,
        "n": hyp.n,
        "point": [str(c) for c in point],
        "dir": [str(c) for c in direction],
        "eco_line": verdict,
        "residuals": [str(r) for r in cert.residuals],
        "seed": None,
    }
    _emit(
        report,
        args.json,
        [
            f"eco_line: {verdict}",
            f"equation values: ({', '.join(str(r) for r in cert.residuals)})",
        ],
    )


def _cmd_converse(args) -> None:
    polys = [_read_poly(path.strip()) for path in args.b.split(",") if path.strip()]
    if not polys:
        raise ParseError("empty file list")
    # refuse other variables before widening renames them, then align all
    # inputs on one z1..zn list
    for p in polys:
        if p.vars != tuple(f"z{i}" for i in range(1, len(p.vars) + 1)):
            raise InvalidInput("prescribed equations must use variables z1..zn")
    n = max(len(p.vars) for p in polys)
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    widened = [
        SparsePoly._from_ints(zvars, {exp + (0,) * (n - len(p.vars)): k for exp, k in p.nums.items()}, p.den)
        for p in polys
    ]
    hyp = build_converse(widened)
    f_text = format_poly(hyp.f)
    report = {
        "command": "converse",
        "m": hyp.m,
        "n": hyp.n,
        "f": f_text,
        "b": [format_poly(p) for p in widened],
    }
    _emit(report, args.json, [f"f = {f_text}"])


def _cmd_count(args) -> None:
    point = _fraction_list(args.point)
    hyp = _load_hypersurface(args.f, len(point))
    _check_equations(hyp, point)
    degree, squarefree = count_vmrt_points(hyp, point, seed=args.seed)
    report = {
        "command": "count",
        "m": hyp.m,
        "n": hyp.n,
        "point": [str(c) for c in point],
        "degree": degree,
        "squarefree": squarefree,
        "seed": args.seed,
    }
    _emit(report, args.json, [f"degree: {degree}", f"squarefree: {squarefree}"])


def _check_variation_work(n: int, m: int) -> None:
    """The recursion estimate and the cells of the n + n^2 columns over the degree-(m+1) basis."""
    _check_work(max(_recursion_work(n, m), comb(n + m, m + 1) * (n + n * n)), n, m)


def _cmd_variation(args) -> None:
    if (args.family is None) == (args.f is None):
        raise ParseError("pass exactly one of --family or --f")
    if args.family is not None:
        if args.n is None:
            raise ParseError("--family requires --n")
        m = args.m
        if args.family == "m2":
            m = 2 if m is None else m
            if m != 2:
                raise ParseError("--family m2 fixes m = 2")
        else:
            if m is None or m < 3:
                raise ParseError("--family mge3 requires --m >= 3")
        _check_n(args.n)
        _check_degree(2 * m)
        _check_variation_work(args.n, m)
        hyp = explicit_family(args.n, m, _fraction(args.b), _fraction(args.c))
    else:
        hyp = _load_hypersurface(args.f, args.n)
        _check_variation_work(hyp.n, hyp.m)
    rep = variation_report(hyp)
    report = {
        "command": "variation",
        "n": rep.n,
        "m": rep.m,
        "rank_dmu": rep.rank_dmu,
        "dim_orbit": rep.dim_orbit,
        "dim_intersection": rep.dim_intersection,
        "maximal": rep.maximal,
        "basis_sizes": rep.basis_sizes(),
        "seed": None,
    }
    _emit(
        report,
        args.json,
        [
            f"rank_dmu: {rep.rank_dmu}",
            f"dim_orbit: {rep.dim_orbit}",
            f"dim_intersection: {rep.dim_intersection}",
            f"maximal: {rep.maximal}",
        ],
    )


def _cmd_selftest(args) -> None:
    report = run_selftest(args.seed)
    print(json.dumps(report, indent=2))


_HANDLERS = {
    "eco-cert": _cmd_eco_cert,
    "eqs": _cmd_eqs,
    "eco-line": _cmd_eco_line,
    "converse": _cmd_converse,
    "count": _cmd_count,
    "variation": _cmd_variation,
    "selftest": _cmd_selftest,
}


def _configure_logging() -> None:
    """Log to stderr at the level VMRT_LOG names; warn about and ignore an unknown name."""
    name = os.environ.get("VMRT_LOG")
    if not name:
        return
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        print(f"warning: ignoring VMRT_LOG={name!r}: not a logging level", file=sys.stderr)
        return
    logging.basicConfig(stream=sys.stderr, level=level)


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    log.debug("dispatch %s", args.command)
    as_json = getattr(args, "json", False)
    try:
        _HANDLERS[args.command](args)
    except ParseError as exc:
        _report_error(exc, as_json)
        return 1
    except VmrtError as exc:
        _report_error(exc, as_json)
        return 2
    except ValueError as exc:
        # Python refuses str() of an integer longer than its int_max_str_digits
        # limit (4300 digits by default); an exact result that long is a size limit
        if "integer string conversion" not in str(exc):
            raise
        _report_error(InvalidInput("a number in the result is too long to print"), as_json)
        return 2
    return 0


def _report_error(exc: VmrtError, as_json: bool) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if as_json:
        print(json.dumps(record, indent=2))
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
