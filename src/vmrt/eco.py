"""Even-contact-order certificates for degree-2m polynomials with constant term 1.

A polynomial 1 + a_1*lam + ... + a_2m*lam^2m is the square of a degree-m
polynomial 1 + sigma_1*lam + ... + sigma_m*lam^m exactly when its top
coefficients equal the tails of that square:

    sigma_k = (a_k - sum_{i=1}^{k-1} sigma_i*sigma_{k-i}) / 2,   k = 1 .. m,
    a_k = sum_{l=k-m}^{m} sigma_l*sigma_{k-l},                   k = m+1 .. 2m.

This half-square recursion is written once, in `_half_square`, and needs
only +, -, * and a halving of its ring.  It runs over the integers in
`certify`, over the symbolic t_i in `build_family`, over the ratio forms
a_k/a_0 in z in `lines.vmrt_equations`, over first-order jets in
`variation.dmu_jet` and over the graded parts of f in
`variation.variation_report` and `variation.dmu_formula`.  Everything
divides only by 2, so the whole certificate stays inside the rationals.
`certify` rescales lam by s = 4*D, D the lcm of the denominators of the
a_k: the coefficients a_k*s^k are integers, and every halving of the
recursion on them is an exact shift (see `certify`).

`build_family` keeps the symbolic solutions: root_polys[k] = G_k(t) with
sigma_k = G_k(a_1..a_m), and the certificate polynomials
tail_polys[k] = A_k = sum_l G_l*G_{k-l} (G_l = 0 for l > m).  No caller
composes A_k with its inputs: the A_k serve the weighted-homogeneity
check of selftest criterion 2 and demo 01.  Variable t_i carries weight
i; G_k and A_k are weighted homogeneous of weighted degree k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import InvalidInput
from .poly import SparsePoly

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class EcoFamily:
    """Cached symbolic certificate data for one half-degree m.

    root_polys[k] expresses the k-th square-root coefficient in the input
    coefficients (index 0 is the constant 1); tail_polys[k] predicts the
    k-th top coefficient for k = m+1 .. 2m.
    """

    m: int
    variables: tuple[str, ...]
    root_polys: tuple[SparsePoly, ...]
    tail_polys: dict[int, SparsePoly]


@dataclass(frozen=True)
class EcoCertificate:
    """Outcome of certifying one coefficient vector (a_1..a_2m).

    residuals[j] is a_{m+1+j} minus its predicted value; passed means all
    residuals vanish, equivalently the polynomial is a perfect square.
    """

    sigma: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]
    passed: bool

    @property
    def m(self) -> int:
        return len(self.sigma)


def _halved(x):
    return x * _HALF


def _half_square(a: Sequence, top: int, _halve=_halved) -> tuple[list, list]:
    """Half-square recursion on a = (a_1, ..., a_m) over any ring.

    Returns (sigma_1..sigma_m, tails) with tails[k-m-1] = the predicted
    a_k = sum_{l=k-m}^{m} sigma_l*sigma_{k-l} for k = m+1 .. top, m <= top <= 2m.
    A caller that needs only the lowest tail passes top = m+1 and pays for
    no other; top = m gives the root alone.  `_halve` maps a ring element
    to its half, x * 1/2 by default; `certify` passes an exact shift.
    """
    m = len(a)
    sigma = [None]  # sigma_0 = 1 never enters a product

    def pair_sum(k, lo):
        """sum_{l=lo}^{k-lo} sigma_l*sigma_{k-l}, each cross product taken once and doubled."""
        total = sigma[k // 2] * sigma[k // 2] if k % 2 == 0 else None
        for ell in range(lo, (k + 1) // 2):
            term = sigma[ell] * sigma[k - ell] * 2
            total = term if total is None else total + term
        return total

    for k in range(1, m + 1):
        below = pair_sum(k, 1)
        sigma.append(_halve(a[k - 1] if below is None else a[k - 1] - below))
    return sigma[1:], [pair_sum(k, k - m) for k in range(m + 1, top + 1)]


@lru_cache(maxsize=None)
def build_family(m: int) -> EcoFamily:
    """Solve the half-square recursion symbolically for half-degree m."""
    if not isinstance(m, int) or m < 1:
        raise InvalidInput("m must be a positive integer")
    variables = tuple(f"t{i}" for i in range(1, m + 1))
    sigma, tails = _half_square([SparsePoly.variable(variables, v) for v in variables], 2 * m)
    root_polys = (SparsePoly.constant(variables, 1), *sigma)
    return EcoFamily(m, variables, root_polys, dict(enumerate(tails, start=m + 1)))


def certify(coeffs: Sequence) -> EcoCertificate:
    """Run the certificate recursion on (a_1, ..., a_2m).

    sigma solves the lower half exactly (so the square of the certified
    root always matches a_1..a_m); the residuals compare the upper half
    against its predicted values and vanish iff 1 + sum a_k lam^k is the
    square of a polynomial of degree at most m.

    The recursion runs on integers.  With D the lcm of the denominators
    and s = 4*D, P(lam) = 1 + sum a_k lam^k has P(s*lam) = 1 + sum b_k
    lam^k, b_k = a_k*s^k, and the root, tails and residuals of P(s*lam)
    are those of P times s^k (sigma'_k = sigma_k*s^k).  Each b_k is an
    integer divisible by 4^k, hence by 4; if sigma'_1..sigma'_(k-1) are
    even, b_k minus their pair sum is divisible by 4, so sigma'_k, its
    half, is an even integer.  By induction every halving is an exact
    `>> 1`.
    """
    a = [Fraction(x) for x in coeffs]
    if not a or len(a) % 2:
        raise InvalidInput("coefficient vector must have even positive length 2m")
    m = len(a) // 2
    s = 4 * lcm(*(x.denominator for x in a))
    scales = [s**k for k in range(1, len(a) + 1)]
    b = [x.numerator * (sk // x.denominator) for x, sk in zip(a, scales)]
    sigma, tails = _half_square(b[:m], 2 * m, _halve=lambda x: x >> 1)
    residuals = tuple(Fraction(bk - t, sk) for bk, t, sk in zip(b[m:], tails, scales[m:]))
    return EcoCertificate(
        sigma=tuple(Fraction(x, sk) for x, sk in zip(sigma, scales)),
        residuals=residuals,
        passed=all(r == 0 for r in residuals),
    )


def is_weighted_homogeneous(p: SparsePoly, degree: int, weights: Sequence[int]) -> bool:
    """True iff every monomial satisfies sum(weight_j * exponent_j) == degree."""
    if len(weights) != len(p.vars):
        raise InvalidInput("one weight per variable required")
    if any(w <= 0 for w in weights):
        raise InvalidInput("weights must be positive")
    return all(
        sum(w * e for w, e in zip(weights, exp)) == degree for exp in p.nums
    )
