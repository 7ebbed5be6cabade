"""Variation of the tangent variety as the base point moves.

Work in the space V_k of degree-k forms in z1..zn with its monomial
coordinate basis.  The map mu sends an affine base point y to the
coefficient vector of the lowest defining equation B_{m+1}(y; .) in
V_{m+1}.  Its differential at the origin (under the normalization
f(1, 0, ..., 0) = 1, with f_{2m+1} = 0) has the closed form

    dB_k/dy_i |_0 = df_{k+1}/dt_i - f_k * df_1/dt_i
        - sum_j dA_k/dx_j(f_1..f_m) * (df_{j+1}/dt_i - f_j * df_1/dt_i),

implemented in dmu_formula and cross-checked by dmu_jet, which replays
the whole B_{m+1} pipeline once over first-order jets and never touches
the formula.  With S = 1 + sum sigma_l*lam^l the half-square root of
1 + sum f_l*lam^l and 1/S = sum c_r*lam^r, the weights are
dA_k/dx_j = sum_{r=0}^{m-j} c_r*sigma_{k-j-r} (sigma_l = 0 for l > m),
and -c_{m+1-j} for k = m+1.  Variation is maximal when dmu has rank n and
its image meets the tangent space of the GL(n) coordinate-change orbit
(spanned by the forms z_i * dh/dz_j) only in 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .eco import _half_square
from .errors import InvalidInput, NormalizationViolated
from .jets import Jet1, restrict_to_line_jets
from .linalg import _certified_join, _certified_rank
from .lines import Hypersurface, _from_graded_parts, vmrt_equations
from .poly import SparsePoly, monomials_of_degree

_ZERO = Fraction(0)

# One immutable Fraction tuple per column: a coefficient vector in basis order.
Columns = tuple[tuple[Fraction, ...], ...]


class MonomialBasis:
    """Ordered monomial basis of the degree-k forms in z1..zn (grevlex, descending)."""

    __slots__ = ("n", "degree", "variables", "monomials", "_index")

    def __init__(self, n: int, degree: int):
        if n < 1 or degree < 0:
            raise InvalidInput("need n >= 1 and degree >= 0")
        self.n = n
        self.degree = degree
        self.variables = tuple(f"z{i}" for i in range(1, n + 1))
        self.monomials = monomials_of_degree(n, degree)
        self._index = {exp: i for i, exp in enumerate(self.monomials)}

    @property
    def size(self) -> int:
        return len(self.monomials)

    def index(self, exp) -> int:
        return self._index[tuple(exp)]

    def __repr__(self):
        return f"MonomialBasis(n={self.n}, degree={self.degree}, size={self.size})"


def coeff_vector(p: SparsePoly, basis: MonomialBasis) -> tuple[Fraction, ...]:
    """Coordinates of a homogeneous form in the basis order, a column as `dmu_formula` returns them."""
    if p.vars != basis.variables:
        raise InvalidInput(f"expected variables {basis.variables}")
    if not p.is_homogeneous(basis.degree):
        raise InvalidInput(f"polynomial is not homogeneous of degree {basis.degree}")
    return tuple(Fraction(k, p.den) if k else _ZERO for k in _int_column(p, basis))


def _int_column(p: SparsePoly, basis: MonomialBasis) -> list[int]:
    col = [0] * basis.size  # den times the coordinates of p
    for exp, k in p.nums.items():
        col[basis._index[exp]] = k
    return col


def mu(hyp: Hypersurface, point: Sequence) -> tuple[Fraction, ...]:
    """Coefficient vector of the lowest defining equation at a base point."""
    system = vmrt_equations(hyp, point)
    return coeff_vector(system.equations[0], MonomialBasis(hyp.n, hyp.m + 1))


def _normalized_parts(hyp: Hypersurface) -> list[SparsePoly]:
    parts = hyp.graded_parts()
    if not (parts[0].is_constant and parts[0].constant_value() == 1):
        raise NormalizationViolated("requires f(1, 0, ..., 0) = 1")
    # convention f_{2m+1} = 0, so the k+1 index below never overflows
    parts.append(SparsePoly.zero(parts[0].vars))
    return parts


def _dmu_forms(parts: Sequence[SparsePoly], sigma: Sequence[SparsePoly], n: int) -> Iterator[SparsePoly]:
    """The n forms dB_{m+1}/dy_i at the origin, from the normalized graded parts and their root sigma.

    Weight j is -c_{m+1-j}, c_r = -sum_{i=1}^{r} sigma_i*c_{r-i} (c_0 = 1).  Proof: S^2 = A
    mod lam^(m+1) gives dS/dx_j = lam^j*C/2 cut to degree m, with C = 1/S.  So dA_{m+1}/dx_j
    = [lam^(m+1)] 2*S*dS/dx_j = [lam^(m+1-j)] S*C - sigma_0*c_{m+1-j} = -c_{m+1-j}.
    """
    k = len(sigma) + 1  # m + 1
    c = [None]  # c_0 = 1 never enters a product
    for r in range(1, k):
        c.append(-sum((sigma[i - 1] * c[r - i] for i in range(1, r)), sigma[r - 1]))
    for i in range(1, n + 1):
        zi = f"z{i}"
        d1 = parts[1].partial(zi).constant_value()  # f_1 is linear
        form = parts[k + 1].partial(zi) - parts[k] * d1
        for j in range(1, k):
            form = form + c[k - j] * (parts[j + 1].partial(zi) - parts[j] * d1)
        yield form


def _columns(forms: Iterable[SparsePoly], basis: MonomialBasis) -> Columns:
    return tuple(coeff_vector(form, basis) for form in forms)


def dmu_formula(hyp: Hypersurface) -> Columns:
    """Differential of mu at the origin by the closed-form derivative identity.

    Column i - 1 is the coefficient vector of dB_{m+1}/dy_i in
    MonomialBasis(n, m+1) order.
    """
    parts = _normalized_parts(hyp)
    sigma, _ = _half_square(parts[1 : hyp.m + 1], hyp.m)  # the root alone, no tail
    return _columns(_dmu_forms(parts, sigma, hyp.n), MonomialBasis(hyp.n, hyp.m + 1))


def dmu_jet(hyp: Hypersurface) -> Columns:
    """Differential of mu at the origin by first-order jets (independent oracle).

    Replays the full equation pipeline once, in vector mode, at the jet
    base point y = eps_1*e_1 + ... + eps_n*e_n: restriction, inversion of
    a_0 = 1 + eps*(...), and the half-square recursion on the jet ratios
    up to the lowest tail.  Derivative slot i of the resulting jet is
    dB_{m+1}/dy_i at the origin, column i - 1 of the result.  a_0 is the
    degree-0 part in z, so it is inverted as a jet of scalars and each
    ratio a_j/a_0 scales forms instead of multiplying them by constant
    forms.  That changes no step of the pipeline, so the oracle stays
    independent of the formula: it touches no graded parts, partials,
    inverse series or `build_family`.
    """
    m, n = hyp.m, hyp.n
    if hyp.f.coefficient((2 * m,) + (0,) * n) != 1:  # f(1, 0, ..., 0)
        raise NormalizationViolated("requires f(1, 0, ..., 0) = 1")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    a = restrict_to_line_jets(hyp.f, [0] * n, identity)
    inv0 = Jet1(a[0].value.constant_value(), tuple(d.constant_value() for d in a[0].derivative)).inverse()
    _, (tail,) = _half_square([a[j] * inv0 for j in range(1, m + 1)], m + 1)
    bk = a[m + 1] * inv0 - tail
    return _columns(bk.derivative, MonomialBasis(n, m + 1))


def _orbit_forms(h: SparsePoly) -> list[SparsePoly]:
    """The n^2 forms z_i * dh/dz_j, (i, j) in row-major order."""
    partials = [h.partial(v) for v in h.vars]
    return [SparsePoly.variable(h.vars, v) * d for v in h.vars for d in partials]


def orbit_tangent(h: SparsePoly, degree: int | None = None) -> Columns:
    """Spanning set of the tangent space to the GL(n) orbit of a form.

    The columns are the coefficient vectors of z_i * dh/dz_j for all (i, j)
    in row-major order; they span the orbit tangent space at h and there are
    n^2 of them (not necessarily independent).
    """
    if degree is None:
        degree = h.homogeneous_degree()
    elif not h.is_homogeneous(degree):
        raise InvalidInput(f"form is not homogeneous of degree {degree}")
    return _columns(_orbit_forms(h), MonomialBasis(len(h.vars), degree))


@dataclass(frozen=True)
class VariationReport:
    """Exact linear-algebra verdict on the variation at the origin."""

    n: int
    m: int
    rank_dmu: int
    dim_orbit: int
    dim_intersection: int
    maximal: bool

    def basis_sizes(self) -> dict[str, int]:
        return {
            "target_space": comb(self.n + self.m, self.m + 1),
            "dmu_columns": self.n,
            "orbit_columns": self.n * self.n,
        }


def variation_report(hyp: Hypersurface) -> VariationReport:
    """Rank of dmu, orbit-tangent dimension and their intersection at the origin.

    Requires f_0 = 1.  Variation is maximal when dmu is injective (rank n)
    and its image meets the orbit tangent space only in 0.  The ranks are
    certified on the integer coefficient columns; the join's count
    continues the orbit's elimination mod P (`linalg._certified_join`).
    """
    parts = _normalized_parts(hyp)
    m, n = hyp.m, hyp.n
    sigma, (tail,) = _half_square(parts[1 : m + 1], m + 1)
    basis = MonomialBasis(n, m + 1)
    # columns scaled by their dens: a nonzero scale keeps every rank
    differential = [_int_column(form, basis) for form in _dmu_forms(parts, sigma, n)]
    orbit = [_int_column(form, basis) for form in _orbit_forms(parts[m + 1] - tail)]
    rank_dmu = _certified_rank(differential, basis.size)
    # the orbit's elimination continued with the dmu columns gives the join
    dim_orbit, rank_join = _certified_join(orbit, differential, basis.size)
    # dim(U cap W) = rank U + rank W - rank(U + W), reusing the two ranks just taken
    dim_intersection = rank_dmu + dim_orbit - rank_join
    maximal = rank_dmu == n and dim_intersection == 0
    return VariationReport(n, m, rank_dmu, dim_orbit, dim_intersection, maximal)


def explicit_family(n: int, m: int, b, c) -> Hypersurface:
    """The two concrete families realizing maximal variation (n >= 4).

    For m = 2:
        f = t0^4 + b*(t1^3 + ... + tn^3)*t0 + (t1^4 + ... + tn^4)
            + c * sum over 4-subsets of t_{i1} t_{i2} t_{i3} t_{i4}.
    For m >= 3:
        f = t0^2m + b*(t1^{m+1} + ... + tn^{m+1})*t0^{m-1}
            + c*t1*t2*t3*(t4^{m-1} + ... + tn^{m-1})*t0^{m-2}
            + t1^2m + ... + tn^2m.
    """
    b, c = Fraction(b), Fraction(c)
    if not isinstance(n, int) or n < 4:
        raise InvalidInput("need n >= 4")
    if not isinstance(m, int) or not 2 <= m <= n - 1:
        raise InvalidInput("need 2 <= m <= n-1")
    if b == 0 or c == 0:
        raise InvalidInput("parameters b and c must be nonzero")

    def power(i, e):
        return tuple(e if j == i else 0 for j in range(n))

    # the graded parts f_0, ..., f_{2m} in z1..zn; for m = 2, f_{m+2} is f_{2m}
    parts: list[dict] = [{} for _ in range(2 * m + 1)]
    parts[0][(0,) * n] = Fraction(1)
    for i in range(n):
        parts[m + 1][power(i, m + 1)] = b
        parts[2 * m][power(i, 2 * m)] = Fraction(1)
    if m == 2:
        for subset in combinations(range(n), 4):
            parts[m + 2][tuple(int(i in subset) for i in range(n))] = c
    else:
        for i in range(3, n):
            parts[m + 2][(1, 1, 1) + power(i, m - 1)[3:]] = c
    zvars = tuple(f"z{i}" for i in range(1, n + 1))
    return _from_graded_parts([SparsePoly(zvars, terms) for terms in parts])
