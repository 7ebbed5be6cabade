"""Square certificates for degree-2m polynomials with constant term 1.

Walks the half-square recursion: the symbolic family for m = 2, numeric
certification of a square and a near-square, and the measured term counts
of the tail polynomials as m grows (no closed-form bound is claimed).
"""

from vmrt import UniPoly, build_family, certify, is_perfect_square

print("Symbolic family for m = 2")
fam = build_family(2)
for k in (1, 2):
    print(f"  root coefficient sigma_{k} = {fam.root_polys[k]}")
for k in (3, 4):
    print(f"  tail prediction A_{k}      = {fam.tail_polys[k]}")
print()

print("Certifying (1 + lam)^4, coefficients (4, 6, 4, 1)")
cert = certify([4, 6, 4, 1])
print(f"  pass={cert.passed}  sigma={tuple(map(str, cert.sigma))}  residuals={tuple(map(str, cert.residuals))}")
print()

print("Certifying 1 + lam^4 (squarefree, so it must fail)")
cert = certify([0, 0, 0, 1])
print(f"  pass={cert.passed}  residuals={tuple(map(str, cert.residuals))}")
ok, _ = is_perfect_square(UniPoly([1, 0, 0, 0, 1]))
print(f"  independent square oracle agrees: {ok is False}")
print()

print("A rational square recovered with its root")
p = UniPoly([1, 6, 13, 12, 4])
ok, root = is_perfect_square(p)
print(f"  {p} = ({root})^2: {ok}")
print()

print("Measured term counts of the tail polynomials (documented, not bounded)")
for m in range(1, 9):
    fam = build_family(m)
    counts = [len(fam.tail_polys[k].terms) for k in range(m + 1, 2 * m + 1)]
    print(f"  m={m}: tail term counts {counts}")
