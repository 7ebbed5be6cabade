"""Counting the tangent variety when it is finite: n = 3, m = 2.

For a quartic in projective 3-space the equations at a general point are
a cubic and a quartic in three direction variables, so the expected count
is 3 * 4 = 12.  The resultant after a random coordinate change produces a
binary form whose degree and squarefreeness certify the count.  Each
count below is settled mod the prime 2^61 - 1 from 13 evaluations of that
resultant; the exact resultant and Yun's squarefree test run only when
that certificate declines.  The degenerate input at the end stops before
either, because both equations vanish identically.
"""

import random

from vmrt import Hypersurface, ResultantDegenerate, build_converse, count_vmrt_points, parse_poly
from vmrt.sampling import rand_homogeneous, rand_point_off_branch

ZV = ("z1", "z2", "z3")

print("Ten seeded quartic configurations:")
for trial in range(10):
    rng = random.Random(900 + trial)
    b3 = rand_homogeneous(rng, ZV, 3)
    b4 = rand_homogeneous(rng, ZV, 4)
    hyp = build_converse([b3, b4])
    y = rand_point_off_branch(rng, hyp)
    degree, squarefree = count_vmrt_points(hyp, y, seed=trial)
    print(f"  trial {trial}: degree {degree}, squarefree {squarefree}")

print()
print("Degenerate input is reported, not silently repaired:")
q = parse_poly("t0^2 + t1^2 + t2^2 + t3^2")
square = Hypersurface(q * q)
try:
    count_vmrt_points(square, [1, 1, 1], seed=0)
except ResultantDegenerate as exc:
    print(f"  ResultantDegenerate: {exc}")
