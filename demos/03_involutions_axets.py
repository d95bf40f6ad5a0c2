"""Miyamoto involutions and the axets they generate.

Run with: python3 demos/03_involutions_axets.py
"""

from fractions import Fraction

from axetlab import (AbstractAxet, classify_shape, closure, is_automorphism,
                     make_3C_skew, make_monster, make_Q2_skew, make_Q2x,
                     miyamoto, odd_subaxet, realize_axet, verify_axis)
from axetlab.scalars import PrimeField

ex = make_Q2_skew()
A = ex.algebra

print("the monster axis t1 negates its 2/3 eigenspace;")
print("the resulting map swaps the two single axes:")
tau = miyamoto(A, ex.m_axis, ex.m_law)
print("   tau(s1) =", tau(A.gen("s1")))
print("   tau(s2) =", tau(A.gen("s2")))
print("   automorphism:", is_automorphism(A, tau),
      " involution:", tau.is_involution())

print()
print("under the same monster law the jordan axis s1 has an empty odd")
print("part, so its involution is the identity:")
print("   identity:", miyamoto(A, ex.j_axis, ex.m_law).is_identity())

print()
print("realizing the axet generated by {t1, s1}:")
realized = realize_axet([verify_axis(A, ex.m_axis, ex.m_law),
                         verify_axis(A, ex.j_axis, ex.m_law)])
print("   points:", realized.labels)
print("   perms: ", realized.perms)
print("   shape: ", classify_shape(realized))
print("one involution transposes the other two points; the rest fix")
print("everything, which is exactly the 3-point skew shape")

print()
print("the same machinery on the three generators of 3C(1/4, 3/4):")
sk = make_3C_skew(Fraction(1, 4))
realized = realize_axet([verify_axis(sk.algebra, sk.m_axis, sk.m_law),
                         verify_axis(sk.algebra, sk.j_axis, sk.m_law)])
print("   shape:", classify_shape(realized), "with", realized.size, "points")

print()
print("a non-skew contrast: the two double axes of the F_5 quotient")
print("generate a square")
F5 = PrimeField(5)
Q = make_Q2x()
law = make_monster(F5.coerce(Fraction(2, 3)), F5.coerce(Fraction(1, 3)))
realized = realize_axet([verify_axis(Q, Q.gen("x"), law),
                         verify_axis(Q, Q.gen("z"), law)])
print("   shape:", classify_shape(realized), "with", realized.size, "points")

print()
print("abstract skew axets: two neighbouring points generate everything")
for k in range(1, 9):
    ax = AbstractAxet.skew(k)
    grown = closure(ax, [ax.index("a0"), ax.index("a1")])
    print("   Xskew(%d): closure of {a0, a1} has %2d of %2d points"
          % (k, len(grown), ax.size))

print()
print("for odd k the triple {a_0, a_k, a_-k} is closed and carries the")
print("3-point skew shape again:")
for k in (3, 5, 7):
    sub = odd_subaxet(AbstractAxet.skew(k))
    print("   k = %d: {%s} classifies as %s"
          % (k, ", ".join(sub.labels), classify_shape(sub)))
