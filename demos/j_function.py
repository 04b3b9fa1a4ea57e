"""From K3 fibration numbers to the j-function.

The degree-6 K3 surface in P(1,1,1,3) has two-point numbers equal to
twice the weights w_d of the inverted j-expansion.  Summing the weights
over ordered partitions of d recovers the j coefficients themselves, and
an exact series reversion closes the loop.
"""

from resmirror import cached_two_point, geometry, j_coefficients, reversion_weights

DMAX = 4
K3 = geometry("wp2")

print("two-point numbers of the K3 fibration and the expansion weights:")
for d in range(1, DMAX + 1):
    v = cached_two_point(K3, d, 0, 1)
    print("  d=%d: w(O_1 O_z) = %-14s  w_%d = %s" % (d, v, d, v / 2))

je = j_coefficients(DMAX)
print("\nordered-partition sums give the modular coefficients:")
for d, c in enumerate(je.j, 1):
    print("  j_%d = %s" % (d, c))

assert reversion_weights(list(je.j)) == list(je.w)
print("\nreversion round trip (j -> weights): ok")
