# ---
# jupyter:
#   jupytext:
#     text_representation:
#       format_name: light
# ---

# # Half-order Bessel functions, explicitly
#
# $J_{m+1/2}$ differs from the Legendre transform only by the factor
# $i^{-m}\sqrt{2\pi/\lambda}$, so the same integer tables give an elementary
# expression for it: exponentials over half-integer powers of $\lambda$.

import math

from fourpoly.bessel import bessel_half, legendre_hat_via_bessel
from fourpoly.transforms import legendre_hat

# The first two half-order functions have textbook closed forms:

for lam in (0.5, 2.0, 10.0):
    print(f"lam={lam:5}  J_1/2={bessel_half(0, lam).real: .12f}"
          f"  vs sqrt(2/(pi lam)) sin = {math.sqrt(2/(math.pi*lam))*math.sin(lam): .12f}")

for lam in (0.5, 2.0, 10.0):
    classical = math.sqrt(2 / (math.pi * lam)) * (math.sin(lam) / lam - math.cos(lam))
    print(f"lam={lam:5}  J_3/2={bessel_half(1, lam).real: .12f}  vs classical = {classical: .12f}")

# Converting back through the transform is an exact route inverse, including
# on the negative real axis where both sides take the principal square root:

print("\nround trip |via_bessel - direct| / |direct|:")
for m in (0, 3, 8):
    for lam in (4.0 + 0j, -6.0 + 0j, 5 - 2j):
        direct = legendre_hat(m, lam).value
        via = legendre_hat_via_bessel(m, lam)
        print(f"  m={m} lam={lam}: {abs(via - direct)/abs(direct):.2e}")

# And J_{m+1/2}(0) = 0 for every m:

print("\nat lam=0:", [bessel_half(m, 0.0) for m in range(5)])
