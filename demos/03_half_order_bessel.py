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

import cmath
import math

from fourpoly.bessel import bessel_half
from fourpoly.transforms import legendre_hat

# The first two half-order functions have textbook closed forms:

for lam in (0.5, 2.0, 10.0):
    print(f"lam={lam:5}  J_1/2={bessel_half(0, lam).real: .12f}"
          f"  vs sqrt(2/(pi lam)) sin = {math.sqrt(2/(math.pi*lam))*math.sin(lam): .12f}")

for lam in (0.5, 2.0, 10.0):
    classical = math.sqrt(2 / (math.pi * lam)) * (math.sin(lam) / lam - math.cos(lam))
    print(f"lam={lam:5}  J_3/2={bessel_half(1, lam).real: .12f}  vs classical = {classical: .12f}")

# DLMF gives a second route from the same transform, read at $-\lambda$:
# $J_{m+1/2}(\lambda) = \sqrt{2\lambda/\pi}\, j_m(\lambda)$ (10.47.3) with
# $j_m(\lambda) = \tfrac{(-i)^m}{2}\int_{-1}^{1} e^{i\lambda t} P_m(t)\,dt$
# (10.54.2).  The two agree, also on the negative real axis, where both take
# the principal square root:

print("\nJ_(m+1/2) against the DLMF route:")
for m in (0, 3, 8):
    for lam in (4.0 + 0j, -6.0 + 0j, 5 - 2j):
        j = bessel_half(m, lam)
        dlmf = cmath.sqrt(2 * lam / math.pi) * (-1j) ** m / 2 * legendre_hat(m, -lam).value
        print(f"  m={m} lam={lam}: J={j:.12g}  |J - dlmf|/|J| = {abs(j - dlmf)/abs(j):.2e}")

# And J_{m+1/2}(0) = 0 for every m:

print("\nat lam=0:", [bessel_half(m, 0.0) for m in range(5)])
