# ---
# jupyter:
#   jupytext:
#     text_representation:
#       format_name: light
# ---

# # Exact coefficient tables
#
# The finite Fourier transform of a Chebyshev or Legendre polynomial of
# degree $m$ is, for $\lambda \ne 0$, a finite combination of
# $e^{\pm i\lambda}$ over powers $(i\lambda)^{-n}$, $n = 1..m+1$.  The
# combination coefficients are exact integers.  This demo builds a few
# tables and shows why arbitrary-precision arithmetic is not optional.

from fourpoly.coeffs import chebyshev_coeffs, legendre_coeffs, coefficients_csv

for m in range(6):
    print(f"T_{m}:", chebyshev_coeffs(m).coeffs)
print()
for m in range(6):
    print(f"P_{m}:", legendre_coeffs(m).coeffs)

# The top Legendre entry is the double factorial (2m-1)!!, which outgrows
# 64-bit integers already near m = 17:

for m in (10, 17, 30, 64):
    top = legendre_coeffs(m).coeffs[m]
    print(f"m={m:3d}  top coefficient has {len(str(top))} digits")

# Tables serialize to a small CSV (the same format the `fourpoly coeffs`
# command emits):

print(coefficients_csv(legendre_coeffs(3)))
