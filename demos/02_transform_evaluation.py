# ---
# jupyter:
#   jupytext:
#     text_representation:
#       format_name: light
# ---

# # Evaluating the transforms across regimes
#
# Three algorithms cover the complex plane, each where it is stable and
# cheapest.  The explicit closed form serves where
# $|\lambda| \ge \max(1, m, m^2/8)$ unless its part-sums cancel: below about
# m^2/8 its terms outgrow the result.  Forward substitution in the
# three-term recurrence in the degree serves where $|\lambda| > m$ and the
# imaginary part is small ($m^2 |\mathrm{Im}\,\lambda| \le 2|\lambda|^2$,
# $|\mathrm{Im}\,\lambda| \le 700$), in m rows.  Everywhere else, below
# $|\lambda| = m$ in particular, the same recurrence is solved by Olver's
# boundary-value algorithm; at $\lambda = 0$ it starts from $\hat p_0 = 2$ and
# gives the exact rational values.  The path names the regime (ZeroLambda,
# below or at and above $\max(1, m)$), not the algorithm, as it did when
# only two algorithms served: the benchmark checks and traces each value by
# it.

import numpy as np

from fourpoly.oracle import quad_transform
from fourpoly.transforms import chebyshev_hat, legendre_hat

for lam in (0.0, 1e-3, 0.5, 3.0, 12.0, 2 + 1j):
    result = legendre_hat(4, lam)
    print(f"lam={lam!s:>8}  value={result.value:.6e}  path={result.path.value}")

# Every path agrees with brute-force Gauss-Legendre quadrature of the
# defining integral:

print("\nmax deviation from quadrature (m <= 12):")
worst = 0.0
for m in range(13):
    for lam in (1e-4, 0.3, 2.0, m + 1.0, m + 9.0, 1.5j, 2 - 1j):
        ref = quad_transform("legendre", m, lam)
        worst = max(worst, abs(legendre_hat(m, lam).value - ref) / (1 + abs(ref)))
        ref = quad_transform("chebyshev", m, lam)
        worst = max(worst, abs(chebyshev_hat(m, lam).value - ref) / (1 + abs(ref)))
print(f"  {worst:.3e}")

# Why the closed form is not used below |lambda| = max(1, m): it loses
# digits to cancellation there.  Here is the naive closed form at m=12, lam=2 against
# the recurrence value the library actually returns:

from fourpoly.coeffs import legendre_coeffs

lam = 2.0
table = legendre_coeffs(12).coeffs
naive = sum(
    c * (np.exp(1j * lam) / (1j * lam) ** n + (-1) ** (n + 12) * np.exp(-1j * lam) / (1j * lam) ** n)
    for n, c in enumerate(table, start=1)
)
good = legendre_hat(12, lam).value
ref = quad_transform("legendre", 12, lam)
print(f"\nnaive closed form : {naive:.6e}")
print(f"recurrence        : {good:.6e}")
print(f"quadrature        : {ref:.6e}")
print(f"naive abs error   : {abs(naive - ref):.2e}   (the terms reach ~1e9)")

# The Legendre case of that recurrence ties neighbouring transforms
# together; it holds at round-off level on the closed-form regime too:

m = 9
for lam in (m + 2.0, m + 20.0):
    up = legendre_hat(m + 1, lam).value
    mid = legendre_hat(m, lam).value
    down = legendre_hat(m - 1, lam).value
    print(f"recurrence residual at lam={lam}: {abs(up + (1j / lam) * (2 * m + 1) * mid - down):.2e}")
