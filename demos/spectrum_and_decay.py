"""Mercer spectra on the sphere: projection, parity, decay, reconstruction.

Projects the two-layer kernels onto Gegenbauer polynomials, shows the
parity structure of the eigenvalues, fits the power-law decay, and
verifies that truncation error is controlled by the analytic tail bound
plus the quadrature's own error in the degrees it keeps.
"""

import numpy as np

from spherekern import (
    GegenbauerBasis,
    eigendecay_fit,
    make_kernel,
    mercer_spectrum,
    reconstruct,
    addition_constant,
    gegenbauer_at_one,
    tail_sum,
)
from spherekern.spectral import _degree_terms

d = 3
M = 40
print(f"quadrature orthogonality defect: {GegenbauerBasis(d, M).orthogonality_defect():.2e}")

nt = mercer_spectrum(make_kernel("nt", 1, d=d), d, M)
rf = mercer_spectrum(make_kernel("rf", 1, d=d), d, M)

print("\nfirst eigenvalues (degree: nt, rf)")
for i in range(8):
    print(f"  {i}: {nt.eigenvalues[i]:.3e}  {rf.eigenvalues[i]:.3e}")

# One parity carries the decay; the other is identically zero past the
# low degrees.  For s = 1 the surviving parity is even.
odd_mass_nt = sum(nt.eigenvalues[3::2])
print(f"\nnt s=1 odd-degree mass beyond degree 1: {odd_mass_nt:.2e}")

for label, table, parity, rng in (
    ("nt s=1", nt, "even", (10, 40)),
    ("rf s=1", rf, "even", (10, 40)),
):
    slope, r2 = eigendecay_fit(table, parity=parity, degree_range=rng)
    print(f"{label} {parity}-degree slope on {rng}: {slope:.3f} (r^2 = {r2:.5f})")

# Reconstruction error shrinks with the truncation degree.  The exact tail
# bounds the truncation error of the exact spectrum; a quadrature table is
# further off by the error of its shares of kappa(1) in the degrees <= m,
# so the sup error is at most the tail plus that (triangle inequality).
grid = np.linspace(-1.0, 1.0, 201)
kernel = make_kernel("nt", 1, d=d)
print("\ntruncation m: sup reconstruction error <= tail bound + quadrature error")
for m in (10, 20, 40):
    table = mercer_spectrum(kernel, d, m)
    sup = np.max(np.abs(reconstruct(table, grid) - kernel(grid)))
    shares = [lam * addition_constant(d, i) * gegenbauer_at_one(d, i)
              for i, lam in enumerate(table.eigenvalues)]
    quad = np.sum(np.abs(np.array(shares) - _degree_terms("nt", 1, d, m)))
    print(f"  {m:>3}: {sup:.3e} <= {tail_sum('nt', 1, d, m):.3e} + {quad:.1e}")
