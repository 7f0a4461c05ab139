"""Mercer spectra on the sphere: projection, parity, decay, reconstruction.

Projects the two-layer kernels onto Gegenbauer polynomials, shows the
parity structure of the eigenvalues, fits the power-law decay, and
verifies that truncation error is controlled by the analytic tail bound.
"""

import numpy as np

from spherekern import (
    GegenbauerBasis,
    eigendecay_fit,
    make_kernel,
    mercer_spectrum,
    reconstruct,
    tail_sum,
)

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

# Reconstruction error shrinks with the truncation degree and stays
# under the tail estimate.
grid = np.linspace(-1.0, 1.0, 201)
kernel = make_kernel("nt", 1, d=d)
print("\ntruncation M: sup reconstruction error vs tail bound")
for m in (10, 20, 40):
    table = mercer_spectrum(kernel, d, m)
    sup = np.max(np.abs(reconstruct(table, grid) - kernel(grid)))
    print(f"  {m:>3}: {sup:.3e} <= {tail_sum('nt', 1, d, m):.3e}")
