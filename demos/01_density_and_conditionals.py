"""Tour of the copula itself: parameter validity, normalizing constants,
density evaluation, and the closed-form marginal/conditional laws.

Run:  python demos/01_density_and_conditionals.py
"""

import numpy as np

from twcm import (
    RhoVector,
    conditional_spec,
    constants,
    copula_bivariate_density,
    copula_cond_1given2,
    copula_density,
    normalize_rho,
    pairwise_phi,
    validate_rho,
)

TWO_PI = 2 * np.pi

# --- validity -----------------------------------------------------------
# Dependence parameters must be nonzero with positive product, and with
# rho_ij = a_i a_j one |a_i| must exceed the sum of the other two: the
# moduli of the amplitudes a fail the triangle inequality.
for raw in [(1.0, 1.0, 1.0), (3.0, 3.0, 1 / 9), (9.18, -1.17, -0.09)]:
    rho = RhoVector(*raw)
    report = validate_rho(rho)
    print(f"rho = {raw}: valid = {report.valid}, "
          f"passing permutations = {report.passing_permutations}")

# --- identifiability ----------------------------------------------------
# Positive rescaling never changes the distribution, so fitted models
# store the product-1 representative.
rho = normalize_rho(RhoVector(9.18, -1.17, -0.09))
print(f"\nidentifiable representative: {np.round(rho.as_array(), 5)} "
      f"(product = {rho.product:.15f})")

cc = constants(rho)
print(f"constants: c1 = {cc.c1:.4f}, c2 = {cc.c2:.6f}")

# --- density ------------------------------------------------------------
u = np.array([1.0, 2.0, 3.0])
print(f"\ndensity at u = {u}: {copula_density(u, rho):.6f}")
print(f"shifted by 1.5 rad:   {copula_density(u + 1.5, rho):.6f} (equal)")

grid = TWO_PI * (np.arange(64) + 0.5) / 64
u1, u2, u3 = np.meshgrid(grid, grid, grid, indexing="ij")
pts = np.stack([u1.ravel(), u2.ravel(), u3.ravel()], axis=1)
mass = copula_density(pts, rho).mean() * TWO_PI**3
print(f"64^3 quadrature of the density: {mass:.10f}")

# --- closed-form margins and conditionals --------------------------------
# Every bivariate marginal is a wrapped-Cauchy-type kernel whose
# concentration follows from rho in closed form.
for pair in [(1, 2), (1, 3), (2, 3)]:
    phi = pairwise_phi(rho, pair)
    print(f"pairwise concentration phi_{pair[0]}{pair[1]} = {phi:+.6f}")

# The one-given-two conditional is wrapped Cauchy with a data-dependent
# center and concentration:
spec = conditional_spec(rho, 3, 1.0, 2.0)
print(f"\nU3 | (U1, U2) = (1, 2): center = {spec.eta:.4f}, "
      f"delta = {spec.delta:.4f} (concentration {spec.concentration:+.4f})")

# Chain rule: joint = bivariate marginal x conditional.
joint = copula_density(u, rho)
biv = copula_bivariate_density(u[1], u[2], pairwise_phi(rho, (2, 3)))
cond = copula_cond_1given2(u, rho, 1)
print(f"chain-rule residual: {abs(joint - biv * cond):.2e}")
