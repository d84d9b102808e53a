"""Reweighted decompositions and their projective uniqueness.

Two different strictly positive densities decompose the same form; the
induced index measures differ, but the lifted fiber data agrees up to the
ratio of the index measures, and both reassemble the original energy
exactly.
"""

import numpy as np

from ergodec import compare_projective, decompose_weighted, random_form

form = random_form(2, 9, 3, killing_prob=0.0)
rng = np.random.default_rng(0)
phi = rng.uniform(0.5, 2.0, form.n)
psi = rng.uniform(0.5, 2.0, form.n)

dec_phi = decompose_weighted(form, phi)
dec_psi = decompose_weighted(form, psi)

print("index weights under phi:", np.round(dec_phi.index_weights, 6))
print("index weights under psi:", np.round(dec_psi.index_weights, 6))

f = rng.uniform(-1.0, 1.0, form.n)
print("E(f)                    =", form.energy(f))
print("reassembled through phi =", dec_phi.reassembled_energy(f))
print("reassembled through psi =", dec_psi.reassembled_energy(f))

comparison = compare_projective(dec_phi, dec_psi)
print("density ratio g =", np.round(comparison.density_ratio, 6))
for r in comparison.residuals:
    print(f"{r.name} defect", "=", r.value)
