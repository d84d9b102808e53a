"""Split a reducible energy form into its irreducible fibers.

Two disjoint edges on a four-point probability space decompose into two
single-edge fibers; the energy, the semigroup and the resolvent all split
blockwise, and the residuals of those identities are reported.
"""

import numpy as np

from ergodec import (
    DirichletForm,
    decompose,
    validate_space,
    verify_decomposition,
)

space = validate_space([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])
jump = np.zeros((4, 4))
jump[0, 1] = jump[1, 0] = 1.0   # edge a-b, weight 1
jump[2, 3] = jump[3, 2] = 2.0   # edge c-d, weight 2
form = DirichletForm.from_jump_kernel(space, jump)

dec = decompose(form)
print("index weights:", dict(zip(dec.labels, dec.quotient.index.nu)))
for z, fiber in zip(dec.labels, dec.fibers):
    print(f"fiber {z}: points {fiber.space.points}, energy matrix\n{fiber.matrix}")

f = np.array([1.0, 0.0, 2.0, -1.0])
print("E(f)           =", form.energy(f))
print("reassembled    =", dec.reassembled_energy(f))

report = verify_decomposition(dec)
for r in report.residuals:  # form, semigroup and resolvent at three parameters each, isometry
    print(f"{r.name} defect = {r.value:.3e} (tolerance {r.tolerance:g})")
print("all fibers irreducible:", all(report.fibers_irreducible))
