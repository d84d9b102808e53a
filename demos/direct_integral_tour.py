"""Direct sums of weighted L2 spaces and block operators.

Walks through the diagonal embedding and its isometry, the Lp version, a
decomposable operator and its commutation with every index multiplication,
and the blockwise functional calculus with a Chebyshev-interpolated
function.
"""

import numpy as np

from ergodec import (
    assemble_lp,
    commutes_with_diagonalizables,
    decompose,
    decompose_operator,
    diagonalizable,
    functional_calculus,
    random_form,
    semigroup,
)

form = random_form(7, 10, 3, killing_prob=0.0)
dec = decompose(form)
print("blocks:", [dec.quotient.blocks[z] for z in dec.labels])

for p in (1, 2, 4):
    report = assemble_lp(dec.quotient.space, dec.family, p)
    print(f"L^{p} isometry defect = {report.residuals[0].value:.2e}, "
          f"lattice exact = {report.lattice_exact}")

t1 = semigroup(form, 1.0)
op = decompose_operator(t1, dec.quotient)
print("operator norm (max over fibers):", op.operator_norm)
print("commutes with index multiplications:",
      commutes_with_diagonalizables(t1, op.family)[0])

swap = np.eye(form.n)
swap[[0, 1]] = swap[[1, 0]]  # swapping two points of different fibers
ok, witness = commutes_with_diagonalizables(swap @ t1 @ swap, op.family)
print("perturbed operator decomposable:", ok, "witness indicator:", witness)

proj = diagonalizable(op.family, [1.0, 0.0, 0.0])
print("projection onto first fiber, trace:", np.trace(proj.assembled))

squared = functional_calculus(op, [0.0, 0.0, 1.0])
print("||phi(B) blockwise - T_2||_F =",
      np.linalg.norm(squared.assembled - decompose_operator(semigroup(form, 2.0), dec.quotient).assembled, "fro"))

exp_op = functional_calculus(op, np.exp, degree=50)
print("exp(T_1) computed blockwise, norm:", exp_op.operator_norm)
