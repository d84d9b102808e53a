"""The tolerance policy: every threshold of the library, in one place.

One relative tolerance ``TAU`` decides every fact about a valid form, each
against the scale of the quantity it compares.  A jump weight joins two
points when it exceeds ``TAU`` times the largest jump weight, in
``invariant_sets`` and ``is_invariant`` alike.  A point carries killing when
k(x) exceeds ``TAU`` times A(x, x); over mu(x) both are rates of the
generator L = -diag(mu)^{-1} A, so the verdict of ``killing_free`` and
``classify`` depends on A / mu alone.  Checks of identities that these
verdicts imply (T_1 mass, energy floor, stationarity, leakage) allow
``TAU`` times the scale of the checked quantity as roundoff, about
n * 2.2e-16 for n up to 4500.  Input validation keeps its own margins,
relative to 1 + max |A|; reported residuals are compared with
``RESIDUAL_TOLERANCE`` unless the caller passes a tolerance.
"""

#: The relative tolerance of every decision about a valid form.
TAU = 1e-12

#: Default bound on reported residuals, and of the CLI's ``--tolerance``.
RESIDUAL_TOLERANCE = 1e-10

#: Validation margins: asymmetry and the rebuild from jump and killing, the
#: contraction-witness search, and the PSD check (relative to max(1, norm)).
SYMMETRY_RTOL = 1e-13
MARKOV_RTOL = 1e-14
PSD_RTOL = 1e-12
