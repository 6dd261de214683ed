"""The exact LP relaxation f_r(n,a) and its dual certificates.

Relaxing the 0/1 program to 0 <= x_S <= 1 gives an upper bound f_r(n,a)
for f(n,a) that an exact simplex can pin down.  Duality runs
the other way: any nonnegative row combination whose column sums reach 1
bounds f_r from above, and the alpha/beta/gamma certificate is exactly
such a combination.
"""

import math

from frankl_lab import (bar_f, build_relaxation, certificate_to_dual,
                        compute_f, make_certificate,
                        prove_diagonal_relaxation_value, solve_exact,
                        symmetric_relaxation_value, verify_dual_bound)

# Small instances solve directly on the explicit program: one variable
# per subset, with an integer-preserving simplex that keeps every
# tableau entry an integer over one common denominator.
print("sandwich f <= f_r on n = 3:")
for a in range(1, 5):
    f = compute_f(3, a).value
    sol = solve_exact(build_relaxation(3, a))
    print(f"  a={a}:  f = {f}   f_r = {sol.objective}  (~{float(sol.objective):.3f})")

# The optimal dual from the solver is itself a verified upper bound.
problem = build_relaxation(3, 3)
solution = solve_exact(problem)
print("\nstrong duality:", verify_dual_bound(problem, solution.dual) == solution.objective)

# Everything in the program is symmetric under permutations of the
# ground elements, so an optimal solution exists that depends only on
# |S|.  Collapsing to one variable per cardinality solves n = 8, 9 in
# milliseconds, where the explicit program has ~10^5 rows.
for n in (5, 8, 9):
    value, levels = symmetric_relaxation_value(n, n)
    print(f"\nf_r({n},{n}) = {value} (~{float(value):.4f}), floor {math.floor(value)}")
    print("  per-cardinality optimum:", {k: str(v) for k, v in levels.items() if v})

# On the diagonal from n = 7 the relaxation meets the closed-form bound
# exactly; the package proves it with an explicit primal-dual pair.
value = prove_diagonal_relaxation_value(7)
print("\nproved: f_r(7,7) =", value, "= fbar(7,7) =", bar_f(7, 7))

# The certificate as a dual vector for the explicit problem:
cert = make_certificate(7)
bound = verify_dual_bound(problem := build_relaxation(7, 7), certificate_to_dual(cert, problem))
print("certificate dual value at (7,7):", bound)
