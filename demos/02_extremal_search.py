"""Computing the extremal functions f(n,a) and g(n,m) exactly.

f(n,a): the largest union-closed family on [n] where every element is in
at most a sets.  g(n,m): among union-closed families of exactly m sets,
the smallest possible count for the most frequent element.  f below the
power set and g at every n use branch-and-bound with union-closure
propagation; at n <= 4 an exhaustive sweep of the small lattices seeds
f's search, which then only proves the seed optimal.  g near the full
power set (2^n - m <= n) chooses the few missing sets instead.
"""

from frankl_lab import SearchBudget, compute_f, compute_g, enumerate_union_closed

# The diagonal f(a,a) dominates every f(n,a) with n >= a; its first
# values are 2, 4, 5, 8, 9, ...
print("f(a,a) for a = 1..5:")
for a in range(1, 6):
    result = compute_f(a, a)
    print(f"  f({a},{a}) = {result.value}  (proved: {result.proven_optimal}, "
          f"{result.nodes} nodes)")

# Every result carries a witness family that re-validates independently.
r = compute_f(3, 3)
print("\nwitness for f(3,3):", r.witness.sets())

# The conjecture would force f(n,a) <= 2a; f(4,4) = 8 = 2*4 shows the
# bound is tight at a = 4.
print("f(4,4) equals 2a:", compute_f(4, 4).value == 8)

# g near the top of the lattice: removing up to n-1 sets from the power
# set cannot dodge an element that sits in half of everything.
print("\ng(n, 2^n - i) for n = 4:")
for i in range(4):
    result = compute_g(4, 16 - i)
    print(f"  g(4,{16 - i}) = {result.value}")

# Budgets make long searches interruptible: the result is then a bound
# with a valid witness rather than a proven optimum.
r = compute_f(5, 5, SearchBudget(max_nodes=100))
print(f"\nf(5,5) under a 100-node budget: value {r.value}, "
      f"proven optimal: {r.proven_optimal}")

# Exhaustive enumeration is available below n = 5; there are exactly
# 4, 14, 122, 4960 union-closed families on 1..4 elements.
counts = [sum(1 for _ in enumerate_union_closed(n)) for n in range(1, 5)]
print("\nunion-closed family counts for n = 1..4:", counts)
