"""Tour of the exponent on single graphs: definition, bounds, extremal cases.

Run: python demos/01_single_graphs.py
"""
from sdegraph import (Graph, bounds, classify, degree_sequence, f1, generate,
                      sde, solve_bisection, solve_recursion, spectral_radius)

# The exponent q solves lambda1 = ((1/N) sum d_i^q)^(1/q). Take the path
# with a double fork at each end: its spectral radius is exactly 2 no
# matter how long the middle path is, so q is a constant of the family.
g = generate("fork:25")
result = sde(g)
print(f"fork:25  ->  q = {result.q:.9f}  ({result.method}, "
      f"{result.iterations} iterations, residual {result.residual:.2e})")

# q depends on the graph only through lambda1 and the degree histogram:
# the distinct degrees, how many nodes hold each, and c, the nodes at d_max.
ds = degree_sequence(g.degrees())
lam = spectral_radius(g)
print("degree histogram:", dict(zip(ds.values.tolist(), ds.counts.tolist())),
      f"c = {ds.c}")

# The default solver above is Newton's method from the closed-form upper
# bound q0. Log-domain bisection and the paper's accelerated fixed-point
# recursion, also started from q0, agree with it.
qb = solve_bisection(ds, lam)
qr = solve_recursion(ds, lam)
print(f"newton {result.q:.12f}, bisection {qb.q:.12f}, recursion {qr.q:.12f}")

# The bracket from the degree sequence alone:
b = bounds(ds, lam)
print(f"bounds: {b.lower:.4f} <= q <= {b.sharpened_upper:.4f} <= {b.upper:.4f}")

# f1 is the log-domain root function; it vanishes at the solution.
print(f"f1 at the root: {f1(result.q, ds, lam):.2e}")

# Extremal cases. Biregularity is read from the degrees: every degree is
# d_max or d_min and every link joins the two classes (kbip:3:4).
print()
for spec in ("complete:6", "kbip:3:4", "star:9"):
    g = generate(spec)
    print(f"{spec:12s} classify={type(classify(g)).__name__:20s} "
          f"sde={sde(g).q}")

# A non-regular graph has q = infinity exactly when some component has every
# degree at the maximum degree: a clique component realizing it, as here, or
# any other such component, such as C5 beside P3.
k4_p3 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 5), (5, 6)])
print(f"K4 + P3      classify={type(classify(k4_p3)).__name__:20s} "
      f"sde={sde(k4_p3).q}")

# Weighted graphs work throughout; q is scale-invariant.
tri = Graph.from_edges(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
print(f"\nweighted triangle: q = {sde(tri).q:.6f}, "
      f"scaled x3.7: q = {sde(tri.scaled(3.7)).q:.6f}")
