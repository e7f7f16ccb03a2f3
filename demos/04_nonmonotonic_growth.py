"""Adding links usually raises the exponent, but not always.

Starting from a star on 11 nodes (q = 2, the minimum) and filling in the
missing links one at a time, q climbs towards the regular endpoint where
it stops being defined. A few additions along the way strictly lower it.

Run: python demos/04_nonmonotonic_growth.py
"""
import numpy as np

from sdegraph import Graph, add_link, sde

n = 11
rng = np.random.default_rng(7)

w = np.zeros((n, n))
w[0, 1:] = w[1:, 0] = 1.0
g = Graph.from_dense(w)

trajectory = [sde(g).q]
missing = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
for k in rng.permutation(len(missing)):
    g = add_link(g, *missing[int(k)])
    r = sde(g)
    if r.is_undefined:
        print(f"step {len(trajectory)}: complete graph reached, q undefined")
        break
    trajectory.append(r.q)

drops = [(i, a, b) for i, (a, b) in enumerate(zip(trajectory, trajectory[1:]))
         if b < a - 1e-8]
print(f"start q = {trajectory[0]:.6f}, peak q = {max(trajectory):.4f}, "
      f"{len(trajectory)} non-regular graphs")
print(f"strictly decreasing steps in this run: {len(drops)}")
for i, a, b in drops:
    print(f"  after link {i + 1}: {a:.5f} -> {b:.5f}")

print("\nsparkline of q along the fill:")
lo, hi = min(trajectory), max(trajectory)
blocks = "▁▂▃▄▅▆▇█"
line = "".join(blocks[int((q - lo) / (hi - lo) * (len(blocks) - 1))]
               for q in trajectory)
print(f"  {line}")
