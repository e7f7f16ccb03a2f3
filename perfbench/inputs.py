"""Seeded benchmark inputs, built with this directory's own numpy code.

Nothing here imports ``sdegraph``: the graph6 codec, the structured edge
lists and the Barabasi-Albert generator are written out so that the files
the program reads stay byte-identical across commits of the program, even
when a commit changes its own parsers or family generators. The same seed
always gives the same files.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


# graph6 (small graphs only: n <= 62, one size byte)


def decode_graph6(line: str) -> np.ndarray:
    """Boolean adjacency matrix of one graph6 line."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range in {line!r}")
    bits = np.unpackbits(np.frombuffer(data[1:], dtype=np.uint8) - 63)
    bits = bits.reshape(-1, 8)[:, 2:].ravel()  # 6 payload bits per byte
    adj = np.zeros((n, n), dtype=bool)
    iu, ju = _upper_column_major(n)
    adj[iu, ju] = bits[: iu.size].astype(bool)
    return adj | adj.T


def encode_graph6(adj: np.ndarray) -> str:
    n = adj.shape[0]
    iu, ju = _upper_column_major(n)
    bits = adj[iu, ju].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)])
    six = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1))
    return bytes([n + 63, *(six + 63).tolist()]).decode("ascii")


def _upper_column_major(n: int) -> tuple[np.ndarray, np.ndarray]:
    # graph6 bit order: (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
    ju, iu = np.nonzero(np.tril(np.ones((n, n), dtype=bool), -1))
    return iu, ju


def shuffled_corpus(src: Path, dst: Path, rng: np.random.Generator) -> list[np.ndarray]:
    """Write the graphs of ``src`` to ``dst`` in a seeded order, each with a
    seeded relabelling of its nodes; return their adjacency matrices."""
    lines = [ln for ln in src.read_text(encoding="ascii").splitlines() if ln.strip()]
    graphs = []
    for k in rng.permutation(len(lines)):
        adj = decode_graph6(lines[k])
        p = rng.permutation(adj.shape[0])
        graphs.append(adj[np.ix_(p, p)])
    dst.write_text("".join(encode_graph6(a) + "\n" for a in graphs), encoding="ascii")
    return graphs


# edge lists of the structured families, numbered as the paper defines them


def path_edges(n: int) -> np.ndarray:
    i = np.arange(n - 1)
    return np.column_stack([i, i + 1])


def wheel_edges(n: int) -> np.ndarray:
    """Hub 0 joined to a rim cycle on nodes 1..n-1."""
    rim = np.arange(1, n)
    spokes = np.column_stack([np.zeros(n - 1, dtype=int), rim])
    cycle = np.column_stack([rim, np.roll(rim, -1)])
    return np.vstack([spokes, cycle])


def fork_edges(n: int) -> np.ndarray:
    """Path on n nodes with two pendant nodes at each end (n + 4 nodes)."""
    forks = [(0, n), (0, n + 1), (n - 1, n + 2), (n - 1, n + 3)]
    return np.vstack([path_edges(n), forks])


def lollipop_edges(n: int) -> np.ndarray:
    """K4 minus a link, its two loose ends joined to node 4, and a path of
    n nodes hanging off node 4 (n + 5 nodes)."""
    head = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    return np.vstack([head, path_edges(n + 1) + 4])


def ba_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Barabasi-Albert: complete seed on m nodes, then each new node picks m
    distinct targets from the repeated-ends list."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    ends = [v for e in edges for v in e] or [0]
    for v in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            edges.append((v, t))
            ends += [v, t]
    return np.asarray(edges)


def write_edge_list(path: Path, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Write ``edges`` in seeded line order; return the edge array as written.

    Node labels are kept: the program's power iteration starts from a vector
    that depends on the node index, so relabelling would change how many
    iterations fork:500 needs (7 to 15 s), and with it the work of a run.
    """
    out = edges[rng.permutation(len(edges))]
    path.write_text("".join(f"{u} {v}\n" for u, v in out.tolist()), encoding="ascii")
    return out
