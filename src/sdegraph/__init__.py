"""Spectral degree exponent of weighted undirected graphs.

The exponent q is the unique value in [2, inf] at which the q-power mean
of the weighted degree sequence equals the spectral radius. This package
computes it with log-domain root finding, verifies its structural theory
(biregular graphs pin q = 2; a component with every degree at the maximum
pins q = inf),
generates the graph families with known asymptotics, and reproduces the
exponent-vs-metric correlation study on exhaustive and random corpora.

The names exported here are the ones the README and the demos use. Every
other name is imported from its module: the error classes from
``sdegraph.errors``, the studies from ``sdegraph.study``, and so on.
"""

from .families import (family_q, fork_q_constant, generate, lollipop_limit_lambda1,
                       lollipop_q_asymptotic, path_q_asymptotic, path_q_exact,
                       wheel_limit_check)
from .graph import Graph, add_link, classify, degree_sequence
from .io import parse_graph6, parse_weighted_edge_list, read_graph6_file
from .metrics import metric_records, metric_suite
from .solver import bounds, f1, sde, solve_bisection, solve_recursion
from .spectral import spectral_radius

__version__ = "0.1.0"

__all__ = [
    "Graph", "add_link", "bounds", "classify", "degree_sequence", "f1", "family_q",
    "fork_q_constant", "generate", "lollipop_limit_lambda1", "lollipop_q_asymptotic",
    "metric_records", "metric_suite", "parse_graph6", "parse_weighted_edge_list",
    "path_q_asymptotic", "path_q_exact", "read_graph6_file", "sde", "solve_bisection",
    "solve_recursion", "spectral_radius", "wheel_limit_check",
]
