"""Spectral degree exponent of weighted undirected graphs.

The exponent q is the unique value in [2, inf] at which the q-power mean
of the weighted degree sequence equals the spectral radius. This package
computes it with log-domain root finding, verifies its structural theory
(biregular graphs pin q = 2; a max-degree clique component pins q = inf),
generates the graph families with known asymptotics, and reproduces the
exponent-vs-metric correlation study on exhaustive and random corpora.
"""

from .errors import (AllDegreesZero, BadSpec, ConstantSeries, DisconnectedInput,
                     DuplicateLink, FilterExhausted, InputError, InvalidGraph,
                     LinkExists, MalformedGraph6, NegativeWeight, NoConvergence,
                     NumericalError, ParseError, RegularGraph, RewireConflict,
                     SdegraphError, SelfLoop, TooLargeForDense,
                     UndefinedAssortativity, WeightedUnsupported)
from .families import (FamilySpec, analytic_lambda1, ba_graph, er_graph, family_q,
                       fork_q_constant, generate, lollipop_limit_lambda1,
                       lollipop_q_asymptotic, parse_family, path_q_asymptotic,
                       path_q_exact, wheel_limit_check)
from .graph import (Biregular, DegreeSequence, Generic, Graph, GraphClass,
                    MaxCliqueComponent, Regular, add_link, classify,
                    connected_components, degree_sequence, dpr_rewire)
from .io import (encode_graph6, load_edge_list, parse_graph6,
                 parse_weighted_edge_list, read_graph6_file, read_records_csv,
                 write_records_csv)
from .metrics import (METRIC_NAMES, assortativity, metric_suite, pearson,
                      transitivity)
from .solver import (Q_MAX, SdeBounds, SdeResult, bounds, f1, sde, solve_bisection,
                     solve_newton, solve_recursion)
from .spectral import Spectrum, full_spectrum, spectral_radius

__version__ = "0.1.0"

__all__ = [
    "AllDegreesZero", "BadSpec", "Biregular", "ConstantSeries", "DegreeSequence",
    "DisconnectedInput", "DuplicateLink", "FamilySpec", "FilterExhausted",
    "Generic", "Graph", "GraphClass", "InputError", "InvalidGraph", "LinkExists",
    "MalformedGraph6", "MaxCliqueComponent", "METRIC_NAMES", "NegativeWeight",
    "NoConvergence", "NumericalError", "ParseError", "Q_MAX", "Regular",
    "RegularGraph", "RewireConflict", "SdeBounds", "SdeResult", "SdegraphError",
    "SelfLoop", "Spectrum", "TooLargeForDense", "UndefinedAssortativity",
    "WeightedUnsupported", "add_link", "analytic_lambda1", "assortativity",
    "ba_graph", "bounds", "classify", "connected_components", "degree_sequence",
    "dpr_rewire", "encode_graph6", "er_graph", "f1", "family_q",
    "fork_q_constant", "full_spectrum", "generate", "load_edge_list",
    "lollipop_limit_lambda1", "lollipop_q_asymptotic", "metric_suite", "parse_family", "parse_graph6",
    "parse_weighted_edge_list", "path_q_asymptotic", "path_q_exact", "pearson",
    "read_graph6_file", "read_records_csv", "sde",
    "solve_bisection", "solve_newton", "solve_recursion", "spectral_radius", "transitivity",
    "wheel_limit_check", "write_records_csv",
]
