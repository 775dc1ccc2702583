"""Prime factor decomposition of digraphs over the strong product.

The pipeline: quotient out neighborhood-equivalent vertices, build the
Cartesian skeleton by deleting dispensable arcs, factor the skeleton over the
Cartesian product, and regroup those factors into the strong prime factors.
A brute-force oracle provides independent ground truth at desk scale.
"""

from .canon import CanonicalForm, canonical_form, is_isomorphic
from .cartesian_pfd import (
    EdgeColoring,
    cartesian_pfd,
    direction_conflicts,
    undirected_cartesian_pfd,
)
from .digraph import Digraph, complete_digraph
from .factorization import (
    Factorization,
    is_cartesian_product,
    is_strong_product,
    reconstruct_cartesian,
    reconstruct_strong,
)
from .graphio import export_dot, parse_edge_list, serialize_edge_list
from .oracle import (
    SplitMix64,
    brute_force_strong_pfd,
    enumerate_connected_digraphs,
    random_connected_digraph,
    random_prime_digraph,
    random_thin_digraph,
)
from .products import CoordGraph, cartesian_product, strong_product
from .relations import (
    Partition,
    QuotientWithMultiplicity,
    blowup,
    is_thin,
    quotient,
    s_partition,
)
from .skeleton import DispensabilityWitness, SkeletonResult, cartesian_skeleton, dispensability
from .strong_pfd import gcd_multiplicity, strong_pfd, strong_pfd_thin, verify_strong_grouping

__all__ = [
    "CanonicalForm",
    "CoordGraph",
    "Digraph",
    "DispensabilityWitness",
    "EdgeColoring",
    "Factorization",
    "Partition",
    "QuotientWithMultiplicity",
    "SkeletonResult",
    "SplitMix64",
    "blowup",
    "brute_force_strong_pfd",
    "canonical_form",
    "cartesian_pfd",
    "cartesian_product",
    "cartesian_skeleton",
    "complete_digraph",
    "direction_conflicts",
    "dispensability",
    "enumerate_connected_digraphs",
    "export_dot",
    "gcd_multiplicity",
    "is_cartesian_product",
    "is_isomorphic",
    "is_strong_product",
    "is_thin",
    "parse_edge_list",
    "quotient",
    "random_connected_digraph",
    "random_prime_digraph",
    "random_thin_digraph",
    "reconstruct_cartesian",
    "reconstruct_strong",
    "s_partition",
    "serialize_edge_list",
    "strong_pfd",
    "strong_pfd_thin",
    "strong_product",
    "undirected_cartesian_pfd",
    "verify_strong_grouping",
]
