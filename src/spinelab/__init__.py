"""spinelab: census and equivariant-cohomology toolkit for small graph complexes."""

from spinelab.algebra import (
    AlgebraMorphism,
    Element,
    GradedAlgebra,
    ProductAlgebra,
    ProductMorphism,
    cohomology_of_metacyclic,
    dimensions,
    equalizer,
    invariants,
    parse_element,
    verify_free_module,
)
from spinelab.equivariant import (
    ZpGraph,
    classify_reduced,
    enumerate_zp_graphs,
    equivariant_expansions,
    nielsen_closure,
    nielsen_moves,
)
from spinelab.graphs import (
    HalfEdgeGraph,
    build_graph,
    collapse,
    enumerate_forests,
    is_admissible,
    rank,
)
from spinelab.series import GradedDims, PowerSeriesRat, series_equal
from spinelab.spine import (
    match_names,
    quotient_complex,
    singular_graphs,
)
from spinelab.symmetry import (
    CanonicalForm,
    GraphAutomorphism,
    canonical_form,
    sylow_p_order,
)

__all__ = [
    "AlgebraMorphism",
    "CanonicalForm",
    "Element",
    "GradedAlgebra",
    "GradedDims",
    "GraphAutomorphism",
    "HalfEdgeGraph",
    "PowerSeriesRat",
    "ProductAlgebra",
    "ProductMorphism",
    "ZpGraph",
    "build_graph",
    "canonical_form",
    "classify_reduced",
    "cohomology_of_metacyclic",
    "collapse",
    "dimensions",
    "enumerate_forests",
    "enumerate_zp_graphs",
    "equalizer",
    "equivariant_expansions",
    "invariants",
    "is_admissible",
    "match_names",
    "nielsen_closure",
    "nielsen_moves",
    "parse_element",
    "quotient_complex",
    "rank",
    "series_equal",
    "singular_graphs",
    "sylow_p_order",
    "verify_free_module",
]
