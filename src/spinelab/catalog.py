"""Explicit constructions of the small named graphs and their symmetries.

Names follow the usual conventions for these graphs: R_n is the rose with
n loops, a "theta" block is a pair of vertices joined by parallel edges,
K_{a,b} is complete bipartite, and the decorated names (wedges, loops
attached at vertices, subdivided edges) describe how the pieces are glued.
The rank-4 table at the bottom lists every class of rank-4 admissible
graph admitting a symmetry of order 3, keyed by its report label.
"""

from __future__ import annotations

from spinelab.graphs import HalfEdgeGraph, build_graph
from spinelab.symmetry import GraphAutomorphism


def rose(n: int) -> HalfEdgeGraph:
    return build_graph(1, [(0, 0)] * n)


def multi_edge(m: int) -> HalfEdgeGraph:
    """Two vertices joined by m parallel edges."""
    return build_graph(2, [(0, 1)] * m)


def theta_with_roses(m: int, s: int, t: int) -> HalfEdgeGraph:
    """m parallel edges between two vertices, plus s loops at one end and
    t loops at the other."""
    edges = [(0, 1)] * m + [(0, 0)] * s + [(1, 1)] * t
    return build_graph(2, edges)


def wedge_of_multi_edges(m1: int, m2: int) -> HalfEdgeGraph:
    """Two parallel-edge blocks sharing the middle vertex: 0-1 and 1-2."""
    return build_graph(3, [(0, 1)] * m1 + [(1, 2)] * m2)


def complete_bipartite(a: int, b: int) -> HalfEdgeGraph:
    """Blocks 0..a-1 and a..a+b-1, edges grouped by second-block vertex."""
    return build_graph(a + b, [(i, a + j) for j in range(b) for i in range(a)])


def theta2_v_theta1_v_r1() -> HalfEdgeGraph:
    """Triple 0-1, double 1-2, loop at 2."""
    return build_graph(3, [(0, 1)] * 3 + [(1, 2)] * 2 + [(2, 2)])


def theta3_star_r1() -> HalfEdgeGraph:
    """Triple 0-1 plus a path 0-2-1 through a looped vertex."""
    return build_graph(3, [(0, 1)] * 3 + [(0, 2), (2, 1), (2, 2)])


def theta2_diamond_y() -> HalfEdgeGraph:
    """Triangle with edge multiplicities 3, 2, 1."""
    return build_graph(3, [(0, 1)] * 3 + [(1, 2)] * 2 + [(2, 0)])


def triangle_with_loops() -> HalfEdgeGraph:
    return build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])


def doubled_triangle() -> HalfEdgeGraph:
    return build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])


def theta2_colon_theta1() -> HalfEdgeGraph:
    """Triple 0-1, double 2-3, and single edges 1-2, 1-3."""
    return build_graph(4, [(0, 1)] * 3 + [(2, 3)] * 2 + [(1, 2), (1, 3)])


def theta2_star_star_theta1() -> HalfEdgeGraph:
    """Triple 0-1, double 2-3, and the rungs 0-2, 1-3."""
    return build_graph(4, [(0, 1)] * 3 + [(2, 3)] * 2 + [(0, 2), (1, 3)])


def wheel3_with_loop() -> HalfEdgeGraph:
    """Triangle 1,2,3 with spokes to the hub 0 and a loop at the hub."""
    spokes = [(0, 1), (0, 2), (0, 3)]
    tri = [(1, 2), (2, 3), (3, 1)]
    return build_graph(4, spokes + tri + [(0, 0)])


def alternating_hexagon() -> HalfEdgeGraph:
    """Six-cycle with edge multiplicities alternating 2, 1, 2, 1, 2, 1."""
    edges = []
    for i in range(0, 6, 2):
        edges += [(i, (i + 1) % 6)] * 2
    for i in range(1, 6, 2):
        edges += [(i, (i + 1) % 6)]
    return build_graph(6, edges)


def prism() -> HalfEdgeGraph:
    """Two triangles joined by a perfect matching."""
    tri1 = [(0, 1), (1, 2), (2, 0)]
    tri2 = [(3, 4), (4, 5), (5, 3)]
    return build_graph(6, tri1 + tri2 + [(0, 3), (1, 4), (2, 5)])


# ---------------------------------------------------------------------------
# standard order-p symmetries of the reduced-shape graphs


def _dart_perm_from_edge_images(g: HalfEdgeGraph, vperm, edge_images) -> GraphAutomorphism:
    """Assemble a symmetry from a vertex permutation and edge images.

    ``edge_images[e]`` is the image edge of e; dart images are resolved by
    matching targets through vperm (for loops the straight orientation is
    taken).
    """
    hperm = [None] * g.half_edge_count
    for e, f in enumerate(edge_images):
        h1, h2 = g.edges[e]
        k1, k2 = g.edges[f]
        u1 = vperm[g.target[h1]]
        if g.target[k1] == g.target[k2]:
            hperm[h1], hperm[h2] = k1, k2
        elif g.target[k1] == u1:
            hperm[h1], hperm[h2] = k1, k2
        else:
            hperm[h1], hperm[h2] = k2, k1
    return GraphAutomorphism(tuple(vperm), tuple(hperm))


def rose_rotation(p: int, n: int) -> tuple:
    """Rose with n loops, the first p of which are cycled."""
    g = rose(n)
    vperm = (0,)
    edge_images = [(e + 1) % p if e < p else e for e in range(n)]
    return g, _dart_perm_from_edge_images(g, vperm, edge_images)


def theta_rotation(p: int, s: int, t: int) -> tuple:
    """p parallel edges cycled, s and t loops fixed."""
    g = theta_with_roses(p, s, t)
    vperm = (0, 1)
    edge_images = [(e + 1) % p if e < p else e for e in range(g.edge_count)]
    return g, _dart_perm_from_edge_images(g, vperm, edge_images)


def wedge_rotations(p: int) -> tuple:
    """Wedge of two p-edge blocks with the two one-sided rotations.

    Returns (graph, left rotation, right rotation); products of the two
    give every symmetry of the block rotation group, the diagonal being
    their product.
    """
    g = wedge_of_multi_edges(p, p)
    vperm = (0, 1, 2)
    left = [(e + 1) % p if e < p else e for e in range(2 * p)]
    right = [e if e < p else p + (e - p + 1) % p for e in range(2 * p)]
    return (
        g,
        _dart_perm_from_edge_images(g, vperm, left),
        _dart_perm_from_edge_images(g, vperm, right),
    )


def wedge_diagonal(p: int) -> tuple:
    from spinelab.symmetry import compose

    g, left, right = wedge_rotations(p)
    return g, compose(left, right)


def bipartite_block_rotation(p: int) -> tuple:
    """K_{p,3} with the p-block cycled and the 3-block fixed pointwise."""
    g = complete_bipartite(p, 3)
    vperm = tuple((v + 1) % p if v < p else v for v in range(p + 3))
    edge_images = []
    for e in range(g.edge_count):
        j, i = divmod(e, p)  # edge e joins i and p + j
        edge_images.append(j * p + (i + 1) % p)
    return g, _dart_perm_from_edge_images(g, vperm, edge_images)


# ---------------------------------------------------------------------------
# the rank-4 classes with an order-3 symmetry, keyed by report label

RANK4_SINGULAR = {
    "R4": lambda: rose(4),
    "Theta4": lambda: multi_edge(5),
    "Theta3^{0,1}": lambda: theta_with_roses(4, 0, 1),
    "Theta2^{1,1}": lambda: theta_with_roses(3, 1, 1),
    "Theta2^{0,2}": lambda: theta_with_roses(3, 0, 2),
    "Theta2vTheta2": lambda: wedge_of_multi_edges(3, 3),
    "Theta2vTheta1vR1": theta2_v_theta1_v_r1,
    "Theta3*R1": theta3_star_r1,
    "Theta2<>Y": theta2_diamond_y,
    "T0": triangle_with_loops,
    "T1": doubled_triangle,
    "Theta2:Theta1": theta2_colon_theta1,
    "Theta2**Theta1": theta2_star_star_theta1,
    "W3vR1": wheel3_with_loop,
    "K33": lambda: complete_bipartite(3, 3),
    "S0": alternating_hexagon,
    "P1": prism,
}

# one class inside each component of the p = 3 rank-4 quotient, by component key
COMPONENT_ANCHORS = {"rose": "R4", "theta11": "Theta2^{1,1}", "k33": "K33"}
