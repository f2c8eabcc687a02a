"""Exact algebraic renormalization toolkit.

Building blocks: sparse rational polynomial and exterior-form arithmetic,
Feynman multigraph combinatorics, the free commutative Hopf algebra on 1PI
generators, weight -1 Rota-Baxter algebras of Laurent elements and
logarithmic forms with their Birkhoff/Atkinson factorizations, Symanzik
polynomials with the edge-to-matrix-space map, and Grothendieck classes in
the Lefschetz polynomial ring.
"""

from .birkhoff import (
    Character,
    ConvolutionElement,
    atkinson_closed_form,
    atkinson_solve,
    birkhoff_factorize,
    birkhoff_parts,
    convolve,
    factorize_all,
    phi_minus_nonrecursive,
    pole_power_character,
    unit_character,
    verify_factorization,
)
from .errors import (
    ContextError,
    DisconnectedError,
    InvariantError,
    MissingValueError,
    MomentumError,
    PoleAtPointError,
    PreconditionError,
    QuotientError,
    RbrenError,
    SizeBoundError,
    UnknownGeneratorError,
)
from .exterior import ExteriorElement
from .graphs import (
    FeynmanGraph,
    SubgraphSpec,
    canonical_key,
    connected_components,
    cut_sets,
    cycle_basis_matrix,
    divergent_subgraphs,
    edge_connectivity,
    is_1pi,
    is_connected,
    loop_number,
    quotient,
    spanning_trees,
    subgraph_components,
    subgraph_view,
    superficial_degree,
)
from .hopf import (
    GeneratorRegistry,
    HopfElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    reduced_coproduct,
    reduced_coproduct_iterated,
)
from .motives import (
    Arrangement,
    BlowupStep,
    LefschetzPolynomial,
    arrangement_class,
    blowup_class,
    char_poly,
    gl_class,
    grassmannian_class,
    kausz_class,
    parse_class,
    pole_order_bound,
    projective_class,
    sigma_arrangement,
)
from .poly import LaurentPoly, MultiPoly, parse_laurent, parse_poly
from .rota_baxter import (
    SWEEP_DESCRIPTORS,
    RBAlgebraDescriptor,
    SaitoForm,
    failed_laws,
    iterated_residue,
    operator_defect,
    rb_defect,
    residue,
    sweep,
)
from .symanzik import (
    EtaFormSpec,
    SymanzikData,
    edge_variables,
    eta_form,
    graph_matrix,
    graph_matrix_det,
    matrix_tree_check,
    poly_det,
    psi,
    second_symanzik,
    symanzik_data,
    upsilon_embedding_tests,
    upsilon_matrix,
)

__version__ = "0.1.0"
