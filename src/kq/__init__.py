"""Exact engine for higher Toda brackets and matrix Massey products.

Everything is computed by finite linear algebra over Z/p^k: truncated
bigraded chain algebras, their homology, morphism calculus over cubical
chain coalgebras, nullhomotopy towers, obstruction classes, and the
resulting bracket representatives with full choice logs.
"""

__version__ = "0.1.0"

from .chain_algebra import (
    ChainAlgebra,
    GradedModule,
    HClass,
    ModElem,
    NatElem,
    NatSystem,
    homology,
    truncate,
)
from .cubical import (
    Ball,
    ChainBasis,
    CubicalComplex,
    CylinderComplex,
    corner_ball,
    cube_ball,
    facet_ball,
    orientation_sign,
    point_ball,
)
from .errors import (
    BudgetExceededError,
    EngineError,
    InternalInvariantError,
    ModulusMismatchError,
    UserInputError,
)
from .exact_linalg import (
    AffineSolutionSet,
    howell_form,
)
from .toda import (
    BracketResult,
    HigherChainComplex,
    MorphismSequence,
    adams_d,
    build_chain_complex,
    oracle_bracket_set,
    toda_bracket,
    triple_indeterminacy,
)
from .track import (
    HomotopyWitness,
    TrackMorphism,
    compose,
    extend,
    glue,
    homotopic,
    obstruction,
    pt_morphism,
    restrict,
    tensor,
)
