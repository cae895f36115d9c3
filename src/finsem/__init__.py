"""finsem: a finite-model workbench for program semantics.

Computation monads over finite sets and posets, quantitative predicates in
exact rational arithmetic, executable predicate/state transformer
transposes, and a weakest-precondition engine for a small guarded-command
language.  Every structural claim is verified by exhaustive enumeration at
desk scale.
"""

from .effects import (
    Distribution,
    FuzzyPredicate,
    Rat,
    UNDEFINED,
    dist_bind,
    dist_make,
    farey_grid,
    mv_ops,
    pred_orth,
    pred_ovee,
    pred_scalar,
    validate_effect_algebra,
)
from .errors import FinsemError
from .gcl import check_roundtrip, denote, parse, wp
from .monads import (
    FAMILIES,
    FilterOf,
    LensPair,
    MonadInstance,
    cba_collapse_check,
    downset_monad,
    expectation_embed,
    filter_monad,
    giry_finite,
    hoare_monad,
    monotone_neighbourhood,
    neighbourhood,
    plotkin_monad,
    powerset,
    smyth_monad,
    ultrafilter_monad,
)
from .order import (
    FinPoset,
    FinSet,
    MonotoneMap,
    SubsetOf,
    all_posets,
    antichain,
    chain,
    down_closure,
    downsets,
    enumerate_structure_maps,
    make_poset,
    powerset_lattice,
    right_adjoint,
    upsets,
)
from .transformers import REGISTRY as CORRESPONDENCES
from .triangle import (
    EMAlgebraCandidate,
    KleisliArrow,
    certify_full_faithful,
    check_em_algebra,
    check_monad_laws,
    kleisli_compose,
    stat_functor,
)

__version__ = "0.1.0"
