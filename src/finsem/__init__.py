"""finsem: a finite-model workbench for program semantics.

Computation monads over finite sets and posets, quantitative predicates in
exact rational arithmetic, executable predicate/state transformer
transposes, and a weakest-precondition engine for a small guarded-command
language.  Every structural claim is verified by exhaustive enumeration at
desk scale.

``import finsem`` loads no submodule.  Each name below is looked up in its
defining module when it is read (PEP 562), so the first read of a name loads
that module and the layers under it, and ``finsem.parse is finsem.gcl.parse``
holds at every read.  The submodules themselves (``finsem.gcl`` and so on)
load the same way.
"""

import importlib

# defining module -> the names it exports here
_EXPORTS = {
    "effects": "FuzzyPredicate dist_bind dist_make farey_grid mv_ops "
               "pred_orth pred_ovee pred_scalar validate_effect_algebra",
    "errors": "FinsemError",
    "gcl": "check_roundtrip denote parse wp",
    "kernel": "Distribution FinSet",
    "monads": "FAMILIES FilterOf LensPair MonadInstance cba_collapse_check downset_monad "
              "expectation_embed filter_monad giry_finite hoare_monad "
              "monotone_neighbourhood neighbourhood plotkin_monad powerset smyth_monad "
              "ultrafilter_monad",
    "order": "FinPoset MonotoneMap SubsetOf all_posets antichain chain "
             "down_closure downsets enumerate_structure_maps make_poset "
             "powerset_lattice right_adjoint upsets",
    "triangle": "EMAlgebraCandidate KleisliArrow certify_full_faithful check_em_algebra "
                "check_monad_laws kleisli_compose stat_functor",
}
# exported name -> (module, attribute); CORRESPONDENCES is the transposes' REGISTRY
_ORIGIN = {name: (module, name) for module, names in _EXPORTS.items()
           for name in names.split()}
_ORIGIN["CORRESPONDENCES"] = ("transformers", "REGISTRY")
_SUBMODULES = ("check", "effects", "errors", "gcl", "gcl_random", "kernel", "monads", "order",
               "transformers", "triangle")

__version__ = "0.1.0"
__all__ = sorted(_ORIGIN) + list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    # nothing is stored in this module's globals: while a tracer has wrapped
    # an entry point, a read sees the wrapper, and after it unwraps, the original
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _ORIGIN[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__():
    return sorted(set(globals()) | set(__all__))
