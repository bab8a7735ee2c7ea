"""Exact tropical convexity: residuation, dominators, Kleene stars, polytropes.

Each public name is imported from its home module on first access (PEP 562),
so ``import tropgeo`` runs no module and a caller compiles only the modules
whose names it uses.
"""

from importlib import import_module

_HOMES = {
    "core": (
        "DimensionError Flavor FlavorError PreconditionError TropMatrix TropVector as_scalar mat "
        "mat_from_columns negate_transpose trop_mat_mul vec"
    ),
    "residuation": "Polytope bracket dominates_at dominates_polytope_at member principal_projection",
    "kleene": (
        "Classification KleeneStar classify dominator duality_chi duality_rho is_kleene_star "
        "is_min_plus_convex min_plus_hull verify_dominator_relation"
    ),
    "polytope": (
        "MidpointReport polytope_equal projectivise reduce_generators sample_euclidean_midpoints"
    ),
    "docio": (
        "DocumentError MatrixDocument format_rational format_vector parse_matrix_document parse_rational "
        "parse_vector serialize_matrix_document"
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its home module and bind it here, so that the
    next access is a plain lookup that does not come back to this function."""
    if name in _HOMES:  # a submodule: importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
