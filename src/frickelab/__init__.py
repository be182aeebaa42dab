"""Exact arithmetic for the Fricke surface, its double, and Markov trees.

The public names load lazily (PEP 562): ``import frickelab`` loads no law
module, and the first read of a name imports the module that defines it and
binds the name here, so a process compiles only the laws it uses.
"""

# each public name, by the module that defines it
_EXPORTS = {
    "exact": (
        "AT_INFINITY",
        "DEGENERATE_CUBIC",
        "DOUBLE",
        "FRICKE",
        "DomainError",
        "LineParameter",
        "ProjectivePoint",
        "QuadraticIrrational",
        "Surface",
        "format_rational",
        "line_point",
        "line_third_intersection",
        "make_quadratic",
        "normalize_projective",
        "parse_rational",
        "replace",
        "slope_between",
        "sqrt_exact",
        "surface_defect",
    ),
    "fricke": (
        "ComposeResult",
        "Finite",
        "FrickePoint",
        "FrickeSurface",
        "Infinite",
        "SurfacePoint",
        "Undefined",
        "compose",
        "compose_alternative",
        "p2_compose",
        "p2_involution",
        "p2_viete",
        "param_affine",
        "param_affine_inverse",
        "phi",
        "psi",
        "star",
        "viete",
    ),
    "sections": (
        "SectionFrame",
        "SectionPoint",
        "cf_convergent",
        "chebyshev_b",
        "dihedral",
        "infinity_points",
        "quadric_add",
        "quadric_double",
        "quadric_inverse",
        "solve_z",
        "ta_power",
        "tangent_slope",
    ),
    "double_fricke": (
        "F2Point",
        "F2SectionFrame",
        "F2SectionPoint",
        "f2_compose",
        "f2_infinity_points",
        "f2_p2_compose",
        "f2_p2_involution",
        "f2_p2_viete",
        "f2_param_affine",
        "f2_phi",
        "f2_psi",
        "f2_quadric_add",
        "f2_quadric_double",
        "f2_quadric_inverse",
        "f2_tangent_slope",
        "negative_tree",
        "nielsen",
        "sqrt_descend",
        "square_lift",
    ),
    "tree": (
        "DOUBLE_ROOT",
        "MARKOV_ROOT",
        "CanonicalTriple",
        "FrobeniusReport",
        "TreeNode",
        "canonical",
        "frobenius_scan",
        "fundamental_point",
        "fundamental_points",
        "generate",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules, which the import system binds here once they are imported
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_ORIGIN, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # which binds the submodule here
        return globals()[name]
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_ORIGIN[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
