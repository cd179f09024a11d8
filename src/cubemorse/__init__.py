"""Hyperplane combinatorics, boundary metrics, and cross ratios for the
cube complexes of right-angled Artin groups, plus the explicit
counterexample constructions the library exists to certify.

The package namespace is lazy: `import cubemorse` loads no submodule, and
the first access to an exported name imports its home module (PEP 562), so
a caller pays only for the layers it uses.
"""

from importlib import import_module

# home module -> the public names it exports through the package
_EXPORTS = {
    "raag": (
        "CertificateViolation",
        "ConfigError",
        "DefiningGraph",
        "GroupElement",
        "Letter",
        "PreconditionFailed",
        "Word",
        "distance",
        "normal_form",
        "parse_word",
    ),
    "walls": (
        "Wall",
        "ball",
        "crosses",
        "crossing_count",
        "gate",
        "side",
        "strongly_separated",
        "wall_distance",
        "wall_of_edge",
        "walls_between",
        "walls_separating_point_from_wall",
    ),
    "runpaths": (
        "QuasiGeodesicReport",
        "RunPath",
        "certify_quasigeodesic_runs",
        "min_pair_distance",
        "walk_wall_count",
    ),
    "boundary": (
        "BoundaryRay",
        "ProductValue",
        "SeparatedChain",
        "bracket_product",
        "cross_ratio_bfm",
        "cross_ratio_cr",
        "find_separated_chain",
        "gromov_product",
        "hyp_member",
        "ray_walls",
        "refine_to_single_wall",
        "validate_ray",
    ),
    "gauges": (
        "SublinearFn",
        "as_gauge",
        "kappa",
        "kappa_prime",
    ),
    "constructions": (
        "BetaReport",
        "BetaSegment",
        "ContractionReport",
        "DichotomyReport",
        "Flat",
        "GammaPath",
        "Line",
        "SegmentCertificate",
        "SeparationReport",
        "build_beta",
        "build_croke_kleiner",
        "build_gamma",
        "certify_quasigeodesic",
        "check_contracting",
        "check_divergence_dichotomy",
        "gamma_crosses",
        "runpath_prefix",
        "translate_wall",
        "verify_separation",
    ),
    "example23": (
        "BasepointRow",
        "Example23",
        "LabeledGraph",
        "SmallCancellationReport",
        "basepoint_experiment",
        "build_example23",
        "example23_relators",
        "free_alphabet_graph",
        "small_cancellation_check",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # an unknown name raises, so `from cubemorse import walls` falls through
    # to the import system and loads the submodule
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
