"""Exact-arithmetic construction and certification of a family of border bases.

The package builds a two-parameter family of order ideals, equips their
borders with generic tails plus a structured modification, verifies the
border-basis and support-at-origin properties symbolically or at random
specializations, and certifies elementary Hilbert-scheme components by
comparing the tangent-space dimension against a closed-form count.
"""

from __future__ import annotations

from .monomial import (
    ArgumentError,
    InternalInvariantError,
    Monomial,
    SegmentSpec,
    binomial,
    cmp_lex,
    cmp_negdeglex,
    monomials_of,
    segment,
)
from .orderideal import (
    NeighborPair,
    OrderIdealData,
    Signature,
    across_street_path,
    build,
    gamma_formula,
    neighbor_pairs,
    shape_to_signature,
    translation_frame,
)
from .coeffring import (
    DEFAULT_PRIME,
    CoeffPoly,
    IndeterminateRegistry,
    validated_prime,
)
from .borderbasis import (
    BorderSystem,
    SpanElement,
    generic_distinguished,
    is_border_basis,
    power_in_ideal,
    reduce,
    render_system,
    s_polynomial,
    specialize_system,
)
from .modification import (
    TargetMap,
    build_generic_modification,
    build_targets,
    install_targets,
    render_targets,
    step1,
    step2,
    step3,
)
from .linalg import dedupe_rows, exact_rank, modp_rank, rank_of
from .tangent import (
    TangentTuple,
    TranslationFrame,
    coordinate_labels,
    coordinate_tangent_tuple,
    dim_U,
    frame,
    independence_rank,
    random_assignment,
    tangent_dimension,
)
from .certify import CertificationReport, certify, inspect_signature, report_to_json_dict
from .version import __version__

__all__ = [
    "ArgumentError",
    "InternalInvariantError",
    "Monomial",
    "SegmentSpec",
    "binomial",
    "cmp_lex",
    "cmp_negdeglex",
    "monomials_of",
    "segment",
    "NeighborPair",
    "OrderIdealData",
    "Signature",
    "across_street_path",
    "build",
    "gamma_formula",
    "neighbor_pairs",
    "shape_to_signature",
    "translation_frame",
    "DEFAULT_PRIME",
    "CoeffPoly",
    "IndeterminateRegistry",
    "validated_prime",
    "BorderSystem",
    "SpanElement",
    "generic_distinguished",
    "is_border_basis",
    "power_in_ideal",
    "reduce",
    "render_system",
    "s_polynomial",
    "specialize_system",
    "TargetMap",
    "build_generic_modification",
    "build_targets",
    "install_targets",
    "render_targets",
    "step1",
    "step2",
    "step3",
    "dedupe_rows",
    "exact_rank",
    "modp_rank",
    "rank_of",
    "TangentTuple",
    "TranslationFrame",
    "coordinate_labels",
    "coordinate_tangent_tuple",
    "dim_U",
    "frame",
    "independence_rank",
    "random_assignment",
    "tangent_dimension",
    "CertificationReport",
    "certify",
    "inspect_signature",
    "report_to_json_dict",
    "__version__",
]
