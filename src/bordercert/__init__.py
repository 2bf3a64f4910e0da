"""Exact-arithmetic construction and certification of a family of border bases.

The package builds a two-parameter family of order ideals, equips their
borders with generic tails plus a structured modification, verifies the
border-basis and support-at-origin properties symbolically or at random
specializations, and certifies elementary Hilbert-scheme components by
comparing the tangent-space dimension against a closed-form count.

Only the documented pipeline is re-exported here; every other public name is
imported from its own module, e.g. ``from bordercert.modification import step1``.
"""

from __future__ import annotations

from .monomial import ArgumentError, InternalInvariantError
from .orderideal import Signature, build
from .coeffring import IndeterminateRegistry
from .borderbasis import is_border_basis, specialize_system
from .modification import build_generic_modification
from .tangent import dim_U, random_assignment, tangent_dimension
from .certify import certify, report_to_json_dict
from .version import __version__

__all__ = [
    "ArgumentError",
    "InternalInvariantError",
    "Signature",
    "build",
    "IndeterminateRegistry",
    "is_border_basis",
    "specialize_system",
    "build_generic_modification",
    "dim_U",
    "random_assignment",
    "tangent_dimension",
    "certify",
    "report_to_json_dict",
    "__version__",
]
