"""Exact mod-p verification of total Chern classes of exceptional-group
representations restricted to order-p cyclic subgroups of a maximal torus,
with exhaustive certificate-producing sweeps over all restriction points."""

__version__ = "0.1.0"

from .chern import ChernReport, RestrictionPoint, chern_named, total_chern
from .fppoly import (
    MPoly,
    UPoly,
    chern_of_exponents,
    in_subring,
    pair_factor,
    pm_factorization,
)
from .spinchar import Character, char_equal, registry

__all__ = [
    "__version__",
    "Character",
    "ChernReport",
    "MPoly",
    "RestrictionPoint",
    "UPoly",
    "char_equal",
    "chern_named",
    "chern_of_exponents",
    "in_subring",
    "pair_factor",
    "pm_factorization",
    "registry",
    "total_chern",
]
