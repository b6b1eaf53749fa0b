"""Coxeter-Catalan combinatorics in types A and B (and the type-D checks).

Dyck paths, root-poset order ideals (non-nesting partitions), non-crossing
partitions, sortable elements, their q-Catalan generating functions, and
the bijections carrying area to length and major index to maj + imaj.
"""

from .qseries import (
    GroupType,
    InexactDivisionError,
    QPoly,
    SizeGuardError,
    cat_number,
    is_palindromic,
    q_binomial,
    q_factorial,
    q_integer,
    qcat_a,
    qcat_product,
)
from .paths import (
    area_polynomial,
    enumerate_a,
    enumerate_b,
    is_dyck_a,
    is_dyck_b,
    maj_a,
    maj_b,
    maj_polynomial,
)
from .rootposets import cat_q, dyck_to_ideal, ideal_to_dyck, ideals
from .signedperm import coxeter_element, length_s, length_t
from .noncrossing import d4_counterexample, nc_elements, rev_nc
from .sortable import c_sorting_word, enumerate_sortables, is_c_sortable
from .bijmaps import phi, psi_a, psi_b, verify_phi_theorems, verify_psi_theorems

__version__ = "0.1.0"

__all__ = [
    "GroupType",
    "InexactDivisionError",
    "QPoly",
    "SizeGuardError",
    "area_polynomial",
    "c_sorting_word",
    "cat_number",
    "cat_q",
    "coxeter_element",
    "d4_counterexample",
    "dyck_to_ideal",
    "enumerate_a",
    "enumerate_b",
    "enumerate_sortables",
    "ideal_to_dyck",
    "ideals",
    "is_c_sortable",
    "is_dyck_a",
    "is_dyck_b",
    "is_palindromic",
    "length_s",
    "length_t",
    "maj_a",
    "maj_b",
    "maj_polynomial",
    "nc_elements",
    "phi",
    "psi_a",
    "psi_b",
    "q_binomial",
    "q_factorial",
    "q_integer",
    "qcat_a",
    "qcat_product",
    "rev_nc",
    "verify_phi_theorems",
    "verify_psi_theorems",
    "__version__",
]
