"""qcoh: an exactly-verifying workbench for finite p-groups and their mod-q cohomology.

Layers, bottom up:

* :mod:`qcoh.zqlin` — exact linear algebra over Z/q for prime powers q = p**s
  (Howell canonical form, solve/kernel, abelian-group presentations, pairing
  perfection).
* :mod:`qcoh.groups` — finite groups as full multiplication tables: presets,
  subgroup machinery, q-central series, quotients, homomorphism enumeration.
* :mod:`qcoh.freemodel` — the two finite free models on d generators at level
  three (sharp and flat), with canonical normal forms.
* :mod:`qcoh.cohomology` — H^1 and H^2 with Z/q coefficients: cocycle solving,
  cup products, Bockstein, transgression, inflation/restriction, central
  extensions.
* :mod:`qcoh.duality` — the pairing between q-central subquotients and
  inflation kernels: perfection checks, duality triples, reconstruction.
* :mod:`qcoh.cli` — the ``qcoh`` command-line interface.
"""

from qcoh.cohomology import (
    Cochain1,
    Cochain2,
    bockstein,
    class_from_extension,
    cup11,
    extension_from_class,
    five_term_check,
    h1,
    h2,
    h2_dec,
    hat_ring,
    invariants_h1,
    is_coboundary,
    symbolic_h2_elementary,
    transgression,
)
from qcoh.duality import (
    TRIPLE_KINDS,
    DualityTriple,
    decomposable_transgression_conditions,
    dual_basis_check,
    duality_conditions,
    extension_list,
    floor_by_intersection,
    galois_relation_type,
    inflation_isomorphism_table,
    kernel_generating_pairs,
    level2_frame,
    local_global_check,
    lower3_intersection_check,
    lower3_subgroup,
    projection_conditions,
    reconstruct_quotient,
    substitution_pairing,
    transgression_pairing,
    triple_of,
)
from qcoh.freemodel import canonical_basis, free_level3
from qcoh.groups import FiniteGroup, is_isomorphic, preset, q_central_series, quotient
from qcoh.zqlin import (
    AbGroupPresentation,
    HowellForm,
    PairingReport,
    ZqMatrix,
    factor_prime_power,
    howell_form,
    kernel,
    pairing_perfection,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroupPresentation",
    "Cochain1",
    "Cochain2",
    "FiniteGroup",
    "DualityTriple",
    "TRIPLE_KINDS",
    "HowellForm",
    "PairingReport",
    "ZqMatrix",
    "bockstein",
    "canonical_basis",
    "class_from_extension",
    "cup11",
    "decomposable_transgression_conditions",
    "dual_basis_check",
    "duality_conditions",
    "extension_from_class",
    "extension_list",
    "factor_prime_power",
    "five_term_check",
    "floor_by_intersection",
    "free_level3",
    "galois_relation_type",
    "h1",
    "h2",
    "h2_dec",
    "hat_ring",
    "howell_form",
    "inflation_isomorphism_table",
    "invariants_h1",
    "is_coboundary",
    "is_isomorphic",
    "kernel",
    "kernel_generating_pairs",
    "level2_frame",
    "local_global_check",
    "lower3_intersection_check",
    "lower3_subgroup",
    "pairing_perfection",
    "preset",
    "projection_conditions",
    "q_central_series",
    "quotient",
    "reconstruct_quotient",
    "substitution_pairing",
    "transgression_pairing",
    "triple_of",
    "__version__",
]
