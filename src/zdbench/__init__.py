"""zdbench: zero-divisor analysis of finite commutative rings and modules.

Constructs small commutative rings and modules, decides the zero-divisor
predicates (Auslander, torsion-free, property (A), content, Ohm-Rush, McCoy),
and verifies a registry of transfer statements exhaustively over an
enumerated universe, with constructive witnesses throughout.
"""

from .dsl import build_algebra, build_module, build_ring
from .extensions import (ExtElement, FiniteAlgebra, brute_force_zd,
                         is_mccoy_algebra, is_ohm_rush, is_zd_on_extension,
                         mccoy_witness, ring_poly)
from .localize import (Localization, localize, localize_module,
                       natural_map_kernel, total_quotient)
from .modules import (FiniteModule, Submodule, Verdict, ann, content_of_element,
                      content_surjective, cyclic_module, direct_sum,
                      free_module, has_property_A, hom_module, ideal_action,
                      is_auslander, is_content_module, is_faithfully_flat,
                      is_flat, is_torsion_free, regular_module,
                      tensor_with_algebra, zero_divisors_module)
from .rings import (FiniteRing, MultiplicativeSet, Zmod, ideal_generated,
                    poly_quotient, product_ring)
from .statements import (REGISTRY, run_statement, run_suite,
                         search_counterexample)
from .universe import UniverseLimits, generate_universe

__version__ = "0.1.0"

__all__ = [
    "ExtElement", "FiniteAlgebra", "FiniteModule", "FiniteRing",
    "Localization", "MultiplicativeSet", "REGISTRY", "Submodule",
    "UniverseLimits", "Verdict", "Zmod", "ann", "brute_force_zd",
    "build_algebra", "build_module", "build_ring", "content_of_element",
    "content_surjective", "cyclic_module", "direct_sum", "free_module",
    "generate_universe", "has_property_A", "hom_module", "ideal_action",
    "ideal_generated", "is_auslander", "is_content_module",
    "is_faithfully_flat", "is_flat", "is_mccoy_algebra", "is_ohm_rush",
    "is_torsion_free", "is_zd_on_extension", "localize", "localize_module",
    "mccoy_witness", "natural_map_kernel", "poly_quotient", "product_ring",
    "regular_module", "ring_poly", "run_statement", "run_suite",
    "search_counterexample", "tensor_with_algebra", "total_quotient",
    "zero_divisors_module",
]
