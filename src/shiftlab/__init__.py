"""Exact workbench for one-dimensional subshifts and their automorphism groups."""

from .words import Alphabet, Configuration
from .subshifts import (
    SubshiftSpec,
    SftSpec,
    SparseSpec,
    ProductSpec,
    parse_spec,
    spec_digest,
)
from .complexity import (
    complexity_table,
    extension_radius,
    min_nonextendable_radius,
    find_extension_window,
    slow_growth_window,
)
from .chains import (
    forbid,
    cylinder_has_aperiodic,
    verify_removal_bound,
    build_chain,
    shadowing_distance,
    syndetic_gap,
    Chain,
    ChainLevel,
)
from .autos import (
    BlockCode,
    AutomorphismCert,
    apply_to_word,
    apply_to_config,
    compose,
    equal_on_shift,
    find_inverse,
    certify_automorphism,
    enumerate_automorphisms,
    preserves_occurrences,
    coset_count,
    subgroup_closure,
    certify_free_semigroup,
    commutator,
    parse_code,
    code_to_json,
)
from .spacetime import (
    spacetime_window,
    rect_complexity,
    detect_period_vectors,
    power_is_shift,
)
from .systems import NamedSystem, SYSTEM_NAMES, make_example, decode_hallway_product

__version__ = "0.1.0"
