import sys
import types

import shiftlab

# one name per operation: a second name for a constructor or a JSON form
# shows up here before it spreads to the callers
EXPORTS = {
    "Alphabet", "Configuration",
    "SubshiftSpec", "SftSpec", "SparseSpec", "ProductSpec", "parse_spec", "spec_digest",
    "complexity_table", "extension_radius", "min_nonextendable_radius",
    "find_extension_window", "slow_growth_window",
    "forbid", "cylinder_has_aperiodic", "verify_removal_bound", "build_chain",
    "shadowing_distance", "syndetic_gap", "Chain", "ChainLevel",
    "BlockCode", "AutomorphismCert", "apply_to_word", "apply_to_config", "compose",
    "equal_on_shift", "find_inverse", "certify_automorphism", "enumerate_automorphisms",
    "preserves_occurrences", "coset_count", "subgroup_closure", "certify_free_semigroup",
    "commutator", "parse_code", "code_to_json",
    "spacetime_window", "rect_complexity", "detect_period_vectors", "power_is_shift",
    "NamedSystem", "SYSTEM_NAMES", "make_example", "decode_hallway_product",
}


def test_package_exports_one_name_per_operation():
    exported = {name for name, value in vars(shiftlab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS
    assert len(EXPORTS) == 45


def test_package_names_of_submodules_are_the_submodules():
    # an export named like its submodule would hide it from dotted paths
    # such as monkeypatch.setattr("shiftlab.complexity.<name>", ...)
    loaded = {name.removeprefix("shiftlab."): module for name, module in sys.modules.items()
              if name.startswith("shiftlab.") and name.count(".") == 1}
    assert "complexity" in loaded
    for name, module in loaded.items():
        assert getattr(shiftlab, name) is module
