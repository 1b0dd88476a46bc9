"""The contract of the result types: immutable named tuples of their fields."""

import pytest

from shiftlab.autos import AutomorphismCert, CertifyResult, ClosureResult, FreeSemigroupReport
from shiftlab.chains import (
    Chain,
    ChainLevel,
    RemovalBoundReport,
    ShadowingReport,
    SyndeticReport,
)
from shiftlab.complexity import ComplexityTable, ExtensionReport
from shiftlab.spacetime import PowerShiftReport, SpaceTimeWindow
from shiftlab.systems import NamedSystem

# each type with a value for every field, in field order, and its defaults
RESULT_TYPES = [
    (AutomorphismCert, {"code": "c", "inverse": "c_inv", "r_certified": 1}, {}),
    (CertifyResult, {"status": "certified", "cert": "cert", "witness": (("0",), ())},
     {"cert": None, "witness": None}),
    (ClosureResult, {"status": "ok", "elements": ("e",)}, {}),
    (FreeSemigroupReport, {"status": "free-to-depth", "depth": 1, "words": (("a",), ("b",)),
                           "collision": None}, {}),
    (RemovalBoundReport, {"word": ("1",), "rows": ((1, 1, 2, 1),), "violations": ()}, {}),
    (ChainLevel, {"subshift": "X", "word": ("1",), "extended": ("0", "1", "0"),
                  "aperiodic_cylinder": True}, {}),
    (Chain, {"levels": (), "terminal": None, "range_r": 1, "max_len": 2, "effective_len": 6,
             "bound_value": 7, "bound_holds": True, "raw_bound_value": 3,
             "raw_bound_holds": True},
     {"bound_value": 0, "bound_holds": False, "raw_bound_value": 0, "raw_bound_holds": False}),
    (ShadowingReport, {"status": "ok", "distance": 1, "cap": 4, "target": ("1",),
                       "counterexample": None}, {}),
    (SyndeticReport, {"status": "ok", "gap": 2, "distance": 0, "cap": 5,
                      "counterexample": ("0",)}, {}),
    (ComplexityTable, {"subshift_id": "ab", "values": {1: 2}}, {}),
    (ExtensionReport, {"word": ("1",), "radius": 2, "cap": 3, "extension": ("0", "1", "0")},
     {}),
    (SpaceTimeWindow, {"width": 1, "height": 1, "col0": 0, "grid": (("0",),)}, {}),
    (PowerShiftReport, {"exponent": 2, "shifts": (1,)}, {}),
    (NamedSystem, {"name": "n", "spec": "X", "codes": {}, "probes": {}}, {}),
]
IDS = [cls.__name__ for cls, _, _ in RESULT_TYPES]


@pytest.mark.parametrize("cls, fields, defaults", RESULT_TYPES, ids=IDS)
def test_keyword_construction_with_every_default(cls, fields, defaults):
    assert cls._fields == tuple(fields)
    assert cls._field_defaults == defaults
    given = {k: v for k, v in fields.items() if k not in defaults}
    made = cls(**given)
    assert {k: getattr(made, k) for k in fields} == {**fields, **defaults, **given}


@pytest.mark.parametrize("cls, fields, defaults", RESULT_TYPES, ids=IDS)
def test_attributes_cannot_be_assigned(cls, fields, defaults):
    made = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(made, name, None)


@pytest.mark.parametrize("cls, fields, defaults", RESULT_TYPES, ids=IDS)
def test_equality_and_hash_by_fields(cls, fields, defaults):
    made, again = cls(**fields), cls(**fields)
    assert made == again and made is not again
    # instances are tuples: equal to the plain tuple of their fields
    assert made == tuple(fields.values())
    for name in fields:
        assert made != cls(**{**fields, name: "other"})
    try:
        by_fields = hash(tuple(fields.values()))
    except TypeError:  # a field is unhashable, and so is the instance
        with pytest.raises(TypeError):
            hash(made)
    else:
        assert hash(made) == hash(again) == by_fields


@pytest.mark.parametrize("cls, fields, defaults", RESULT_TYPES, ids=IDS)
def test_repr_names_every_field(cls, fields, defaults):
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"
