"""The package's records are ``collections.namedtuple`` classes: read-only
fields, a repr in field order, and equality and hash by value."""

import pytest

from toricext import cli
from toricext.bridge import PRESETS, bridge_cross_check
from toricext.errors import InvalidParameters
from toricext.exact import solve_coefficients
from toricext.radial import TPotential


def _no_jet(ts):
    raise AssertionError("the record reads no profile values")


def _other(value):
    raise AssertionError("a stand-in that no record calls")


# each record, built on valid input, and for a record whose constructor
# refuses input, a _make or _replace call on such input
_RECORDS = {
    "ExtremalCoefficients": (
        lambda: solve_coefficients(2, 0.5, 1.0), lambda r: r._replace(a=-1.0)),
    "TPotential": (
        lambda: TPotential(2, 0.5, 1.0, _no_jet),
        lambda r: type(r)._make((0, 2.0, 1.0, None))),
    "BridgeCheckReport": (
        lambda: bridge_cross_check(2, PRESETS["flat"], [0.5, 2.0]), None),
    "_Table": (lambda: cli._Table(("s", "t"), [[0.5], [2.0]]), None),
}

# exact._deflation puts this text into its InvalidParameters and
# BoundaryIdentityViolation messages
_COEFFICIENTS_REPR = (
    "ExtremalCoefficients(n=2, a=0.5, b=1.0, A=7.384615384615385, "
    "B=0.9230769230769231, C=0.07692307692307693, D=0.15384615384615385)"
)


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_contract(name):
    build, refused = _RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert record._replace() == type(record)._make(record) == record
    # the constructor's refusals hold for every way to build one
    if refused is not None:
        with pytest.raises(InvalidParameters):
            refused(record)

    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)

    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    if name == "ExtremalCoefficients":
        assert repr(record) == str(record) == _COEFFICIENTS_REPR

    # built anew: equal fields, and for the report and the table, fresh ones
    twin = build()
    assert twin is not record and twin == record
    if name == "_Table":
        # its columns are lists
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    last = record[-1] + 1.0 if name == "ExtremalCoefficients" else _other
    assert type(record)(*record[:-1], last) != record

    # every record is slotted: it refuses a new attribute
    with pytest.raises(AttributeError):
        record.extra = 0.0
