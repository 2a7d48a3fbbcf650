"""Value semantics of the package's record classes.

Each class compares and hashes by its fields, refuses assignment and
deletion, and survives copy.copy and a pickle round trip.
"""

import copy
import pickle

import pytest

from knotsurgery.family import FamilyReport, FamilyRow, UnboundednessCertificate, Witness
from knotsurgery.fox import GroupPresentation
from knotsurgery.knots import T_VARS, ConnectedSum, Mirror, Torus, TorusKnotSpec, Unknot
from knotsurgery.laurent import LaurentPoly
from knotsurgery.surgery import TG_VARS, LinkFamilyMember, SurgerySpec, SWResult


def _row():
    return FamilyRow(
        p=2,
        delta_gamma=LaurentPoly.parse("t - 1 + t^-1", T_VARS),
        lower_bound=3,
        lemma63_ok=True,
        genus=1,
        span=2,
    )


# class -> (positional args, keyword args); called afresh for each construction
VALUES = {
    TorusKnotSpec: lambda: ((3, 2), {}),
    Unknot: lambda: ((), {}),
    Torus: lambda: ((TorusKnotSpec(2, 3),), {}),
    Mirror: lambda: ((Torus.of(2, 5),), {}),
    ConnectedSum: lambda: ((Unknot(), Mirror(Torus.of(2, 3))), {}),
    FamilyRow: lambda: ((), dict(vars(_row()))),
    FamilyReport: lambda: ((1, (_row(),)), {}),
    Witness: lambda: ((), {"p": 1, "lower_bound": 1}),
    UnboundednessCertificate: lambda: ((), {"target": 0, "witnesses": (Witness(1, 1),)}),
    LinkFamilyMember: lambda: ((4,), {}),
    SurgerySpec: lambda: ((2,), {"member": LinkFamilyMember(3)}),
    SWResult: lambda: ((3, 1, None, LaurentPoly.parse("t_G^2 + 1", TG_VARS), 2), {}),
    GroupPresentation: lambda: ((["x", "y"], [[1, 1, -2, -2, -2]]), {}),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    def build(kind=cls):
        args, kwargs = VALUES[cls]()
        return kind(*args, **kwargs)

    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)

    other = build(type("Other", (cls,), {}))
    assert vars(other) == vars(a)
    assert a != other and other != a

    for name in list(vars(a)) or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b

    for clone in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls
        assert clone == a and hash(clone) == hash(a)


def test_reprs_name_each_field():
    assert repr(Witness(p=1, lower_bound=1)) == "Witness(p=1, lower_bound=1)"
    assert repr(Unknot()) == "Unknot()"
    assert repr(LinkFamilyMember(2)) == (
        "LinkFamilyMember(p=2, gamma=TorusKnotSpec(p=2, q=3), linking_number=1)"
    )
