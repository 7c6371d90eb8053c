from fractions import Fraction

import pytest

from frobcx.basep import ExponentVector
from frobcx.spectral import ComplexityInterval, RationalInterval, SpectralEstimate
from frobcx.transfer import ComplexityReport, TransferSystem
from frobcx.twistedop import QElem, QuotientRing, TwistedOperator

RING = QuotientRing(2, 3)
ELEM = QElem(RING, (1, 0, 1))


# (type, positional arguments, every field by keyword): both constructions
# give the same value, and the fields hold what was passed or defaulted
CASES = [
    (ExponentVector, ((1, 1, 1), 2, 2), {"a": (1, 1, 1), "p": 2, "e": 2}),
    (TransferSystem, (2, 4, ((6, 4), (1, 4)), (4, 0), (1, 0)),
     {"p": 2, "d": 4, "matrix": ((6, 4), (1, 4)), "x0": (4, 0), "weights": (1, 0)}),
    (ComplexityReport, ((0, 4, 4),), {"c": (0, 4, 4)}),
    (RationalInterval, (1, Fraction(3, 2)), {"lo": 1, "hi": Fraction(3, 2)}),
    (SpectralEstimate, (1, 2), {"lo": 1, "hi": 2, "iterations": 0, "converged": True}),
    (ComplexityInterval, (0, 1, SpectralEstimate(1, 2)),
     {"lo": 0, "hi": 1, "radius": SpectralEstimate(1, 2)}),
    (QuotientRing, (2, 3), {"p": 2, "n": 3}),
    (QElem, (RING, (1, 0, 1)), {"ring": RING, "coeffs": (1, 0, 1)}),
    (TwistedOperator, (((ELEM,),), 1), {"rows": ((ELEM,),), "degree": 1}),
]


@pytest.mark.parametrize("cls, args, fields", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_types_are_immutable_and_equal_by_their_fields(cls, args, fields):
    value, same = cls(*args), cls(**fields)
    assert value is not same
    assert value == same and hash(value) == hash(same)
    for name, expected in fields.items():
        assert getattr(value, name) == expected
        with pytest.raises(AttributeError):
            setattr(value, name, expected)
