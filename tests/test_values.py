"""The immutable value classes on ringcore.Value: construction with
positional and keyword arguments and defaults, == within one class only,
hashes that agree with ==, the constructor-call repr, no assignment after
construction, and each class's own validation."""
import pytest

from recurra.cipher import Alphabet, CipherKey
from recurra.lnumbers import BinetRoots, LSpec
from recurra.pisano import DiagnosisResult, PeriodResult
from recurra.quaternions import CensusRecord, CensusReport, LQuaternion, QuatAlgebra, Quaternion
from recurra.recurrence import SequenceSpec
from recurra.ringcore import Residue
from recurra.verify import CheckResult

H7 = QuatAlgebra(-1, -1, 7)
Q = Quaternion(H7, (8, 1, 2, 3))
H7_REPR = "QuatAlgebra(alpha=6, beta=6, modulus=7)"
Q_REPR = f"Quaternion(algebra={H7_REPR}, coeffs=(1, 1, 2, 3))"
RECORD = CensusRecord(0, (0, 1, 0, 1), 2, True, True)
RECORD_REPR = ("CensusRecord(index=0, coeffs=(0, 1, 0, 1), norm_mod=2, invertible=True, "
               "norm_is_two_mod_l2=True)")

# class, positional args, keyword args for the same value (defaults left
# out where they apply), a keyword change that gives a different value, the
# fields after construction, the repr, and arguments that raise ValueError
CASES = [
    (Residue, (9, 7), {"value": 2, "modulus": 7}, {"value": 3},
     {"value": 2, "modulus": 7}, "2 (mod 7)", [(1, 1), (1, 0)]),
    (SequenceSpec, ([1, 1], [0, 1]), {"coeffs": (1, 1)}, {"initial": (1, 1)},
     {"coeffs": (1, 1), "initial": (0, 1)}, "SequenceSpec(coeffs=(1, 1), initial=(0, 1))",
     [((1,),), ((1, 0),), ((1, 1), (0,))]),
    (CipherKey, (3, 27, [4, -5, 2], 2),
     {"k": 3, "n_mod": 27, "coeffs": (4, -5, 2), "exponent": 2}, {"exponent": 3},
     {"k": 3, "n_mod": 27, "coeffs": (4, -5, 2), "exponent": 2},
     "CipherKey(k=3, n_mod=27, coeffs=(4, -5, 2), exponent=2)", []),
    (Alphabet, (("A", "B"), "B"), {"symbols": ("A", "B"), "pad": "B"}, {"pad": "A"},
     {"symbols": ("A", "B"), "pad": "B"}, "Alphabet(symbols=('A', 'B'), pad='B')",
     [(("A", "A"), "A"), (("A", "BC"), "A"), (("A", "B"), "C")]),
    (PeriodResult, (0, 60), {"tail": 0, "period": 60}, {"tail": 1},
     {"tail": 0, "period": 60}, "PeriodResult(tail=0, period=60)", []),
    (DiagnosisResult, (False, None), {"diagonalizable": False}, {"eigenvalues": (1, 2)},
     {"diagonalizable": False, "eigenvalues": None},
     "DiagnosisResult(diagonalizable=False, eigenvalues=None)", []),
    (LSpec, (3,), {"l": 3}, {"l": 4}, {"l": 3}, "LSpec(l=3)", [(0,), (-2,)]),
    (BinetRoots, (1.5, -0.5, 5), {"alpha": 1.5, "beta": -0.5, "discriminant": 5},
     {"alpha": 2.0}, {"alpha": 1.5, "beta": -0.5, "discriminant": 5},
     "BinetRoots(alpha=1.5, beta=-0.5, discriminant=5)", []),
    (QuatAlgebra, (-1, -1, 7), {"alpha": 6, "beta": 13, "modulus": 7}, {"alpha": 1},
     {"alpha": 6, "beta": 6, "modulus": 7}, H7_REPR, [(1, 1, 1), (1, 1, 0)]),
    (Quaternion, (H7, (8, 1, 2, 3)), {"algebra": QuatAlgebra(6, 6, 7), "coeffs": (1, 1, 2, 3)},
     {"algebra": QuatAlgebra(-1, -1, 5)}, {"algebra": H7, "coeffs": (1, 1, 2, 3)}, Q_REPR, []),
    (LQuaternion, (3, 1, 0, Q), {"l": 3, "r": 1, "index": 0, "quat": Q}, {"index": 1},
     {"l": 3, "r": 1, "index": 0, "quat": Q},
     f"LQuaternion(l=3, r=1, index=0, quat={Q_REPR})", []),
    (CensusRecord, (0, [0, 1, 0, 1], 2, True, True),
     {"index": 0, "coeffs": (0, 1, 0, 1), "norm_mod": 2, "invertible": True,
      "norm_is_two_mod_l2": True},
     {"invertible": False},
     {"index": 0, "coeffs": (0, 1, 0, 1), "norm_mod": 2, "invertible": True,
      "norm_is_two_mod_l2": True},
     RECORD_REPR, []),
    (CensusReport, (3, 1, (RECORD,)), {"l": 3, "r": 1, "records": (RECORD,)}, {"records": ()},
     {"l": 3, "r": 1, "records": (RECORD,)},
     f"CensusReport(l=3, r=1, records=({RECORD_REPR},))", []),
    (CheckResult, ("matrix", "residue_inverse", True),
     {"suite": "matrix", "name": "residue_inverse", "passed": True}, {"detail": "x"},
     {"suite": "matrix", "name": "residue_inverse", "passed": True, "detail": ""},
     "CheckResult(suite='matrix', name='residue_inverse', passed=True, detail='')", []),
]


@pytest.mark.parametrize("cls, args, kwargs, change, fields, text, invalid", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class(cls, args, kwargs, change, fields, text, invalid):
    obj = cls(*args)
    assert {name: getattr(obj, name) for name in fields} == fields
    assert repr(obj) == text

    same = cls(**kwargs)
    assert obj == same and not obj != same and hash(obj) == hash(same)
    assert {obj, same} == {obj}
    other = cls(**{**kwargs, **change})
    assert obj != other and not obj == other

    class Subclass(cls):
        pass

    assert obj != Subclass(*args) and Subclass(*args) != obj
    assert obj != tuple(fields.values()) and obj != object()

    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert {name: getattr(obj, name) for name in fields} == fields

    for bad in invalid:
        with pytest.raises(ValueError):
            cls(*bad)
