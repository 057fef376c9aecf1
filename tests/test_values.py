"""The immutable value classes on ringcore.Value: construction with
positional and keyword arguments and defaults, == within one class only,
hashes that agree with ==, the constructor-call repr, no assignment after
construction, and each class's own validation, with every integer field
taken by operator.index, as are the engine's integer arguments."""
import pytest

from recurra.cipher import Alphabet, CipherKey
from recurra.lnumbers import LSpec, l_term, l_terms
from recurra.pisano import DiagnosisResult, PeriodResult, prime_power_ladder
from recurra.quaternions import CensusRecord, CensusReport, QuatAlgebra, Quaternion
from recurra.recurrence import (SequenceSpec, bordered_det, companion_power,
                                power_structure_check, term, term_mod, term_negative, terms,
                                terms_from, terms_mod, x_power)
from recurra.ringcore import Matrix, Residue
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
     "CipherKey(k=3, n_mod=27, coeffs=(4, -5, 2), exponent=2)",
     [(1, 27, (4,), 2), (3, 27, (4, -5, 3), 2), (3, 27, (4, -5, 2), 0)]),
    (Alphabet, (("A", "B"), "B"), {"symbols": ("A", "B"), "pad": "B"}, {"pad": "A"},
     {"symbols": ("A", "B"), "pad": "B"}, "Alphabet(symbols=('A', 'B'), pad='B')",
     [(("A", "A"), "A"), (("A", "BC"), "A"), (("A", "B"), "C")]),
    (PeriodResult, (0, 60), {"tail": 0, "period": 60}, {"tail": 1},
     {"tail": 0, "period": 60}, "PeriodResult(tail=0, period=60)", []),
    (DiagnosisResult, (False, None), {"diagonalizable": False}, {"eigenvalues": (1, 2)},
     {"diagonalizable": False, "eigenvalues": None},
     "DiagnosisResult(diagonalizable=False, eigenvalues=None)", []),
    (LSpec, (3,), {"l": 3}, {"l": 4}, {"l": 3}, "LSpec(l=3)", [(0,), (-2,)]),
    (QuatAlgebra, (-1, -1, 7), {"alpha": 6, "beta": 13, "modulus": 7}, {"alpha": 1},
     {"alpha": 6, "beta": 6, "modulus": 7}, H7_REPR, [(1, 1, 1), (1, 1, 0)]),
    (Quaternion, (H7, (8, 1, 2, 3)), {"algebra": QuatAlgebra(6, 6, 7), "coeffs": (1, 1, 2, 3)},
     {"algebra": QuatAlgebra(-1, -1, 5)}, {"algebra": H7, "coeffs": (1, 1, 2, 3)}, Q_REPR,
     [(H7, (1, 2, 3)), (H7, (1, 2, 3, 4, 5))]),
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


# Integer fields are taken with operator.index: a float or a string raises
# TypeError instead of being truncated, and a bool stays the int it is.
def test_a_spec_takes_integers_only():
    for coeffs, initial in (((1.9, 1), None), ("11", None), ((1, 1), (0.5, 1)),
                            ((1, 1), "01")):
        with pytest.raises(TypeError):
            SequenceSpec(coeffs, initial)
    assert SequenceSpec((True, 1), (False, True)) == SequenceSpec((1, 1), (0, 1))


def test_a_matrix_takes_integers_only():
    for modulus in (None, 5):
        for entries in ([[1.5, 2], [3, 4]], [[1, 2], [3, 4.0]], ["12", "34"]):
            with pytest.raises(TypeError):
                Matrix(entries, modulus)
    assert Matrix([[True, 2], [3, 4]], 3).entries == ((1, 2), (0, 1))


def test_a_cipher_key_takes_integer_coefficients_only():
    for coeffs in ((4.0, -5, 2), (4, -5.5, 2), "452"):
        with pytest.raises(TypeError):
            CipherKey(3, 27, coeffs, 2)
    assert CipherKey(3, 27, (4, -5, True), 2).coeffs == (4, -5, 1)


# Each integer field of each value class, filled with the one argument x
# and the rest valid.  x = 3 builds a value in every field.
INTEGER_FIELDS = {
    "SequenceSpec.coeffs": lambda x: SequenceSpec((1, x)),
    "SequenceSpec.initial": lambda x: SequenceSpec((1, 1), (x, 1)),
    "LSpec.l": lambda x: LSpec(x),
    "Matrix.entries": lambda x: Matrix([[1, x], [3, 4]]),
    "Matrix.entries mod m": lambda x: Matrix([[1, x], [3, 4]], 5),
    "Matrix.modulus": lambda x: Matrix([[1, 2], [3, 4]], x),
    "CipherKey.k": lambda x: CipherKey(x, 27, (4, -5, 2), 2),
    "CipherKey.n_mod": lambda x: CipherKey(3, x, (4, -5, 2), 2),
    "CipherKey.coeffs": lambda x: CipherKey(3, 27, (4, x, 2), 2),
    "CipherKey.exponent": lambda x: CipherKey(3, 27, (4, -5, 2), x),
    "Residue.value": lambda x: Residue(x, 7),
    "Residue.modulus": lambda x: Residue(2, x),
    "QuatAlgebra.alpha": lambda x: QuatAlgebra(x, -1, 7),
    "QuatAlgebra.beta": lambda x: QuatAlgebra(-1, x, 7),
    "QuatAlgebra.modulus": lambda x: QuatAlgebra(-1, -1, x),
    "Quaternion.coeffs": lambda x: Quaternion(H7, (1, 2, x, 4)),
}


def _outcome(build, x):
    try:
        return build(x)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_every_integer_field_refuses_a_float_and_a_str(field):
    build = INTEGER_FIELDS[field]
    for bad in (3.0, 3.5, "3"):
        with pytest.raises(TypeError):
            build(bad)
    assert build(3) == build(3)
    # a bool is the int it is: the same value, or the same refusal
    assert _outcome(build, True) == _outcome(build, 1)
    assert _outcome(build, False) == _outcome(build, 0)


# Each integer argument of the engine, of prime_power_ladder and of the
# identity checks that read backward terms, filled with the one argument x
# and the rest valid: a float or a string raises TypeError, and a bool gives
# what its int gives.
FIB = SequenceSpec((1, 1))
INTEGER_ARGUMENTS = {
    "term.n": lambda x: term(FIB, x),
    "term_mod.n": lambda x: term_mod(FIB, x, 7),
    "term_negative.n": lambda x: term_negative(FIB, x),
    "bordered_det.n": lambda x: bordered_det(FIB, x),
    "power_structure_check.n": lambda x: power_structure_check(FIB, x),
    "terms.count": lambda x: terms(FIB, x),
    "terms_mod.count": lambda x: terms_mod(FIB, x, 7),
    "terms_from.n": lambda x: terms_from(FIB, x, 2),
    "terms_from.count": lambda x: terms_from(FIB, 2, x),
    "x_power.n": lambda x: x_power(FIB, x, 7),
    "x_power.base": lambda x: x_power(FIB, 3, 7, (x, 0)),
    "companion_power.base": lambda x: companion_power(FIB, 3, 7, (x, 0)),
    "Matrix.__pow__.n": lambda x: Matrix([[1, 1], [1, 0]], 7) ** x,
    "l_term.n": lambda x: l_term(LSpec(2), x),
    "l_terms.count": lambda x: l_terms(LSpec(2), x),
    "prime_power_ladder.p": lambda x: prime_power_ladder(FIB, x, 2),
    "prime_power_ladder.r_max": lambda x: prime_power_ladder(FIB, 3, x),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_integer_argument_of_the_engine_refuses_a_float_and_a_str(argument):
    call = INTEGER_ARGUMENTS[argument]
    for bad in (3.0, 1.5, "3"):
        with pytest.raises(TypeError):
            call(bad)
    assert _outcome(call, True) == _outcome(call, 1)
    assert _outcome(call, False) == _outcome(call, 0)
