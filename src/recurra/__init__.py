"""Exact-arithmetic toolkit for k-term integer linear recurrences:
companion matrices and their determinant identities, generalized Pisano
periods, a recurrence-keyed block cipher, and l-number / quaternion
identities over residue rings."""

from .ringcore import (
    Matrix,
    ModulusMismatch,
    NotInvertible,
    Residue,
    ShapeMismatch,
    mod_inverse,
    multiplicative_order,
)
from .recurrence import (
    SequenceSpec,
    addition_formula,
    bordered_det,
    companion,
    power,
    power_structure_check,
    state_step_check,
    term,
    term_mod,
    term_negative,
    window_det,
)
from .pisano import (
    DiagnosisResult,
    PeriodResult,
    PrimeTooLarge,
    diagonalizable_mod_p,
    matrix_order,
    prime_power_ladder,
    state_period,
)
from .cipher import (
    Alphabet,
    BadCoefficient,
    BadShape,
    CipherKey,
    DegenerateExponent,
    UnknownSymbol,
    decrypt,
    decrypt_text,
    encrypt,
    encrypt_text,
    normalize_exponent,
    validate_key,
)
from .lnumbers import LSpec, l_term, m_value
from .quaternions import LQuaternion, QuatAlgebra, Quaternion, l_quaternion

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BadCoefficient", "BadShape", "CipherKey",
    "DegenerateExponent", "DiagnosisResult", "LQuaternion", "LSpec", "Matrix",
    "ModulusMismatch", "NotInvertible", "PeriodResult", "PrimeTooLarge",
    "QuatAlgebra", "Quaternion", "Residue", "SequenceSpec",
    "ShapeMismatch", "UnknownSymbol", "addition_formula", "bordered_det",
    "companion", "decrypt", "decrypt_text", "diagonalizable_mod_p", "encrypt",
    "encrypt_text", "l_quaternion", "l_term", "m_value", "matrix_order",
    "mod_inverse", "multiplicative_order", "normalize_exponent", "power",
    "power_structure_check", "prime_power_ladder", "state_period",
    "state_step_check", "term", "term_mod", "term_negative", "validate_key",
    "window_det",
]
