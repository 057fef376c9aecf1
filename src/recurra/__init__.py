"""Exact-arithmetic toolkit for k-term integer linear recurrences:
companion matrices and their determinant identities, generalized Pisano
periods, a recurrence-keyed block cipher, and l-number / quaternion
identities over residue rings.

Errors follow one rule.  A wrong type raises TypeError (integers are
taken with operator.index, so a float or a string), and a wrong value
ValueError or a subclass (NotInvertible, BadShape, ...); a value checks
both once, when it is built.  A function whose check of an identity on
its own result fails raises BrokenIdentity, an ArithmeticError.

Importing the package loads none of its submodules: each public name (and
each submodule below) is imported on first use (PEP 562), so a caller such
as `recurra order` pays only for what it runs.
"""

from sys import modules as _modules

__version__ = "0.1.0"

_EXPORTS = {
    "ringcore": ("BrokenIdentity", "Matrix", "ModulusMismatch", "NotInvertible",
                 "Residue", "ShapeMismatch", "multiplicative_order"),
    "recurrence": ("SequenceSpec", "addition_formula", "bordered_det", "companion",
                   "power_structure_check", "state_step_check", "term", "term_mod",
                   "term_negative", "window_det"),
    "pisano": ("DiagnosisResult", "PeriodResult", "diagonalizable_mod_p",
               "matrix_order", "prime_power_ladder", "state_period"),
    "cipher": ("Alphabet", "BadCoefficient", "BadShape", "CipherKey",
               "DegenerateExponent", "UnknownSymbol", "decrypt", "decrypt_text",
               "encrypt", "encrypt_text", "normalize_exponent"),
    "lnumbers": ("LSpec", "l_term", "m_value"),
    "quaternions": ("QuatAlgebra", "Quaternion", "l_quaternion"),
    "ntheory": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is the import statement's own path, which -X importtime
    # reports (importlib.import_module is not timed there)
    __import__(f"{__name__}.{module}")
    value = _modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
