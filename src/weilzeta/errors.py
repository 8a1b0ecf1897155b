"""Exception taxonomy shared by all weilzeta modules.

Every error derives from WeilZetaError and carries an ``exit_code`` used by
the command line driver: 2 for invalid input or violated preconditions,
1 for a mathematical check that ran and failed, 3 for exceeded enumeration
budgets. Two input bounds live here too, so that a job reads them
without loading the module that enforces them: LITERAL_DIGITS, the most
digits a number in an input file may have, and DEFAULT_BUDGET, the default
cap on enumeration work. read_text, which every input file loader uses,
reports a file that is not UTF-8 as a ParseError; data_lines, which every
input parser reads its lines from, refuses a number past LITERAL_DIGITS
digits, or past the interpreter's int-to-str limit when that is lower.
check_int and check_ints are the one test of an integer argument: an int
(bool included) passes, anything else, 3.0 or Fraction(3) too, is
InvalidInput naming the argument and the value.
"""

import sys


class WeilZetaError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class MathCheckError(WeilZetaError):
    """A verification ran to completion and the property did not hold."""

    exit_code = 1


class BudgetError(WeilZetaError):
    """Requested work exceeds the enumeration budget."""

    exit_code = 3


class EnumerationBudgetExceeded(BudgetError):
    pass


# --- input and precondition errors (exit code 2) ---

class InvalidPrime(WeilZetaError):
    pass


class InvalidDegree(WeilZetaError):
    pass


class FieldMismatch(WeilZetaError):
    pass


class DivisionByZero(WeilZetaError):
    pass


class NotHomogeneous(WeilZetaError):
    pass


class SingularCurve(WeilZetaError):
    pass


class UnsupportedCharacteristic(WeilZetaError):
    pass


class EmptySeries(WeilZetaError):
    pass


class InsufficientPrecision(WeilZetaError):
    pass


class NotNormalized(WeilZetaError):
    pass


class DimensionMismatch(WeilZetaError):
    pass


class NotIrreducible(WeilZetaError):
    pass


class InvalidInterval(WeilZetaError):
    pass


class DependentGenerators(WeilZetaError):
    pass


class NotPrimitive(WeilZetaError):
    pass


class DegenerateSpectrum(WeilZetaError):
    pass


class NotEndomorphism(WeilZetaError):
    pass


class ParseError(WeilZetaError):
    """Malformed input text; message carries line and column."""


class InvalidInput(WeilZetaError):
    """Precondition violation not covered by a more specific class."""


class InternalError(WeilZetaError):
    """Invariant that cannot fail for valid inputs did fail."""


# --- mathematical check failures (exit code 1) ---

class NoRationalFit(MathCheckError):
    pass


class NotIntegral(MathCheckError):
    pass


class FunctionalEquationViolated(MathCheckError):
    """Carries the residual polynomials of the cross-multiplied identity."""

    def __init__(self, message, residual_plus=None, residual_minus=None):
        super().__init__(message)
        self.residual_plus = residual_plus
        self.residual_minus = residual_minus


class MixedWeightFactor(MathCheckError):
    pass


class WeightOutOfRange(MathCheckError):
    pass


class HasseViolation(MathCheckError):
    pass


class NotRepresentable(MathCheckError):
    pass


# The most digits a number in any input file may have
LITERAL_DIGITS = 1000

# The default cap on ambient representatives and field sizes (count, weil)
# and on the x-values of a cm sweep
DEFAULT_BUDGET = 1 << 24


def read_text(path):
    """The text of the UTF-8 file at path; a ParseError naming the file and
    the first byte that does not decode when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def data_lines(text):
    """(line number, stripped line) for each line of text that is neither
    blank nor a '#' comment. A ParseError names the first line holding a
    run of characters that int() would read as one number, decimal digits
    (str.isdecimal) and '_', longer than the bound: LITERAL_DIGITS, or the
    interpreter's int-to-str limit when that is lower, so that no parser's
    int() refuses a number that passed here. The limit is 0 for none, and
    Pythons before 3.10.7 have none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = min(LITERAL_DIGITS, limit) if limit else LITERAL_DIGITS
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) > bound:
            run = 0
            for ch in line:
                run = run + 1 if ch.isdecimal() or ch == "_" else 0
                if run > bound:
                    raise ParseError(f"line {no}: a number has more than {bound} digits")
        yield no, line


def check_int(name, value):
    """value when it is an int; InvalidInput naming name otherwise."""
    if not isinstance(value, int):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return value


def check_ints(name, values):
    """values as a tuple when every one is an int; InvalidInput naming name
    and the first that is not otherwise."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int):
            raise InvalidInput(f"{name} must be integers, got {v!r}")
    return values
