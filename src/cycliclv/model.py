"""Cyclic Lotka-Volterra system definition and its structure matrix.

The family under study is the n-dimensional cyclic system

    dx_i/dt = x_i * (k_i x_{i+1} - k_{i-1} x_{i-1}),    i = 1..n,

with cyclic index convention x_0 = x_n, x_{n+1} = x_1, k_0 = k_n and
nonzero rate constants k_i. Rates are exact rationals throughout; the
classification of first integrals is discontinuous in the rates, so
floating-point parameters would misclassify.

The field is x_i K_i, where the cofactor K_i of the invariant hyperplane
x_i = 0 is row i of the structure matrix A, the package's one expansion of
the field. For n = 2 both neighbor terms of a row land on the same
coordinate and are summed, e.g. dx1/dt = (k1 - k2) x1 x2.

Every error the package raises is a CyclicLVError; refused input of any
kind is an InputError, defined here with the rate checks that raise it and
the bound on how much of a refused value its message echoes.
The package's immutable value types share the base _Record defined here.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction, Decimal]

__all__ = [
    "CyclicLVError",
    "InputError",
    "CyclicLVSystem",
    "as_fraction",
    "make_system",
    "structure_matrix",
]

# Most digits a decimal literal's numerator or denominator may have: the
# limit Python puts on int literals, here also on decimal exponents, whose
# power of ten would otherwise cost time without bound to build.
MAX_LITERAL_DIGITS = 4300


class CyclicLVError(Exception):
    """Base class for every error raised by this package."""


class InputError(CyclicLVError, ValueError):
    """A refused rate, state, sample set, setting, spec file or flag (exit code 2)."""


# Most bytes of a refused value that an error message echoes, and of a
# reason that may repeat the value; longer text is cut to its head and its
# size, which keeps every error line under 300 bytes.
VALUE_BYTES = 64
REASON_BYTES = 2 * VALUE_BYTES


def _excerpt(text: object, limit: int = VALUE_BYTES) -> str:
    """str(text) if its UTF-8 form fits in limit bytes, else its head and its size.

    Each non-printable character, a line break included, is escaped as repr
    escapes it, so the text stays on one line.
    """
    text = "".join(
        c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
        for c in str(text)
    )
    data = text.encode("utf-8")
    if len(data) <= limit:
        return text
    tail = f"... ({len(data)} bytes)"
    return data[: limit - len(tail)].decode("utf-8", "ignore") + tail


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact-rational input to Fraction.

    Accepts integers, Fractions, Decimals, and strings holding an integer,
    an exact decimal literal ("0.25" -> 1/4), or a "p/q" quotient. Floats
    are rejected: a float has already lost the decimal literal, so the
    caller must pass the literal as a string to convert it exactly.

    A decimal m * 10^e, as a string or a Decimal, is refused before it is
    built when its unreduced numerator or denominator (m * 10^e over 1 for
    e >= 0, m over 10^-e otherwise) has more than MAX_LITERAL_DIGITS digits,
    as "1e5000" is; the int parts of "p/q" meet Python's own limit. Every
    refusal is an InputError.

    A string that is, past surrounding whitespace, an optional sign and at
    most MAX_LITERAL_DIGITS ASCII digits goes straight through int, to the
    value that _literal_fraction, the route of every other string, gives
    it. A digit string that int refuses under a lowered int digit limit
    takes that route too, and is refused there in its words.
    """
    if isinstance(value, bool):
        raise InputError("booleans are not rational parameters")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit() and len(digits) <= MAX_LITERAL_DIGITS:
            try:
                return Fraction(int(text))
            except ValueError:
                pass
        return _literal_fraction(text)
    if isinstance(value, Decimal):
        _refuse_long_decimal(value)
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"refusing to convert float {value!r}; pass the decimal literal as a "
            "string (e.g. '0.25') for an exact conversion"
        )
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def _literal_fraction(text: str) -> Fraction:
    """as_fraction's general route for a stripped str: a decimal literal or "p/q"."""
    if "/" not in text:
        try:
            _refuse_long_decimal(Decimal(text))
        except InvalidOperation:
            raise InputError(f"invalid literal for a rational: {text!r}") from None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def _refuse_long_decimal(value: Decimal) -> None:
    """Raise InputError for a non-finite decimal or one as_fraction refuses."""
    if not value.is_finite():
        raise InputError(f"{value} is not a finite rational")
    _, m, e = value.as_tuple()
    if value and max(len(m) + e, len(m), 1 - e) > MAX_LITERAL_DIGITS:
        raise InputError(
            f"numerator or denominator has more than {MAX_LITERAL_DIGITS} digits"
        )


class _Record:
    """Base of the package's immutable records, each field a slot set once.

    A subclass lists its fields in __slots__, checks its arguments in its
    own __init__, if it has any to check, and passes them on here in that
    order; a wrong number of them raises TypeError. Records compare
    and hash by type and fields, and assigning or deleting a field raises
    AttributeError; copy and pickle rebuild a record through its __init__.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class CyclicLVSystem(_Record):
    """The n >= 2 nonzero rational rate constants; n is their count.

    The one path from raw rate entries to a system, also named
    ``make_system``. Each entry goes through as_fraction; one it refuses
    raises InputError naming its 1-based position with bounded excerpts of
    the entry and the reason. Then fewer than two rates, and then a zero
    one, are refused. A str or a bytes-like object is refused whole. The
    rates are kept as a tuple of Fractions.
    """

    __slots__ = ("rates",)

    def __init__(self, rates: Iterable[RationalLike]):
        if isinstance(rates, (str, bytes, bytearray, memoryview)):
            raise InputError(f"rates must be a collection of entries, not {type(rates).__name__}")
        parsed = []
        for pos, entry in enumerate(rates, start=1):
            try:
                parsed.append(as_fraction(entry))
            except InputError as exc:
                raise InputError(f"entry {pos}: cannot parse {_excerpt(repr(entry))} as a "
                                 f"rational ({_excerpt(exc, REASON_BYTES)})") from exc
        if len(parsed) < 2:
            raise InputError(f"need n >= 2, got n={len(parsed)}")
        if 0 in parsed:
            raise InputError(f"entry {parsed.index(0) + 1}: rate parameters must be nonzero")
        super().__init__(tuple(parsed))

    @property
    def n(self) -> int:
        return len(self.rates)


make_system = CyclicLVSystem


Term = tuple[int, Fraction]


def structure_matrix(sys: CyclicLVSystem) -> tuple[tuple[Term, Term], ...]:
    """The n rows of the structure matrix A, each as two (column, entry) terms.

    With u = log x the system is u' = A e^u for this constant antisymmetric
    A. Row i is the cofactor K_i = k_i x_{i+1} - k_{i-1} x_{i-1}, with
    X(x_i) = K_i x_i, its x_{i+1} term first as in the field. It is the
    field's one expansion: sim steps it, darboux builds the exponent system
    from it and verify's polynomial checks read it. The terms stay unsummed:
    for n = 2 both land on one column, where a consumer that needs the entry
    adds them and the float right-hand side keeps two products.
    """
    n, k = sys.n, sys.rates
    return tuple((((i + 1) % n, k[i]), ((i - 1) % n, -k[i - 1])) for i in range(n))

