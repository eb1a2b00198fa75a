"""Exception types shared across the toolkit, the integer and rational
checks of exact input, and the base of the immutable value classes.

Every error carries a stable machine-readable ``code`` that the CLI echoes
in its JSON error reports.
"""

from operator import attrgetter


def json_int(value) -> int:
    """``value`` itself if it is a JSON integer; floats, strings and bools raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _rational(value):
    """``value`` as a Fraction if it is an int or a Fraction, else TypeError."""
    from fractions import Fraction  # here: most commands load no fractions
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    return Fraction(value)


class Value:
    """Immutable value with the declared fields ``_fields``, kept in slots.

    The constructor stores the field values in the first slots, in order, and
    calls ``__post_init__``, the one validator of outside input; ``_of`` stores
    them unchecked, for values syzkit built canonical.  Equality reads those
    slots, hash, ``repr`` and pickling the fields; only the exact type equals.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # ``_values(instance)``: the declared fields as one tuple; a one-field
        # attrgetter returns the bare value.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
        cls._stored = staticmethod(attrgetter(*cls.__slots__[:len(cls._fields)]))
        # ``_setters``: the setters of those slots' member descriptors, for ``_of``
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls.__slots__[:len(cls._fields)])

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:  # the fields after the positional ones, by name
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(self.__slots__, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _of(cls, *values):
        """An instance whose first slots hold ``values``, unchecked."""
        self = object.__new__(cls)
        for set_slot, value in zip(cls._setters, values):
            set_slot(self, value)
        return self

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._stored(self) == self._stored(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"


class SyzkitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class EmptyInputError(SyzkitError):
    code = "EmptyInput"


class UnsupportedDimensionError(SyzkitError):
    code = "UnsupportedDimension"


class DimensionMismatchError(SyzkitError):
    code = "DimensionMismatch"


class SearchBudgetExceededError(SyzkitError):
    code = "SearchBudgetExceeded"


class OutputTooLargeError(SyzkitError):
    code = "OutputTooLarge"


class SupportMismatchError(SyzkitError):
    code = "SupportMismatch"


class ShapeMismatchError(SyzkitError):
    code = "ShapeMismatch"


class InvalidBasisError(SyzkitError):
    code = "InvalidBasis"


class VerificationFailedError(SyzkitError):
    code = "VerificationFailed"
