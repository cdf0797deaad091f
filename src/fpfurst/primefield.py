"""Primality, the matrix type over F_p that everything sits on, and the
error of a construction that a prime is too small for.

Scalars are stored as plain machine-word residues in [0, p); the prime modulus
is verified eagerly by deterministic Miller-Rabin, because a composite modulus
silently breaks the whole theory (F_{p^2} admits cheap counterexamples).
Counting is done elsewhere in arbitrary-precision integers.
"""

from __future__ import annotations

from functools import lru_cache


# The first thirteen primes are Miller-Rabin witnesses deciding every n below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every int p < PRIME_LIMIT (about
    3.3 * 10**24), a ValueError beyond it rather than a guess, and a
    TypeError for a p that is not an int."""
    if not isinstance(p, int):  # before the cache, which answers 5.0 from the entry for 5
        raise TypeError(f"p must be an int, got {p!r}")
    return _is_prime(p)


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is not below PRIME_LIMIT, where primality is decided")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class DegenerateScaleError(ValueError):
    """Raised when a construction cannot be realized nondegenerately at the
    requested prime, e.g. a required point or slope range is empty."""


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _check_ints(values):
    """Refuse non-int values: every scalar here is exact."""
    if not all([isinstance(e, int) for e in values]):
        raise TypeError("entries must be ints")


def _check_matrix(p, rows, cols, entries):
    """A PrimeMatrix's checks; a LinearSubspace runs them too."""
    check_prime(p)
    if type(entries) is not tuple:
        raise TypeError("entries must be a tuple")
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match shape")
    _check_ints(entries)
    if any(not (0 <= e < p) for e in entries):
        raise ValueError("entries must be residues in [0, p)")


class _Record:
    """Base of the package's value records.

    A record's fields are the parameters of its class's `__init__`, in order.
    The `__init__` checks its arguments and stores them with `_set_fields`.
    The base supplies the rest: equality and hashing by field values, only
    between instances of one class; a `Name(field=value, ...)` repr;
    assignment and deletion that raise `AttributeError`; pickling and copying
    through `__init__`; and `replace`.  A subclass that declares no
    `__slots__` has a `__dict__`, so it can hold a `cached_property`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1 : init.co_argcount]

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by `__init__`."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class PrimeMatrix(_Record):
    """Immutable row-major matrix over F_p."""

    def __init__(self, p: int, rows: int, cols: int, entries: tuple[int, ...]):
        _check_matrix(p, rows, cols, entries)
        self._set_fields(p, rows, cols, entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

