"""Exact nonnegative rational arithmetic on arbitrary-precision integers.

Values are stored reduced (gcd(num, den) == 1, den >= 1) and are immutable.
Only the nonnegative cone of Q is supported: subtraction below zero raises.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Tuple

from .errors import DomainError, ParseError


def _printable(value: int) -> str:
    """value in base 10; a DomainError when CPython's int -> str cap forbids it."""
    try:
        return str(value)
    except ValueError as exc:
        raise DomainError("value too large to print: past the int -> str "
                          f"limit of {sys.get_int_max_str_digits()} digits") from exc


def _literal(value: int) -> str:
    """value as an int literal: base 10, or hex past the int -> str cap,
    which spares power-of-two bases."""
    try:
        return str(value)
    except ValueError:
        return hex(value)


def _ipow(base: int, e: int) -> int:
    """base ** e for int base, e >= 0. base = 2^t u with u odd gives u^e
    shifted left by t e bits: CPython's ** squares and multiplies on a power
    of two as on any base (CPython 3.11 on x86: 2 ** 12500 takes about a
    hundred times as long as 1 << 12500, 6 ** 12500 twice as long as
    3 ** 12500 << 12500). An odd base has t = 0; 0 and 1 take ** (0^0 = 1).
    Callers send it the powers whose exponent is a cumulative exponent s,
    which grows with the index, and the comparator's powers of up to 4096
    bits; a power of one gap in a per-level loop stays inline, where the
    call would cost more than it saves."""
    if base < 2:
        return base ** e
    t = (base & -base).bit_length() - 1
    return (base >> t) ** e << t * e


def _power(base: int, e: int) -> str:
    """base**e in base 10, or "base^e" when it is too long for int -> str.
    base**e >= 2^(e (bits - 1)), and 10^limit has at most limit*10//3 + 1
    bits, so a power past that bound is never formed only to fail to print."""
    limit = sys.get_int_max_str_digits()
    if limit and e * (base.bit_length() - 1) >= limit * 10 // 3 + 1:
        return f"{_printable(base)}^{e}"
    try:
        return str(base ** e)
    except ValueError:
        return f"{_printable(base)}^{e}"


def _field(value) -> str:
    """repr(value), with each int, also one inside a tuple, printed by `_literal`."""
    if type(value) is int:
        return _literal(value)
    if type(value) is tuple:
        return f"({', '.join(map(_field, value))}{',' * (len(value) == 1)})"
    return repr(value)


class _Value:
    """An immutable value that acts as a frozen dataclass of the names in its
    ``__slots__``, less those that start with "_", which hold caches. Values
    of one class are equal when their fields are, hash as the field tuple,
    print as Name(field=value, ...), an int past the int -> str cap in hex
    (`_field`), and copy and pickle through the constructor, which stores
    the values given in field order: a copy rebuilds its caches, or fills
    them on first read, and never carries them. A class keeps its own
    __init__, storing through _set, when it checks or defaults its input, or
    when it is built per membership query: there this loop costs two to
    three times as much as explicit stores.
    Ratio and Factorization store through their slot descriptors' __set__,
    the cheapest store, and skip __init__ where they are built in bulk:
    object.__new__ and the two stores make a Ratio known to be reduced
    (`Ratio._reduced`, `Ratio.power_quotients`), and the Factorizations of
    an enumeration or of a witness chain's links come from one pass,
    `factorization._factorizations`, that maps object.__new__ over the
    class and then each store over the objects.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={_field(getattr(self, f))}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):  # as __delattr__ too, with no value
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._astuple()


_set = object.__setattr__


def _ints(what: str, *values) -> tuple:
    """values, when each is an int and none a bool; a TypeError otherwise."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be integers")
    return values


class Ratio(_Value):
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if type(num) is not int or type(den) is not int:  # a bool is no integer
            raise TypeError("num and den must be integers")
        if den == 0:
            raise DomainError("zero denominator")
        if num < 0 or den < 0:
            raise DomainError("negative rational: only Q>=0 is supported")
        g = gcd(num, den)  # gcd(0, den) = den makes zero 0/1
        _set_num(self, num // g)
        _set_den(self, den // g)

    @staticmethod
    def _reduced(num: int, den: int) -> "Ratio":
        """num/den for coprime num >= 0 and den >= 1, without a gcd."""
        out = _new(Ratio)
        _set_num(out, num)
        _set_den(out, den)
        return out

    def power_quotients(self, a: int, b: int,
                        steps: Iterable[Tuple[int, int]]) -> Iterator["Ratio"]:
        """num^a / den^b, then the same after each (i, j) of steps has raised
        a by i and b by j, for int a, b, i, j >= 0. The first pair of powers
        comes from `_ipow`, each later one is carried from the last by one
        multiply, and no value takes a gcd: num and den are coprime, so are
        any powers of them (a prime that divided num^a and den^b would
        divide num and den), and at num = 0, den = 1."""
        if type(a) is not int or type(b) is not int or a < 0 or b < 0:
            raise TypeError("exponents must be integers >= 0")
        num, den = self.num, self.den
        top, bottom = _ipow(num, a), _ipow(den, b)
        for i, j in chain(((0, 0),), steps):  # (0, 0): the first quotient
            top *= num ** i
            bottom *= den ** j
            if type(top) is not int or type(bottom) is not int:  # a float or an i < 0
                raise TypeError("exponents must be integers >= 0")
            out = _new(Ratio)
            _set_num(out, top)
            _set_den(out, bottom)
            yield out

    @staticmethod
    def over_power(num: int, den: int, d: int) -> "Ratio":
        """num/den for num >= 0 and den = d^e, e >= 0. Every prime of den
        divides d, so num/den is reduced exactly when gcd(num, gcd(den, d))
        is 1. One gcd of num with d^min(e, 3) = gcd(den, d^3) and one
        division by it take min(v_p(num), 3 v_p(d), e v_p(d)) factors of
        each prime p of d from num and den, in time linear in the size of
        num, since d^3 is small. That reduces c * n^s over d^s for every
        c <= 50 at d = 3 or 4 (v_3(c) <= 3, v_2(c) <= 5). A numerator that
        still shares a prime of d goes to the reducing constructor, whose
        gcd of two long integers is quadratic. The exponent is capped: a
        gcd with all of den is that long gcd, and a loop of one gcd with d
        per common factor took seconds on 7 * 2^39000 * 3^5000 over
        2^40000, against about a millisecond for the long gcd. A den of at
        most 64 bits takes one gcd with num instead: it is linear in num, as
        fast as the first round on a num prime to d, and skips the second
        gcd and the constructor on one that holds d more than three times.
        The callers, `evaluate` and `series_partial_sums`, sum terms whose
        numerator can share a prime with d; a quotient of powers of n and d
        alone needs no reduction and comes from `power_quotients`."""
        if den.bit_length() <= 64:
            g = gcd(num, den)
            return Ratio._reduced(num // g, den // g)
        g = gcd(num, min(den, d ** 3))
        if g == 1:
            return Ratio._reduced(num, den)
        num //= g
        den //= g
        if gcd(num, gcd(den, d)) == 1:
            return Ratio._reduced(num, den)
        return Ratio(num, den)

    # -- construction / formatting -------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Ratio":
        """Parse "p/q" or a bare integer "p"."""
        s = text.strip()
        try:
            if "/" in s:
                p, q = s.split("/")
                return cls(int(p.strip()), int(q.strip()))
            return cls(int(s))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"malformed rational {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{_printable(self.num)}/{_printable(self.den)}"

    def __repr__(self) -> str:
        return f"Ratio({_literal(self.num)}, {_literal(self.den)})"

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Ratio):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __hash__(self):  # a whole Ratio equals its int, so hashes as it, as Fraction does
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __lt__(self, other) -> bool:
        other = self._coerce(other)
        return self.num * other.den < other.num * self.den

    def __le__(self, other) -> bool:
        other = self._coerce(other)
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other) -> bool:
        other = self._coerce(other)
        return self.num * other.den > other.num * self.den

    def __ge__(self, other) -> bool:
        other = self._coerce(other)
        return self.num * other.den >= other.num * self.den

    def __bool__(self) -> bool:
        return self.num != 0

    @staticmethod
    def _coerce(value):
        if isinstance(value, Ratio):
            return value
        if type(value) is int:
            return Ratio(value)
        raise TypeError(f"unsupported operand for Ratio: {type(value).__name__}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Ratio":
        other = self._coerce(other)
        return Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Ratio":
        other = self._coerce(other)
        num = self.num * other.den - other.num * self.den
        if num < 0:
            raise DomainError("subtraction leaves the nonnegative cone")
        return Ratio(num, self.den * other.den)

    def __mul__(self, other) -> "Ratio":
        other = self._coerce(other)
        return Ratio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Ratio":
        other = self._coerce(other)
        if other.num == 0:
            raise DomainError("division by zero")
        return Ratio(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "Ratio":
        if type(e) is not int:
            raise TypeError(f"unsupported exponent for Ratio: {type(e).__name__}")
        if e < 0:
            raise DomainError("negative exponent")
        # a power of a reduced fraction is reduced: no gcd needed
        return Ratio._reduced(_ipow(self.num, e), _ipow(self.den, e))

    # -- helpers -------------------------------------------------------

    def floor(self) -> int:
        return self.num // self.den


_new = object.__new__
_set_num, _set_den = Ratio.num.__set__, Ratio.den.__set__

ZERO = Ratio(0)
ONE = Ratio(1)


def max_power_dividing(b: int, m: int) -> int:
    """max{k : b^k | m} for b >= 2, m >= 1."""
    if b < 2:
        raise DomainError("base must be >= 2")
    if m < 1:
        raise DomainError("argument must be >= 1")
    k = 0
    while m % b == 0:
        m //= b
        k += 1
    return k
