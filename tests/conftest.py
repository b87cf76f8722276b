"""Fixtures shared by the test modules."""

import importlib
import math
import pkgutil

import pytest

import puiseux


@pytest.fixture
def long_gcds(monkeypatch):
    """The list, filled as the test runs, of the largest operand's bit length
    of each gcd that the package takes of two operands over 64 bits: such a
    gcd costs time quadratic in their size. Every module that imports gcd
    from math gets a counting one instead."""
    calls = []

    def counted(*args):
        if sum(a.bit_length() > 64 for a in args) >= 2:
            calls.append(max(a.bit_length() for a in args))
        return math.gcd(*args)

    for info in pkgutil.iter_modules(puiseux.__path__):
        module = importlib.import_module(f"puiseux.{info.name}")
        if getattr(module, "gcd", None) is math.gcd:
            monkeypatch.setattr(module, "gcd", counted)
    return calls
