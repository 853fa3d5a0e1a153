"""Shared fixtures: builtin groups and numerical helpers."""

import numpy as np
import pytest

from hyplab import geom
from hyplab.fuchsian import builtin_group


@pytest.fixture(scope="session")
def cyclic_group():
    return builtin_group("cyclic_L2")


@pytest.fixture(scope="session")
def bolza_group():
    return builtin_group("bolza")


@pytest.fixture
def on_cores(monkeypatch):
    """on_cores(k, fn, *args): fn(*args) with the usable core count,
    hence the block pool's size, patched to k.  k = 2 runs the blocks on
    the pool even on a one-core host; k = 1 runs them inline."""
    def call(k, fn, *args):
        monkeypatch.setattr(geom, "_threads", lambda: k)
        return fn(*args)
    return call


def dist_c(p, q):
    """Vectorized hyperbolic distance between complex upper-half-plane
    points."""
    p = np.asarray(p)
    q = np.asarray(q)
    return np.arccosh(1.0 + (np.abs(p - q) ** 2) / (2.0 * p.imag * q.imag))
