"""Shared fixtures: the small graphs most tests poke at."""

import pytest

from nlresolvent import (
    Potential,
    finite_path,
    generate,
    lattice_z,
    random_sparse,
)


@pytest.fixture
def pair():
    """Two vertices joined by a unit edge, unit measures."""
    return finite_path(2)


@pytest.fixture
def path3():
    return finite_path(3)


@pytest.fixture
def lattice():
    return lattice_z()


@pytest.fixture
def chain4():
    """Birth-death chain on N with b(n, n+1) = 4^n, m = 1."""
    return generate("birth-death:4")


@pytest.fixture
def cyclic():
    """A connected random graph on 60 vertices with cycles: its Newton
    steps run conjugate gradients, whose iterations a budget counts."""
    return random_sparse(60, density=0.06, seed=0)


@pytest.fixture
def unit_potential():
    return Potential.constant(1.0)
