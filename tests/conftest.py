import numpy as np
import pytest

import gpeps as gp


@pytest.fixture(scope="session")
def lat22():
    return gp.TorusLattice.build(2, 2)


@pytest.fixture(scope="session")
def z2():
    group = gp.build_group("Z2")
    rep = gp.regular_rep(group)
    tensor = gp.build_site_tensor(rep)
    return group, rep, tensor


@pytest.fixture(scope="session")
def z3():
    group = gp.build_group("Z3")
    rep = gp.regular_rep(group)
    tensor = gp.build_site_tensor(rep)
    return group, rep, tensor


@pytest.fixture(scope="session")
def z2_twisted(z2, lat22):
    """(pairs, dim) twisted isometric states, in commuting-pair order.

    Read-only: the pipeline advances its columns in place, so a test that
    hands a shared fixture to it by mistake fails loudly.
    """
    return _frozen(gp.twisted_states(lat22, z2[2]))


@pytest.fixture(scope="session")
def z3_twisted(z3, lat22):
    return _frozen(gp.twisted_states(lat22, z3[2]))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def stack_columns(states):
    """(dim, m) column stack of normalized state amplitudes."""
    return np.array([s.amplitudes for s in states]).T
