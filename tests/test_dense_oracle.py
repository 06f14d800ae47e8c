"""Block-coordinate trials against the dense trial oracle.

Each configuration runs through ``gpeps.protocol.run_protocol`` and through
``dense_oracle.run_protocol`` on the same prepared protocol, whose dense
bases the oracle builds itself: bits, measurement counts and outcomes must
be identical, and final fidelities and block weights must agree within
1e-12.
"""

import dataclasses

import numpy as np
import pytest

import dense_oracle
import gpeps as gp
from gpeps.errors import BoundViolation
from gpeps.lattice import projector_from_columns
from gpeps.protocol import prepare_protocol, run_protocol


def _prepared(group, width, height, kappa, deformation_seed, seed, m, check=False):
    rep = gp.regular_rep(gp.build_group(group))
    tensor = gp.build_site_tensor(rep)
    lattice = gp.TorusLattice.build(width, height)
    defs = tuple(
        gp.random_deformation(tensor, kappa, seed=deformation_seed + v, site=v)
        for v in range(lattice.n_vertices)
    )
    return prepare_protocol(gp.ProtocolConfig(
        lattice=lattice, tensor=tensor, deformations=defs, epsilon=0.1,
        m_policy=m, seed=seed, check_invariants=check,
    ))


def _assert_same_trials(prepared, trials):
    failed = 0
    for k in range(trials):
        block = run_protocol(prepared, trial=k)
        dense = dense_oracle.run_protocol(prepared, trial=k)
        assert block.steps == dense.steps, k
        assert block.total_measurements == dense.total_measurements, k
        assert (block.success, block.failed_step) == (dense.success, dense.failed_step), k
        assert abs(block.final_fidelity - dense.final_fidelity) <= 1e-12, k
        weights = np.array(block.final_block_weights)
        assert weights.shape == (len(dense.final_block_weights),)
        assert np.abs(weights - dense.final_block_weights).max() <= 1e-12, k
        failed += not block.success
    return failed


def _reseeded(prepared, seed):
    """The same prepared instance with the trial streams of ``seed``."""
    return dataclasses.replace(prepared, config=dataclasses.replace(prepared.config, seed=seed))


@pytest.fixture(scope="module")
def z3_instance():
    # the benchmark's z3-trials instance: Z3 2x2, kappa 2, deformation seed 40
    return _prepared("Z3", 2, 2, 2.0, 40, 1, 80)


@pytest.fixture(scope="module")
def s3_instance():
    return _prepared("S3", 2, 1, 2.0, 40, 1, 80)


@pytest.mark.parametrize("seed", [1, 2])
def test_z3_benchmark_instance_matches_dense(z3_instance, seed):
    _assert_same_trials(_reseeded(z3_instance, seed), 16)


@pytest.mark.parametrize("seed", [1, 2])
def test_s3_2x1_matches_dense(s3_instance, seed):
    assert [p.rank for p in s3_instance.projectors] == [8, 8, 8]
    _assert_same_trials(_reseeded(s3_instance, seed), 250)


def test_z2_invariants_match_dense_monitor():
    # the oracle runs its dense block monitor on every measurement
    prepared = _prepared("Z2", 2, 2, 4.0, 7, 7, "auto", check=True)
    _assert_same_trials(prepared, 200)


def test_failed_trial_readout_matches_dense():
    prepared = _prepared("Z2", 2, 2, 8.0, 300, 2, 1)
    failed = _assert_same_trials(prepared, 400)
    assert failed > 100


def test_rank_drop_raises_before_trials(z2, lat22, monkeypatch):
    _, _, tensor = z2
    build = gp.protocol.ground_projectors

    def dropping(*args, **kwargs):
        for projector in build(*args, **kwargs):
            if projector.step == 2:
                projector = projector_from_columns(projector.basis[:, :1], step=2)
            yield projector

    monkeypatch.setattr(gp.protocol, "ground_projectors", dropping)
    defs = tuple(gp.random_deformation(tensor, 2.0, seed=40 + v, site=v) for v in range(4))
    config = gp.ProtocolConfig(lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.1)
    with pytest.raises(BoundViolation, match="rank falls from 4 to 1"):
        prepare_protocol(config)
