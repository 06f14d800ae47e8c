"""Acceptance criteria for the whole artifact.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them live).  Expected values come from independent oracles computed
here: permutation/stabilizer brute force, scipy principal angles, binomial
Monte Carlo statistics.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

import gpeps as gp
from gpeps.groups import trace_identity_deviation
from gpeps.lattice import BoundaryTwist, decompress_state, projector_from_columns
from gpeps.protocol import (
    curve_from_spectrum,
    empirical_step_failures,
    estimate_repetitions,
    prepare_protocol,
    run_protocol,
)

from conftest import stack_columns


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


GROUPS_AND_SEMI = [
    ("Z2", {"chi0": 2, "chi1": 1}),
    ("Z3", {"chi0": 2, "chi1": 1, "chi2": 1}),
    ("Z4", {"chi0": 2, "chi1": 1, "chi2": 1, "chi3": 1}),
    ("S3", {"A1": 1, "A2": 1, "E": 1}),
    ("D4", {"A1": 1, "A2": 1, "B1": 1, "B2": 1, "E": 1}),
]


def test_criterion_1_delta_trace_identity():
    with criterion(1, "re-weighting trace identity for all built-in groups"):
        for name, semi in GROUPS_AND_SEMI:
            group = gp.build_group(name)
            for rep in [gp.regular_rep(group), gp.semi_regular_rep(group, semi)]:
                dev = trace_identity_deviation(gp.delta_map(rep))
                assert dev <= 1e-10, (name, rep.multiplicities(), dev)


def test_criterion_2_trivial_group_reduction(lat22):
    with criterion(2, "trivial group reduces to the entangled-pair product"):
        rep = gp.semi_regular_rep(gp.build_group("trivial"), {"trivial": 2})
        tensor = gp.build_site_tensor(rep)
        state = gp.contract_isometric_state(lat22, tensor)
        ambient = decompress_state(state, tensor)
        bond_dim = 2
        n_legs = 4 * lat22.n_vertices
        amp = np.zeros((bond_dim,) * n_legs, dtype=complex)
        for values in itertools.product(range(bond_dim), repeat=len(lat22.edges)):
            idx = [0] * n_legs
            for e, val in zip(lat22.edges, values):
                idx[4 * e.plain_site + e.plain_leg] = val
                idx[4 * e.conj_site + e.conj_leg] = val
            amp[tuple(idx)] = 1.0
        oracle = amp.reshape(-1)
        oracle /= np.linalg.norm(oracle)
        fidelity = abs(np.vdot(oracle, ambient)) ** 2
        assert fidelity >= 1.0 - 1e-10, fidelity


def _toric_code_degeneracy_2x2() -> int:
    """Brute-force stabilizer oracle: 8 edge qubits on the 2x2 torus."""
    w = h = 2
    h_edge = {(r, c): 2 * (r * w + c) for r in range(h) for c in range(w)}
    v_edge = {(r, c): 2 * (r * w + c) + 1 for r in range(h) for c in range(w)}
    n = 8
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)

    def pauli(op, qubits):
        mat = np.array([[1.0]], dtype=complex)
        for q in range(n):
            mat = np.kron(mat, op if q in qubits else np.eye(2))
        return mat

    ham = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(h):
        for c in range(w):
            star = [h_edge[(r, (c - 1) % w)], h_edge[(r, c)],
                    v_edge[((r - 1) % h, c)], v_edge[(r, c)]]
            ham -= pauli(x, star)
            plaq = [h_edge[(r, c)], h_edge[((r + 1) % h, c)],
                    v_edge[(r, c)], v_edge[(r, (c + 1) % w)]]
            ham -= pauli(z, plaq)
    evals = np.linalg.eigvalsh(ham)
    return int(np.count_nonzero(evals < evals[0] + 1e-8))


def test_criterion_3_toric_code_degeneracy(z2, lat22, z2_twisted):
    with criterion(3, "torus ground-space rank matches the quantum-double degeneracy"):
        _, _, tensor = z2
        ident = [gp.identity_deformation(tensor, site=v) for v in range(4)]
        proj = gp.ground_projector(lat22, z2_twisted, ident, 0)
        oracle = _toric_code_degeneracy_2x2()
        assert oracle == 4
        assert proj.rank == oracle, (proj.rank, oracle)


def _lemma2_instance(lattice, tensor, twisted, deformations, step):
    """d_min of (P_step, P_step+1) from our pipeline and from scipy."""
    def columns(t):
        cols = []
        for arr in twisted:
            for v in range(t):
                arr = gp.apply_site_operator(
                    gp.StateVector(lattice=lattice, site_dim=tensor.sym_dim, amplitudes=arr),
                    v, deformations[v].matrix,
                )
            cols.append(arr / np.linalg.norm(arr))
        return np.array(cols).T

    cols_t = columns(step)
    cols_next = columns(step + 1)
    spec = gp.jordan_decompose(
        projector_from_columns(cols_t, step=step),
        projector_from_columns(cols_next, step=step + 1),
    )
    angles = scipy.linalg.subspace_angles(cols_t, cols_next)
    return spec.d_min, float(np.cos(angles.max()) ** 2)


def test_criterion_4_overlap_bound(z2, z3, lat22, z2_twisted, z3_twisted):
    with criterion(4, "d_min >= kappa^-2 over 104 random deformation instances"):
        kappas = [1.0, 2.0, 4.0, 8.0]
        checked = 0
        for (group, rep, tensor), twisted, seeds, steps in [
            (z2, z2_twisted, range(22), 4),
            (z3, z3_twisted, range(4), 1),
        ]:
            for seed in seeds:
                for j, kappa in enumerate(kappas):
                    base = 10_000 * (seed + 1) + 100 * j
                    defs = [
                        gp.random_deformation(tensor, kappa, seed=base + v, site=v)
                        for v in range(4)
                    ]
                    step = seed % steps
                    d_min, d_min_oracle = _lemma2_instance(lat22, tensor, twisted, defs, step)
                    realized = defs[step].kappa_sym
                    assert abs(realized - kappa) <= 0.01 * kappa
                    assert abs(d_min - d_min_oracle) <= 1e-9, (d_min, d_min_oracle)
                    assert d_min_oracle >= realized**-2 - 1e-9, (
                        group.name, seed, kappa, d_min_oracle)
                    checked += 1
        assert checked >= 100, checked


@pytest.fixture(scope="module")
def lemma3_configs(z2, z3, lat22):
    """24 step-0 failure curves across groups, condition numbers, seeds."""
    configs = []
    for (group, rep, tensor), n_seeds in [(z2, 3), (z3, 3)]:
        pairs = group.commuting_pairs()
        twisted = {
            key: gp.contract_isometric_state(lat22, tensor, BoundaryTwist(*key))
            for key in pairs
        }
        cols0 = stack_columns(twisted.values())
        p0 = projector_from_columns(cols0)
        entering = twisted[(0, 0)]
        for kappa in [1.5, 2.0, 4.0, 8.0]:
            for seed in range(n_seeds):
                deformation = gp.random_deformation(
                    tensor, kappa, seed=7_000 + 17 * seed, site=0
                )
                cols1 = np.empty_like(cols0)
                for k, key in enumerate(pairs):
                    vec = gp.apply_site_operator(twisted[key], 0, deformation.matrix)
                    cols1[:, k] = vec / np.linalg.norm(vec)
                spectrum = gp.jordan_decompose(p0, projector_from_columns(cols1, step=1))
                curve = curve_from_spectrum(
                    spectrum, p0.coefficients(entering.amplitudes), m_max=100
                )
                configs.append((group.name, kappa, seed, curve))
    return configs


def test_criterion_5_failure_law(lemma3_configs, z2, lat22):
    with criterion(5, "closed-form failure law below its bound and matching Monte Carlo"):
        assert len(lemma3_configs) >= 20
        for name, kappa, seed, curve in lemma3_configs:
            assert np.all(curve.pfail <= curve.bound + 1e-12), (name, kappa, seed)
        # Monte Carlo cross-check on two configurations
        _, _, tensor = z2
        trials = 1000
        for seed in [0, 1]:
            defs = tuple(
                gp.random_deformation(tensor, 2.0, seed=9_000 + 31 * seed + v, site=v)
                for v in range(4)
            )
            prepared = prepare_protocol(
                gp.ProtocolConfig(
                    lattice=lat22, tensor=tensor, deformations=defs,
                    epsilon=0.1, m_policy=4, seed=500 + seed,
                )
            )
            initial = gp.contract_isometric_state(lat22, tensor)
            for step in [0, 1]:
                entering = gp.partial_peps_state(initial, defs, t=step)
                curve = curve_from_spectrum(
                    prepared.spectra[step], prepared.entering[step], m_max=4
                )
                for m in [1, 3]:
                    fails = empirical_step_failures(prepared, step, m, trials, entering)
                    p = curve.pfail[m - 1]
                    sigma = np.sqrt(max(p * (1.0 - p), 1e-9) / trials)
                    assert abs(fails / trials - p) <= 3 * sigma, (seed, step, m)
                    assert fails / trials <= curve.bound[m - 1] + 3 * sigma


@pytest.fixture(scope="module")
def theorem4_runs(z2, lat22):
    """Full-protocol Monte Carlo with the repetition rule, both epsilons."""
    _, _, tensor = z2
    defs = tuple(gp.random_deformation(tensor, 2.0, seed=600 + v, site=v) for v in range(4))
    results = {}
    for epsilon in [0.5, 0.1]:
        config = gp.ProtocolConfig(
            lattice=lat22, tensor=tensor, deformations=defs,
            epsilon=epsilon, m_policy="auto", seed=42,
        )
        prepared = prepare_protocol(config)
        traces = [run_protocol(prepared, trial=k) for k in range(1000)]
        results[epsilon] = (prepared, traces)
    return results


def test_criterion_6_repetition_rule(theorem4_runs):
    with criterion(6, "repetition rule reaches the target success probability"):
        for epsilon, (prepared, traces) in theorem4_runs.items():
            expected_m = estimate_repetitions(4, prepared.kappa_max, epsilon)
            assert prepared.m == expected_m
            frac = np.mean([t.success for t in traces])
            sigma = np.sqrt(epsilon * (1.0 - epsilon) / len(traces))
            assert frac >= 1.0 - epsilon - 3.0 * sigma, (epsilon, frac)


def test_criterion_7_regrouping_equivalence():
    with criterion(7, "regrouped tensor reproduces the regular construction"):
        cases = [
            ("Z2", None),
            ("Z3", None),
            ("S3", None),
            ("Z2", {"chi0": 2, "chi1": 1}),
        ]
        for name, mults in cases:
            group = gp.build_group(name)
            rep = gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)
            report = gp.verify_regroup_equivalence(rep)
            assert report.gram_deviation <= 1e-10, (name, mults)
            assert report.entry_check, (name, mults)


def test_criterion_8_final_state_correctness(theorem4_runs):
    # run_protocol itself enforces this on every simulate invocation; here we
    # re-check the recorded fidelities across all successful trials
    with criterion(8, "every successful run ends inside the target ground space"):
        total = 0
        for _, (prepared, traces) in theorem4_runs.items():
            for trace in traces:
                if trace.success:
                    assert trace.final_fidelity >= 1.0 - 1e-8
                    total += 1
        assert total > 0
