"""Group tables, irreps, semi-regular representations, re-weighting map."""

import itertools

import numpy as np
import pytest

import gpeps as gp
from gpeps.errors import (
    IncompleteIrrepSet,
    InvalidRepresentation,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    ZeroMultiplicity,
)
from gpeps.groups import commutation_deviation, irreps, trace_identity_deviation

BUILTINS = ["trivial", "Z2", "Z3", "Z4", "S3", "D4"]


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_table_axioms_exact(name):
    g = gp.build_group(name)
    n = g.order
    assert g.identity == 0
    for a, b, c in itertools.product(range(n), repeat=3):
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
    for a in range(n):
        assert g.multiply(0, a) == a == g.multiply(a, 0)
        assert g.multiply(a, g.inv(a)) == 0
        assert g.multiply(g.inv(a), a) == 0


def test_z2_structure_forced():
    g = gp.build_group("Z2")
    assert g.order == 2
    assert g.multiply(1, 1) == 0
    assert g.inv(1) == 1


def test_trivial_group():
    g = gp.build_group("Z1")
    assert g.order == 1
    assert gp.build_group("trivial").order == 1
    assert irreps(g)[0].dim == 1


def test_s3_matches_permutation_composition_oracle():
    # independent oracle: the symmetric-group table from permutation composition
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    oracle = np.array(
        [
            [index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms
        ]
    )
    g = gp.build_group("S3")
    assert g.order == 6
    assert np.array_equal(g.mult, oracle)
    # brute-force scan: non-abelian
    noncommuting = [
        (a, b) for a in range(6) for b in range(6)
        if oracle[a, b] != oracle[b, a]
    ]
    assert noncommuting
    assert not g.is_abelian


def test_d4_not_abelian():
    g = gp.build_group("D4")
    assert g.order == 8
    assert not g.is_abelian
    # r * s != s * r  (elements 1 = r, 4 = s)
    assert g.multiply(1, 4) != g.multiply(4, 1)


def test_nonassociative_table_rejected():
    mult = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(NonAssociative):
        gp.build_group({"name": "bad", "mult_table": mult})


def test_missing_identity_rejected():
    with pytest.raises(MissingIdentity):
        gp.build_group({"name": "bad", "mult_table": [[0, 0], [0, 0]]})


def test_missing_inverse_rejected():
    # min(a, b) is an associative monoid with identity 1 but no inverse for 0
    with pytest.raises(MissingInverse):
        gp.build_group({"name": "bad", "mult_table": [[0, 0], [0, 1]]})


def test_closure_violation_rejected():
    with pytest.raises(ValueError):
        gp.build_group({"name": "bad", "mult_table": [[0, 5], [1, 0]]})


def test_z2_irreps_are_characters():
    g = gp.build_group("Z2")
    irs = irreps(g)
    chars = {ir.label: ir.characters.real.round(12).tolist() for ir in irs}
    assert chars == {"chi0": [1.0, 1.0], "chi1": [1.0, -1.0]}


@pytest.mark.parametrize("name", BUILTINS)
def test_irrep_completeness_and_orthogonality(name):
    g = gp.build_group(name)
    irs = irreps(g)
    assert sum(ir.dim**2 for ir in irs) == g.order
    # character orthogonality, computed directly from the returned matrices
    table = np.array([ir.characters for ir in irs])
    gram = table @ table.conj().T / g.order
    assert np.abs(gram - np.eye(len(irs))).max() < 1e-12


def test_s3_irrep_dims():
    irs = irreps(gp.build_group("S3"))
    assert sorted(ir.dim for ir in irs) == [1, 1, 2]


def test_incomplete_irrep_set_rejected():
    g = gp.build_group("Z2")
    only_trivial = [gp.Irrep("chi0", 1, np.ones((2, 1, 1), dtype=complex))]
    with pytest.raises(IncompleteIrrepSet):
        irreps(g, only_trivial)


def test_invalid_irrep_matrices_rejected():
    g = gp.build_group("Z2")
    bad_sign = gp.Irrep("chi1", 1, np.array([1.0, -0.5]).reshape(2, 1, 1).astype(complex))
    trivial = gp.Irrep("chi0", 1, np.ones((2, 1, 1), dtype=complex))
    with pytest.raises(InvalidRepresentation):
        irreps(g, [trivial, bad_sign])


def test_user_group_document_roundtrip():
    doc = {
        "name": "userZ2",
        "order": 2,
        "mult_table": [[0, 1], [1, 0]],
        "irreps": [
            {"label": "triv", "dim": 1, "matrices_re": [[[1.0]], [[1.0]]]},
            {"label": "sgn", "dim": 1, "matrices_re": [[[1.0]], [[-1.0]]]},
        ],
    }
    group, irs = gp.load_group_document(doc)
    assert group.order == 2
    rep = gp.semi_regular_rep(group, {"triv": 1, "sgn": 1}, irs)
    assert rep.is_regular
    assert trace_identity_deviation(gp.delta_map(rep)) < 1e-10


@pytest.mark.parametrize("name", BUILTINS)
def test_regular_rep_characters(name):
    g = gp.build_group(name)
    rep = gp.regular_rep(g)
    assert rep.total_dim == g.order
    chars = np.trace(rep.matrices, axis1=1, axis2=2)
    expected = np.zeros(g.order)
    expected[0] = g.order
    assert np.abs(chars - expected).max() < 1e-10
    assert rep.is_regular


def test_regular_rep_s3_block_structure():
    rep = gp.regular_rep(gp.build_group("S3"))
    assert rep.total_dim == 6
    assert [(ir.dim, r) for ir, r in rep.blocks] == [(1, 1), (1, 1), (2, 2)]


def test_semi_regular_dimension():
    g = gp.build_group("Z2")
    rep = gp.semi_regular_rep(g, {"trivial": 2, "sign": 1})
    assert rep.total_dim == 3
    assert not rep.is_regular


def test_user_document_without_table_rejected():
    with pytest.raises(ValueError, match="mult_table"):
        gp.build_group({"name": "x"})


def test_unknown_irrep_label_rejected():
    with pytest.raises(ValueError, match="unknown irrep label"):
        gp.semi_regular_rep(gp.build_group("Z2"), {"trivial": 1, "sign": 1, "nope": 1})


def test_zero_multiplicity_rejected():
    g = gp.build_group("Z2")
    with pytest.raises(ZeroMultiplicity):
        gp.semi_regular_rep(g, {"trivial": 2})  # sign irrep absent
    with pytest.raises(ZeroMultiplicity):
        gp.semi_regular_rep(g, {"trivial": 1, "sign": 0})


@pytest.mark.parametrize("name", BUILTINS)
def test_rep_homomorphism_and_unitarity(name):
    rep = gp.regular_rep(gp.build_group(name))
    mats = rep.matrices
    for a in range(rep.group.order):
        for b in range(rep.group.order):
            assert np.abs(mats[a] @ mats[b] - mats[rep.group.mult[a, b]]).max() < 1e-12
        assert np.abs(mats[a].conj().T @ mats[a] - np.eye(rep.total_dim)).max() < 1e-12


def test_delta_regular_is_identity():
    for name in BUILTINS:
        dm = gp.delta_map(gp.regular_rep(gp.build_group(name)))
        assert dm.is_identity
        assert np.abs(dm.weights - 1.0).max() < 1e-12


def test_delta_semi_regular_weights_frozen():
    # blocks ordered (dim, label): chi0 (r=2) then chi1 (r=1)
    rep = gp.semi_regular_rep(gp.build_group("Z2"), {"trivial": 2, "sign": 1})
    dm = gp.delta_map(rep)
    expected = np.array([0.5**0.25, 0.5**0.25, 1.0])
    assert np.abs(dm.weights - expected).max() < 1e-15
    assert not dm.is_identity


SEMI_EXAMPLES = [
    ("Z2", {"trivial": 2, "sign": 1}),
    ("Z3", {"chi0": 2, "chi1": 1, "chi2": 1}),
    ("Z4", {"chi0": 1, "chi1": 3, "chi2": 1, "chi3": 2}),
    ("S3", {"A1": 1, "A2": 1, "E": 1}),
    ("D4", {"A1": 1, "A2": 1, "B1": 1, "B2": 1, "E": 1}),
]


@pytest.mark.parametrize("name,mults", SEMI_EXAMPLES)
def test_delta_trace_identity_semi_regular(name, mults):
    rep = gp.semi_regular_rep(gp.build_group(name), mults)
    dm = gp.delta_map(rep)
    assert trace_identity_deviation(dm) < 1e-10
    assert commutation_deviation(dm) < 1e-12
