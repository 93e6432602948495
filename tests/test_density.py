"""Approximating a non-ergodic mixture by one ergodic measure.

Oracles:
  - the concatenated system alternating golden-mean blocks and free
    blocks of length n = 4 over M = 2 slots has exactly 5 * 8 = 40
    closed block cycles of length 8, so its entropy is log(40)/8
    (golden-mean walks of 3 edges from vertex 1: F(5) = 5 of them;
    free walks: 2^3),
  - a right-resolving presentation preserves entropy, so the labeled
    measure's entropy equals the Perron entropy of the unrolled graph
    and is bounded below by log(product of block counts) / period.
"""

import math

import numpy as np
import pytest

from cmshift import density, thermo
from cmshift.errors import ConnectorNotFound
from cmshift.families import full_shift, golden_mean
from cmshift.graphs import FiniteGraph

LOG2 = math.log(2)


def test_concatenated_entropy_closed_form():
    cs = density.concatenated_system(
        full_shift(2), [golden_mean(), full_shift(2)], n=4, M=2
    )
    want = math.log(40) / 8
    assert abs(thermo.gurevich_entropy(cs.graph).value - want) < 1e-9
    assert cs.block_counts == (5, 8)


def test_concatenated_measure_basics():
    cs = density.concatenated_system(
        full_shift(2), [golden_mean(), full_shift(2)], n=4, M=2
    )
    nu = density.concatenated_measure(cs)
    assert abs(nu.cylinder_mass((1,)) + nu.cylinder_mass((2,)) - 1.0) < 1e-9
    # shift consistency: mass of [a] equals the mass of its extensions
    for a in (1, 2):
        ext = nu.cylinder_mass((a, 1)) + nu.cylinder_mass((a, 2))
        assert abs(nu.cylinder_mass((a,)) - ext) < 1e-9
    # the free blocks allow the word 22, forbidden in the golden support
    assert nu.cylinder_mass((2, 2)) > 0.0
    assert abs(nu.entropy - math.log(40) / 8) < 1e-9
    assert nu.entropy >= cs.entropy_floor - 1e-12


def _dense_label_walk(nu, word):
    """The mass of [word] by a dense states x states product per symbol, each
    followed by a mask of the states carrying the next label."""
    labels = np.asarray(nu.labels)
    vec = nu.chain.pi * (labels == word[0])
    for sym in word[1:]:
        vec = (vec @ nu.chain.P) * (labels == sym)
    return float(vec.sum())


@pytest.mark.parametrize("n", [4, 9])
def test_cylinder_masses_match_the_dense_label_walk(n):
    # the sub-block walk sums the same nonnegative products in another order,
    # so the masses agree to a few ulps; a label no state carries has mass 0
    cs = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=n, M=4)
    nu = density.concatenated_measure(cs)
    words = [()]
    for _ in range(6):
        words = [w + (a,) for w in words for a in (1, 2)]
        for w in words:
            want = _dense_label_walk(nu, w)
            assert abs(nu.cylinder_mass(w) - want) <= 1e-14 * want
    assert nu.cylinder_mass((1, 3, 2)) == 0.0


def test_concatenated_entropy_floor():
    cs = density.concatenated_system(
        full_shift(2), [golden_mean(), full_shift(2)], n=4, M=2
    )
    assert abs(cs.entropy_floor - math.log(40) / 8) < 1e-12


def test_concatenated_measure_and_perron_root_make_no_eig_call(monkeypatch):
    # every cycle of the block system passes through the first slot start,
    # so the Perron data come from its first-return series
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    cs = density.concatenated_system(full_shift(2), [golden_mean(), full_shift(2)], n=32, M=4)
    nu = density.concatenated_measure(cs)
    root = thermo.perron_root(cs.graph)
    assert calls == []
    assert abs(nu.entropy - math.log(root)) < 1e-12
    # the entropy is the growth rate of the block-count products
    assert abs(nu.entropy - math.fsum(math.log(c) for c in cs.block_counts) / (4 * 32)) < 1e-12


def test_connector_not_found():
    chain = FiniteGraph(3, [(1, 2), (2, 3), (3, 3)])
    with pytest.raises(ConnectorNotFound):
        density.concatenated_system(chain, [chain], n=3, M=1)


def test_connector_inserted_when_needed():
    # block ends at vertex 3, which has no edge back to 1 but a path 3->2->1
    ambient = FiniteGraph(3, [(1, 2), (2, 3), (3, 2), (2, 1), (1, 1)])
    cs = density.concatenated_system(ambient, [ambient], n=3, M=1)
    nu = density.concatenated_measure(cs)
    assert nu.entropy > 0.0
    total = sum(nu.cylinder_mass((a,)) for a in (1, 2, 3))
    assert abs(total - 1.0) < 1e-9


def _label_pairs(cs):
    return {(cs.labels[i - 1], cs.labels[j - 1]) for i, j in cs.graph.edge_multiplicities()}


def test_every_edge_joins_labels_the_ambient_joins():
    # without an anchor self-loop a block ending at the anchor takes a
    # shortest cycle through it as its connector, not the label pair (1, 1)
    ambient = FiniteGraph(2, [(1, 2), (2, 1), (2, 2)])
    cs = density.concatenated_system(ambient, [ambient], n=3, M=1)
    assert cs.labels == (1, 2, 1, 2, 2)
    assert _label_pairs(cs) == {(1, 2), (2, 1), (2, 2)}
    assert cs.block_counts == (2,)
    # the connector is the whole cycle 1 -> 2 -> 3 -> 1
    longer = FiniteGraph(3, [(1, 2), (2, 3), (3, 1), (2, 2)])
    for ambient, supports in (
        (longer, [longer]),
        (full_shift(2), [golden_mean(), full_shift(2)]),
    ):
        for n in (2, 3, 5):
            cs = density.concatenated_system(ambient, supports, n=n, M=2)
            assert _label_pairs(cs) <= set(ambient.edge_multiplicities())


def test_shortest_path_has_at_least_one_edge():
    g = FiniteGraph(3, [(1, 2), (2, 3), (3, 1), (3, 3)])
    assert density._shortest_path(g, 1, 1) == (1, 2, 3, 1)
    assert density._shortest_path(g, 3, 3) == (3, 3)
    assert density._shortest_path(g, 2, 1) == (2, 3, 1)
    assert density._shortest_path(FiniteGraph(2, [(1, 2)]), 1, 1) is None
    assert density._shortest_path(FiniteGraph(2, [(1, 2)]), 2, 1) is None


def test_two_component_demo_small():
    rep = density.two_component_demo(n=16, M=4, depth=4)
    assert rep.rho < 0.1
    assert rep.gap < 0.1
    assert abs(rep.entropy_target - 0.5 * (math.log((1 + math.sqrt(5)) / 2) + LOG2)) < 1e-9
    assert rep.entropy_built > 0.4


def test_two_component_demo_gets_closer_with_depth():
    near = density.two_component_demo(n=32, M=4, depth=4)
    far = density.two_component_demo(n=8, M=4, depth=4)
    assert near.rho < far.rho
