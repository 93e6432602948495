"""Graph presentations, canonical enumeration, truncation, words, JSON I/O.

Frozen values are derived by hand from the definitions: the base vertex is 1,
loops are ordered by (length, explicit-before-tail, insertion order), and each
loop's interior vertices get consecutive ids.
"""

import json
import sys
import threading
import tracemalloc

import pytest

from cmshift import graphs
from cmshift.errors import CapacityError, SchemaError, ValidationError
from cmshift.families import full_shift, golden_mean, power_loops, renewal_shift

from properties import enumerate_words, graph_spec


def test_finite_graph_basics():
    g = golden_mean()
    assert g.symbols == 2
    assert g.is_edge(1, 1)
    assert g.is_edge(1, 2)
    assert g.is_edge(2, 1)
    assert not g.is_edge(2, 2)
    assert sorted(g.out_neighbors(1)) == [1, 2]
    assert sorted(g.out_neighbors(2)) == [1]


def test_finite_graph_rejects_bad_edges():
    with pytest.raises(ValidationError):
        graphs.FiniteGraph(2, [(1, 3)])
    with pytest.raises(ValidationError):
        graphs.FiniteGraph(0, [])


def test_finite_graph_symbol_cap_raises_before_allocating():
    def edges():
        # a constructor that reads its edges has passed the cap check
        raise AssertionError("edges read before the symbol cap")
        yield

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as direct:
            graphs.FiniteGraph(10**9, edges())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert direct.value.field == "finite.symbols"
    doc = {"kind": "finite", "finite": {"symbols": graphs.MAX_SYMBOLS + 1, "edges": [[1, 1]]}}
    with pytest.raises(CapacityError) as loaded:
        graphs.load_graph(doc)
    assert loaded.value.field == "finite.symbols"
    assert graphs.FiniteGraph(graphs.MAX_SYMBOLS, [(1, 1)]).symbols == graphs.MAX_SYMBOLS


def test_loop_multiplicities_renewal():
    g = renewal_shift()
    for length in (1, 2, 3, 10, 40):
        assert g.multiplicity(length) == 1


def test_loop_multiplicities_powers():
    g = power_loops()
    assert [g.multiplicity(n) for n in (1, 2, 3, 8)] == [2, 4, 8, 256]


def test_loop_multiplicities_explicit_plus_tail():
    tail = graphs.GeometricTail(from_length=2, coeff=1.0, growth=1.0)
    g = graphs.LoopSystem(loops=[(3, 1)], tail=tail)
    assert g.multiplicity(1) == 0
    assert g.multiplicity(2) == 1
    assert g.multiplicity(3) == 2  # one explicit + one from the tail
    assert g.multiplicity(4) == 1


def test_canonical_enumeration_renewal():
    # base 1; loop of length 2 -> id 2; length 3 -> ids 3,4; length 4 -> 5,6,7
    g = renewal_shift()
    enum = g.enumeration(11)
    assert enum.locate(2) == (2, 2, 2)
    assert enum.locate(3) == (3, 3, 4)
    assert enum.locate(4) == (3, 3, 4)
    assert enum.locate(5) == (4, 5, 7)
    assert enum.locate(7) == (4, 5, 7)
    assert enum.locate(8) == (5, 8, 11)
    assert enum.locate(11) == (5, 8, 11)


def test_canonical_enumeration_powers():
    # a_2 = 4 loops of length 2 -> ids 2..5; a_3 = 8 loops of length 3 -> 6..21
    g = power_loops()
    enum = g.enumeration(21)
    for i in (2, 3, 4, 5):
        assert enum.locate(i) == (2, i, i)
    assert enum.locate(6) == (3, 6, 7)
    assert enum.locate(7) == (3, 6, 7)
    assert enum.locate(21) == (3, 20, 21)
    # distinct loops of the same length are distinct records
    assert enum.locate(6) != enum.locate(8)


def test_canonical_enumeration_explicit_before_tail():
    tail = graphs.GeometricTail(from_length=2, coeff=1.0, growth=1.0)
    g = graphs.LoopSystem(loops=[(3, 1)], tail=tail)
    enum = g.enumeration(6)
    # length 2 (tail): id 2; length 3 explicit: ids 3,4; length 3 tail: ids 5,6
    assert enum.locate(2) == (2, 2, 2)
    assert enum.locate(3) == (3, 3, 4)
    assert enum.locate(5) == (3, 5, 6)


def test_loop_records_from_counts_match_the_enumeration():
    tail = graphs.GeometricTail(from_length=2, coeff=1.0, growth=1.0)
    for system in (renewal_shift(), power_loops(), graphs.LoopSystem([(3, 1)], tail)):
        enum = system.enumeration(200)
        for record in enum.rows[:40]:
            length, first, _ = record
            ordinal = sum(1 for r in enum.rows if r[0] == length and r[1] < first)
            assert graphs.loop_record(system, length, ordinal) == record


def test_threads_sharing_a_system_see_whole_enumerations():
    # the enumeration is shared and extended by doubling; each reader gets
    # one that covers its ids, whole and in canonical order
    system = power_loops()
    ref = graphs.Enumeration(power_loops(), 8000)
    bad = []

    def work(seed):
        for k in range(40):
            n = 2 + (seed * 97 + k * 131) % 3000
            enum = system.enumeration(n)
            if enum.next_free_id <= n or enum.rows != ref.rows[: len(enum.rows)]:
                bad.append(n)
            if enum.locate(n) != ref.locate(n):
                bad.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_truncation_renewal():
    g = renewal_shift()
    t = g.truncate(4)
    assert t.vertex_count == 4
    expected = {(1, 1), (1, 2), (2, 1), (1, 3), (3, 4), (4, 1)}
    assert t.edge_multiplicities() == {e: 1 for e in expected}


def test_truncation_powers_has_parallel_base_loops():
    g = power_loops()
    t = g.truncate(3)
    # two self-loops at the base plus two materialized 2-loops
    assert t.edge_multiplicities()[(1, 1)] == 2
    assert t.edge_multiplicities()[(1, 2)] == 1
    assert t.edge_multiplicities()[(2, 1)] == 1


def test_truncation_finite_graph():
    g = full_shift(3)
    t = g.truncate(2)
    assert t.vertex_count == 2
    assert set(t.edge_multiplicities()) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_enumerate_words_golden_mean():
    g = golden_mean()
    words = enumerate_words(g, 3, start=1, end=1)
    assert sorted(words) == [(1, 1, 1), (1, 2, 1)]
    words = enumerate_words(g, 4)
    # all admissible 4-words avoid the factor 22
    assert all("22" not in "".join(map(str, w)) for w in words)
    assert len(words) == 8  # F(6) = 8 words of length 4


def test_enumerate_words_capacity():
    g = full_shift(2)
    with pytest.raises(CapacityError):
        enumerate_words(g, 12, cap=100)


def test_enumerate_words_rejects_parallel_edges():
    t = power_loops().truncate(3)
    with pytest.raises(ValidationError):
        enumerate_words(t.as_graph(), 2)


def test_load_graph_finite():
    doc = {"kind": "finite", "finite": {"symbols": 2, "edges": [[1, 1], [1, 2], [2, 1]]}}
    g = graphs.load_graph(doc)
    assert isinstance(g, graphs.FiniteGraph)
    assert g.symbols == 2
    assert graph_spec(g) == doc


def test_load_graph_loop_system():
    doc = {
        "kind": "loop_system",
        "loop_system": {
            "loops": [{"length": 2, "multiplicity": 3}],
            "tail": {"from_length": 4, "coeff": 1.0, "growth": 2.0},
        },
    }
    g = graphs.load_graph(doc)
    assert isinstance(g, graphs.LoopSystem)
    assert g.multiplicity(2) == 3
    assert g.multiplicity(3) == 0
    assert g.multiplicity(5) == 32
    assert graph_spec(g) == doc


def test_load_graph_round_trip_renewal():
    doc = {
        "kind": "loop_system",
        "loop_system": {"loops": [], "tail": {"from_length": 1, "coeff": 1.0, "growth": 1.0}},
    }
    g = graphs.load_graph(doc)
    assert g.multiplicity(1) == 1
    assert g.multiplicity(17) == 1


# (document, field at fault, whether the constructors raise it too: the
# others are JSON shapes and the rules of documents alone)
_REJECTIONS = [
    ({"kind": "circle"}, "kind", False),
    ({"kind": "finite"}, "finite", False),
    ({"kind": "finite", "finite": {"symbols": 2}}, "finite.edges", False),
    ({"kind": "finite", "finite": {"symbols": 0, "edges": []}}, "finite.symbols", True),
    (
        {"kind": "finite", "finite": {"symbols": 2, "edges": [[1, 2], [3, 1]]}},
        "finite.edges[1]",
        True,
    ),
    (
        {"kind": "finite", "finite": {"symbols": 2, "edges": [[1, 2], [1, 2]]}},
        "finite.edges[1]",
        False,
    ),
    (
        {
            "kind": "loop_system",
            "loop_system": {"loops": [{"length": 2, "multiplicity": -1}], "tail": None},
        },
        "loop_system.loops[0].multiplicity",
        True,
    ),
    (
        {
            "kind": "loop_system",
            "loop_system": {"loops": [], "tail": {"from_length": 1, "coeff": 1.0, "growth": 0.5}},
        },
        "loop_system.tail.growth",
        True,
    ),
    ({"kind": "loop_system", "loop_system": {"loops": [], "tail": None}}, "loop_system.loops", True),
]


def _construct(doc):
    """The graph a well-shaped document describes, from the constructors alone."""
    if doc["kind"] == "finite":
        body = doc["finite"]
        return graphs.FiniteGraph(body["symbols"], [tuple(e) for e in body["edges"]])
    body = doc["loop_system"]
    tail = body["tail"] and graphs.GeometricTail(**body["tail"])
    return graphs.LoopSystem([(l["length"], l["multiplicity"]) for l in body["loops"]], tail)


@pytest.mark.parametrize(
    "doc,field,constructed",
    _REJECTIONS,
    ids=[f"doc{k}-{field}" for k, (_, field, _) in enumerate(_REJECTIONS)],
)
def test_load_graph_rejections(doc, field, constructed):
    with pytest.raises((SchemaError, ValidationError)) as exc:
        graphs.load_graph(doc)
    assert exc.value.field == field
    if constructed:
        with pytest.raises(ValidationError) as direct:
            _construct(doc)
        assert direct.value.field == field


@pytest.mark.parametrize("key", ["coeff", "growth"])
def test_tail_parameters_past_the_float_range_are_rejected(key):
    doc = _loop_doc(tail={key: 10**400})
    with pytest.raises(ValidationError) as loaded:
        graphs.load_graph(json.loads(json.dumps(doc)))
    assert loaded.value.field == f"loop_system.tail.{key}"
    with pytest.raises(ValidationError) as direct:
        graphs.GeometricTail(**doc["loop_system"]["tail"])
    assert direct.value.field == f"loop_system.tail.{key}"


def test_canonical_cylinders_need_depth_one():
    with pytest.raises(ValidationError) as exc:
        graphs.canonical_cylinders(golden_mean(), depth=0)
    assert exc.value.field == "depth"


def test_load_graph_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "finite", "finite": {"symbols": 1, "edges": [[1, 1]]}}))
    g = graphs.load_graph_file(path)
    assert g.symbols == 1


def test_canonical_cylinders_full_shift():
    g = full_shift(2)
    cyls = graphs.canonical_cylinders(g, depth=2)
    assert cyls == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_canonical_cylinders_golden_mean():
    g = golden_mean()
    cyls = graphs.canonical_cylinders(g, depth=2)
    assert cyls == [(1,), (2,), (1, 1), (1, 2), (2, 1)]


def test_canonical_cylinders_loop_system_cap():
    g = renewal_shift()
    cyls = graphs.canonical_cylinders(g, depth=2, symbol_cap=3)
    assert (1,) in cyls and (3,) in cyls and (4,) not in cyls
    assert (1, 1) in cyls and (1, 2) in cyls and (2, 2) not in cyls
    # (3,4) is an interior edge of the length-3 loop but 4 > cap
    assert (3, 4) not in cyls


def _loop_doc(loop=None, tail=None):
    item = {"length": 2, "multiplicity": 1, **(loop or {})}
    tail_doc = {"from_length": 3, "coeff": 1.0, "growth": 2, **(tail or {})}
    return {"kind": "loop_system", "loop_system": {"loops": [item], "tail": tail_doc}}


@pytest.mark.parametrize(
    "doc, field",
    [
        (_loop_doc(loop={"length": True}), "loop_system.loops[0].length"),
        (_loop_doc(loop={"multiplicity": True}), "loop_system.loops[0].multiplicity"),
        (_loop_doc(tail={"from_length": True}), "loop_system.tail.from_length"),
        (_loop_doc(tail={"coeff": True}), "loop_system.tail.coeff"),
        (_loop_doc(tail={"growth": True}), "loop_system.tail.growth"),
        ({"kind": "finite", "finite": {"symbols": True, "edges": [[1, 1]]}}, "finite.symbols"),
    ],
)
def test_load_graph_rejects_booleans(doc, field):
    with pytest.raises(SchemaError) as exc:
        graphs.load_graph(doc)
    assert exc.value.field == field

