import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jmqubit import (
    COMPATIBLE,
    INCOMPATIBLE,
    IFF,
    UNKNOWN,
    JmStructure,
    Verdict,
    canonicalize,
    enumerate_structures,
    n_cycle,
    n_specker,
    nm_compatible,
    structure_of,
)
from jmqubit.structures import _maximal_only


def stub(decision):
    return Verdict(decision, IFF, 0.0, "stub")


def test_from_sets_keeps_maximal_only():
    s = JmStructure.from_sets(3, [{1, 2}, {1, 2, 3}])
    assert s.maximal == frozenset({frozenset({1, 2, 3})})
    assert s.is_compatible({1, 2})
    assert s.is_compatible({3})
    assert not s.is_partial


def test_from_sets_rejects_bad_vertices():
    with pytest.raises(ValueError):
        JmStructure.from_sets(3, [{0, 1}])
    with pytest.raises(ValueError):
        JmStructure.from_sets(3, [{3, 4}])


def test_named_structures():
    c = n_cycle(4)
    assert c.is_compatible({1, 2}) and c.is_compatible({1, 4})
    assert not c.is_compatible({1, 3})
    sp = n_specker(3)
    assert sp.is_compatible({1, 2}) and not sp.is_compatible({1, 2, 3})
    with pytest.raises(ValueError):
        n_cycle(2)


def test_canonicalize_invariant_under_relabeling():
    s = JmStructure.from_sets(4, [{1, 2}, {2, 3}, {1, 2, 4}])
    # relabeled under the permutation 1<->4, 2<->3
    relabeled = JmStructure.from_sets(4, [{3, 4}, {2, 3}, {1, 3, 4}])
    assert canonicalize(s) == canonicalize(relabeled)


def test_is_isomorphic_distinguishes():
    path = JmStructure.from_sets(4, [{1, 2}, {2, 3}])
    disjoint = JmStructure.from_sets(4, [{1, 2}, {3, 4}])
    assert canonicalize(path) != canonicalize(disjoint)


def test_enumerate_small():
    assert len(enumerate_structures(2)) == 2  # edge or no edge
    assert len(enumerate_structures(3)) == 5
    assert len(enumerate_structures(4)) == 20


def _brute_force_structures(n):
    """Reference: every family of subsets of size >= 2 in increasing bitmask
    order, kept when downward closed; the first of each class represents it,
    and the classes come in canonical order."""
    bigs = [
        frozenset(c)
        for r in range(2, n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    ]
    reps = {}
    for bits in range(1 << len(bigs)):
        chosen = {bigs[i] for i in range(len(bigs)) if bits >> i & 1}
        if any(
            frozenset(sub) not in chosen
            for e in chosen
            for r in range(2, len(e))
            for sub in itertools.combinations(sorted(e), r)
        ):
            continue
        s = JmStructure.from_sets(n, chosen)
        reps.setdefault(canonicalize(s), s)
    return [reps[k] for k in sorted(reps)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerate_matches_brute_force(n):
    got, want = enumerate_structures(n), _brute_force_structures(n)
    assert [s.sorted_maximal() for s in got] == [s.sorted_maximal() for s in want]
    assert got == want


def test_enumerate_five_vertices():
    reps = enumerate_structures(5)
    forms = [canonicalize(s) for s in reps]
    assert len(reps) == 180
    assert len(set(forms)) == 180
    assert forms == sorted(forms)
    known = set(forms)
    rng = random.Random(5)
    for _ in range(200):
        assert canonicalize(_random_structure(5, rng)) in known


def test_enumerate_refuses_six_vertices():
    with pytest.raises(ValueError):
        enumerate_structures(6)


def test_structure_of_with_stub_decider():
    # compatible: all pairs, the triple {1,2,3}; everything else incompatible
    def decider(combo):
        s = frozenset(combo)
        if len(s) <= 2 or s == frozenset({1, 2, 3}):
            return stub(COMPATIBLE)
        return stub(INCOMPATIBLE)

    out = structure_of([None] * 4, decider)
    assert out.is_compatible({1, 2, 3})
    assert out.is_compatible({1, 4})
    assert not out.is_compatible({1, 2, 4})
    assert not out.is_partial


def test_structure_of_prunes_supersets():
    calls = []

    def decider(combo):
        calls.append(combo)
        return stub(INCOMPATIBLE if len(combo) >= 2 else COMPATIBLE)

    structure_of([None] * 4, decider)
    # once every pair is incompatible, no triple or quadruple is queried
    assert max(len(c) for c in calls) == 2


def test_structure_of_partial_and_closure():
    # the triple is Unknown but the quadruple is declared compatible first?
    # no: sizes go smallest-first, so stage an Unknown pair cleaned up by a
    # compatible triple
    def decider(combo):
        s = frozenset(combo)
        if s == frozenset({1, 2}):
            return stub(UNKNOWN)
        if len(s) <= 3:
            return stub(COMPATIBLE)
        return stub(INCOMPATIBLE)

    out = structure_of([None] * 4, decider)
    # {1,2} is inside the compatible {1,2,3}, so it is not undecided
    assert not out.is_partial
    assert out.is_compatible({1, 2})


def test_structure_of_covers_through_undecided_sets():
    # {1, 2} is compatible and both triples over it are Unknown, but the
    # quadruple is compatible: {1, 2} lies in it only through undecided sets,
    # so it is not maximal, and no Unknown set stays undecided
    def decider(combo):
        return stub(UNKNOWN if len(combo) == 3 and combo[:2] == (1, 2) else COMPATIBLE)

    out = structure_of([None] * 4, decider)
    assert out.maximal == frozenset({frozenset({1, 2, 3, 4})})
    assert not out.is_partial


def test_structure_of_keeps_genuine_unknown():
    def decider(combo):
        return stub(UNKNOWN if len(combo) == 3 else (
            COMPATIBLE if len(combo) <= 2 else INCOMPATIBLE
        ))

    out = structure_of([None] * 3, decider)
    assert out.is_partial
    assert frozenset({1, 2, 3}) in out.undecided


def _all_subsets_reference(n, decider):
    """The walk it replaced: every subset by size, skipping supersets of a
    subset decided incompatible."""
    compatible = {frozenset([k]) for k in range(1, n + 1)}
    incompatible, undecided, visited = [], set(), []
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            s = frozenset(combo)
            if any(bad <= s for bad, _ in incompatible):
                continue
            visited.append(combo)
            v = decider(combo)
            if v.decision == COMPATIBLE:
                compatible.add(s)
            elif v.decision == INCOMPATIBLE:
                incompatible.append((s, v))
            else:
                undecided.add(s)
    undecided = {u for u in undecided if not any(u <= c for c in compatible)}
    maximal = {s for s in compatible if not any(s < t for t in compatible)}
    return maximal, undecided, incompatible, visited


@given(
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2)),
)
def test_structure_of_matches_all_subsets_reference(n, seed, weights):
    rng = random.Random(seed)
    answers = {}

    def decider(combo):
        if combo not in answers:
            answers[combo] = stub(rng.choices([COMPATIBLE, INCOMPATIBLE, UNKNOWN], weights)[0])
        return answers[combo]

    maximal, undecided, incompatible, visited = _all_subsets_reference(n, decider)
    calls = []
    out = structure_of([None] * n, lambda combo: calls.append(combo) or decider(combo))
    assert out.maximal == maximal
    assert out.undecided == undecided
    assert [(frozenset(s), v) for s, v in out.incompatible] == incompatible
    assert calls == visited


def test_json_roundtrip():
    s = n_cycle(5)
    assert JmStructure.from_json_dict(s.to_json_dict()).maximal == s.maximal


@pytest.mark.parametrize("vertex", [float("nan"), 2.0, True, "2"])
def test_json_rejects_non_integer_vertices(vertex):
    with pytest.raises(ValueError):
        JmStructure.from_json_dict({"n": 3, "maximal": [[vertex, 3]]})


def test_from_sets_rejects_nan_vertex():
    with pytest.raises(ValueError):
        JmStructure.from_sets(3, [[1, float("nan")]])


def _brute_minimal_non_faces(s: JmStructure) -> set:
    """Every subset outside the structure whose one-smaller subsets are all in."""
    n = s.n_vertices
    return {
        frozenset(c)
        for r in range(2, n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
        if not s.is_compatible(c)
        and all(s.is_compatible(set(c) - {v}) for v in c)
    }


def _random_structure(n: int, rng: random.Random) -> JmStructure:
    sets = [
        rng.sample(range(1, n + 1), rng.randint(2, n))
        for _ in range(rng.randint(0, 2 * n))
    ]
    return JmStructure.from_sets(n, sets)


def _assert_border(s: JmStructure) -> tuple:
    border = s.minimal_non_faces()
    assert all(list(c) == sorted(c) for c in border)
    assert list(border) == sorted(border, key=lambda c: (len(c), c))  # the walk's order
    assert len(set(border)) == len(border)
    assert set(map(frozenset, border)) == _brute_minimal_non_faces(s)
    return border


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minimal_non_faces_of_all_small_structures(n):
    for s in enumerate_structures(n):
        _assert_border(s)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_minimal_non_faces_of_random_structures(n):
    rng = random.Random(n)
    for _ in range(40):
        _assert_border(_random_structure(n, rng))


def test_minimal_non_faces_of_named_families():
    for N in range(4, 10):
        adjacent = {frozenset({k, k % N + 1}) for k in range(1, N + 1)}
        assert set(map(frozenset, _assert_border(n_cycle(N)))) == {
            frozenset(p) for p in itertools.combinations(range(1, N + 1), 2)
        } - adjacent
    for N in (64, 256):  # past the brute force: the non-adjacent pairs in walk order
        non_adjacent = [p for p in itertools.combinations(range(1, N + 1), 2) if p[1] - p[0] not in (1, N - 1)]
        assert n_cycle(N).minimal_non_faces() == tuple(non_adjacent)
    assert _assert_border(n_cycle(3)) == ((1, 2, 3),)
    for N in range(2, 9):
        assert _assert_border(n_specker(N)) == (tuple(range(1, N + 1)),)
    assert _assert_border(nm_compatible(5, 3)) == tuple(
        itertools.combinations(range(1, 6), 4)
    )
    assert _assert_border(JmStructure.from_sets(4, [])) == tuple(
        itertools.combinations(range(1, 5), 2)
    )


@given(st.lists(st.frozensets(st.integers(1, 7)), max_size=40))
def test_maximal_only_matches_brute_force(sets):
    family = set(sets)
    expected = frozenset(s for s in family if not any(s < t for t in family))
    assert _maximal_only(sets) == expected
    assert _maximal_only(iter(sets)) == expected  # any iterable, read once
