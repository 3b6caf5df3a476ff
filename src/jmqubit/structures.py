"""Joint-measurability structures: downward-closed hypergraphs of compatible
subsets, stored by their maximal compatible sets, plus canonical forms for
small vertex counts and one representative of every isomorphism class on up
to five vertices. Two structures are isomorphic exactly when their
`canonicalize` forms are equal."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .criteria import COMPATIBLE, IFF, INCOMPATIBLE, UNKNOWN, Verdict

ISO_CAP = 8  # canonicalization iterates over all vertex permutations


def _maximal_only(sets: Iterable[frozenset]) -> frozenset:
    """The sets in no other set of the family. Visited largest first, a set
    is maximal unless it lies in a maximal set already found."""
    maximal: list = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(s < m for m in maximal):
            maximal.append(s)
    return frozenset(maximal)


# verdicts of the containment test behind JmStructure.minimal_non_faces
_FACE = Verdict(COMPATIBLE, IFF, 0.0, "containment")
_NON_FACE = Verdict(INCOMPATIBLE, IFF, 0.0, "containment")


@dataclass(frozen=True)
class JmStructure:
    """Vertices 1..n; compatibility of any subset decided by containment in a
    maximal compatible set. Always downward closed; singletons always in."""

    n_vertices: int
    maximal: frozenset = field(default_factory=frozenset)
    undecided: frozenset = field(default_factory=frozenset)
    # (subset, Verdict) of each minimal incompatible set, when structure_of
    # built the structure; evidence, not part of the structure's identity
    incompatible: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def from_sets(cls, n: int, compatible_sets) -> "JmStructure":
        sets = {frozenset(s) for s in compatible_sets}
        sets |= {frozenset([v]) for v in range(1, n + 1)}
        for s in sets:
            if not s or not all(1 <= v <= n for v in s):
                raise ValueError("subset out of vertex range")
        return cls(n, _maximal_only(sets))

    @property
    def is_partial(self) -> bool:
        return bool(self.undecided)

    def is_compatible(self, subset) -> bool:
        s = frozenset(subset)
        return any(s <= m for m in self.maximal)

    def minimal_non_faces(self) -> tuple:
        """The minimal subsets contained in no maximal set (the negative
        border), as sorted 1-based tuples in the order structure_of visits
        them."""
        # bit i of masks[v] is set when vertex v lies in the i-th maximal set
        masks = [0] * (self.n_vertices + 1)
        for i, m in enumerate(self.maximal):
            for v in m:
                masks[v] |= 1 << i

        def contained(c) -> Verdict:
            common = masks[c[0]]
            for v in c[1:]:
                common &= masks[v]
            return _FACE if common else _NON_FACE

        walk = structure_of(range(self.n_vertices), contained)
        return tuple(c for c, _ in walk.incompatible)

    def sorted_maximal(self) -> list:
        return sorted((sorted(m) for m in self.maximal), key=lambda s: (len(s), s))

    def to_json_dict(self) -> dict:
        return {"n": self.n_vertices, "maximal": self.sorted_maximal()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "JmStructure":
        """ValueError on an n or a vertex that is not an int."""
        n = d["n"]
        if type(n) is not int:
            raise ValueError(f"structure n must be a JSON integer, got {n!r}")
        sets = [frozenset(s) for s in d["maximal"]]
        for s in sets:
            if not all(type(v) is int for v in s):
                raise ValueError(f"maximal set {sorted(s, key=repr)} holds a non-integer vertex")
        return cls.from_sets(n, sets)


def n_cycle(N: int) -> JmStructure:
    """Compatibility exactly between cyclically adjacent pairs."""
    if N < 3:
        raise ValueError("cycle needs N >= 3")
    pairs = [frozenset({k, k % N + 1}) for k in range(1, N + 1)]
    return JmStructure.from_sets(N, pairs)


def nm_compatible(N: int, M: int) -> JmStructure:
    """Every M-element subset compatible, nothing larger."""
    if not 1 <= M <= N:
        raise ValueError("need 1 <= M <= N")
    return JmStructure.from_sets(
        N, map(frozenset, itertools.combinations(range(1, N + 1), M))
    )


def n_specker(N: int) -> JmStructure:
    """Every (N-1)-subset compatible, full set incompatible."""
    if N < 2:
        raise ValueError("Specker scenario needs N >= 2")
    return nm_compatible(N, N - 1)


def canonicalize(s: JmStructure) -> tuple:
    """Lexicographically minimal maximal-set family, sorted by (size, set), over vertex permutations."""
    n = s.n_vertices
    if n > ISO_CAP:
        raise ValueError(f"canonicalization capped at {ISO_CAP} vertices")
    return tuple(min(
        sorted((tuple(sorted(perm[v - 1] for v in m)) for m in s.maximal), key=lambda t: (len(t), t))
        for perm in itertools.permutations(range(1, n + 1))
    ))


def enumerate_structures(n: int) -> list:
    """One representative JmStructure per isomorphism class on n <= 5
    vertices, in canonicalize order. Labelled structures, bitmasks over the
    subsets of size >= 2 by size then lexicographically, grow one subset at a
    time by structure_of's rule: an r-set joins only when all its
    (r-1)-subsets are in. Visited in increasing order, a structure is kept
    unless it relabels one kept, so each class keeps its smallest bitmask."""
    if n > 5:
        raise ValueError("exhaustive enumeration capped at n <= 5")
    vertices = range(1, n + 1)
    bigs = [frozenset(c) for r in range(2, n + 1) for c in itertools.combinations(vertices, r)]
    bit = {s: 1 << i for i, s in enumerate(bigs)}
    families = [0]
    for s in bigs:
        families += [f | bit[s] for f in families if len(s) == 2 or all(f & bit[s - {v}] for v in s)]
    met, reps = set(), []
    for f in sorted(families):
        if f not in met:
            members = [s for s in bigs if f & bit[s]]
            perms = itertools.permutations(vertices)
            met.update(sum(bit[frozenset(p[v - 1] for v in s)] for s in members) for p in perms)
            reps.append(JmStructure.from_sets(n, members))
    return sorted(reps, key=canonicalize)


def structure_of(povms, decider: Callable) -> JmStructure:
    """Compute the structure of a POVM list with a subset decider.

    decider(subset_indices_1based) returns a Verdict. The walk is level-wise
    (Apriori): a (k+1)-set is visited only when all its k-subsets were
    visited and not decided incompatible, so supersets of an incompatible set
    never reach the decider and the incompatible verdicts are those of the
    minimal incompatible sets, kept in visiting order as ``incompatible``.
    Unknown answers make the result partial (undecided subsets listed,
    treated as not compatible for maximality).

    The walk marks the sets that lie in a larger compatible set as covered:
    each compatible set covers its subsets one smaller, and an undecided set,
    once covered, is compatible by closure and covers its own in turn. The
    maximal sets are the compatible sets (singletons included) that nothing
    covered, and the undecided sets listed are those nothing covered.

    Candidates come from the level below: each visited set s that is not
    incompatible records succ[s], the vertices k > max(s) whose extension
    s + (k,) was visited and not decided incompatible. A set c of the next
    level is extended by the k > max(c) in succ[c - e] for every e in c
    (succ of the empty set holds every vertex), in increasing k: exactly the
    k whose one-smaller subsets of c + (k,) all survived.

    The decider sees sorted tuples; the walk's own bookkeeping is on int
    bitmasks, vertex k being bit k - 1.
    """
    n = len(povms)
    bit = [0] + [1 << (k - 1) for k in range(1, n + 1)]
    level = [((k,), bit[k]) for k in range(1, n + 1)]  # visited, not incompatible; sorted
    succ = {0: (1 << n) - 1}  # mask -> bitmask of its surviving extensions
    compatible = list(level)
    incompatible = []
    undecided: dict = {}  # mask -> tuple
    covered: set = set()

    def cover(m: int) -> None:
        """Mark the subsets of m one smaller covered; an undecided one newly
        covered covers its own in turn."""
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            s = m ^ low
            if s not in covered:
                covered.add(s)
                if s in undecided:
                    cover(s)

    while level:
        previous, level = level, []
        for s, sm in previous:
            candidates = succ[0] >> s[-1] << s[-1]  # the k > max(s)
            for e in s:
                candidates &= succ[sm ^ bit[e]]
            survivors = 0
            while candidates:
                bk = candidates & -candidates
                candidates ^= bk
                c, m = s + (bk.bit_length(),), sm | bk
                v = decider(c)
                if v.decision == INCOMPATIBLE:
                    incompatible.append((c, v))
                    continue
                if v.decision == COMPATIBLE:
                    compatible.append((c, m))
                    cover(m)
                elif v.decision == UNKNOWN:
                    undecided[m] = c
                else:
                    raise ValueError(f"decider returned {v!r}")
                survivors |= bk
                level.append((c, m))
            succ[sm] = survivors
    maximal = frozenset(frozenset(c) for c, m in compatible if m not in covered)
    undecided = frozenset(frozenset(u) for m, u in undecided.items() if m not in covered)
    return JmStructure(n, maximal, undecided, tuple(incompatible))
