"""Symmetry group of N equiangular coplanar Bloch lines and its action.

The lines n_k = (cos (k-1)pi/N, sin (k-1)pi/N, 0) form a 2N-gon with opposite
vertices identified; their symmetry group has order 2N and is dihedral for
N > 2 (rotations c^r by r*pi/N plus reflections; the reflection about angle
k*pi/2N is c^k followed by the x-axis reflection). For N = 2 the lines are
orthogonal and only the rotations act faithfully, so reflections are excluded.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class _SymmetryElementFields(NamedTuple):
    rotation_steps: int
    reflection: bool


class SymmetryElement(_SymmetryElementFields):
    """Group element c^r * s^f with c a rotation by pi/N and s the x-axis flip."""

    __slots__ = ()

    def __new__(cls, rotation_steps: int, reflection: bool):
        if rotation_steps < 0:
            raise ValueError("rotation_steps must be non-negative (reduce mod N)")
        return super().__new__(cls, rotation_steps, reflection)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks as well
        return cls(*iterable)


IDENTITY = SymmetryElement(0, False)


def group_elements(N: int) -> list:
    """All 2N elements for N > 2; for N <= 2 the N rotations only."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= 2:
        # N=2: the x/y line pair; everything beyond the quarter-turn acts
        # trivially on the lines, so reflections are excluded
        return [SymmetryElement(r, False) for r in range(N)]
    return [SymmetryElement(r, f) for f in (False, True) for r in range(N)]


def compose(g: SymmetryElement, h: SymmetryElement, N: int) -> SymmetryElement:
    """g after h (h applied first), via s c^a = c^(-a) s."""
    if g.reflection:
        r = (g.rotation_steps - h.rotation_steps) % N
    else:
        r = (g.rotation_steps + h.rotation_steps) % N
    return SymmetryElement(r, g.reflection != h.reflection)


def inverse(g: SymmetryElement, N: int) -> SymmetryElement:
    if g.reflection:
        return g
    return SymmetryElement((-g.rotation_steps) % N, False)


def rotation_matrix(g: SymmetryElement, N: int) -> np.ndarray:
    """The orthogonal 3x3 matrix acting in the xy-plane."""
    theta = g.rotation_steps * np.pi / N
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if g.reflection:
        F = np.diag([1.0, -1.0, 1.0])  # reflection about the x axis
        R = R @ F
    return R


def act_on_index(g: SymmetryElement, k: int, N: int) -> tuple:
    """Image line index (1-based) and whether the +1 ray flips to the lower half.

    Line k sits at angle (k-1)pi/N; the group permutes the N lines. The flip
    flag is set when the transformed +1 Bloch vector lands outside the upper
    half-plane convention (angle in [0, pi)).
    """
    if not 1 <= k <= N:
        raise IndexError("index out of range")
    m = k - 1
    if g.reflection:
        m = -m
    m += g.rotation_steps
    m_mod = m % (2 * N)
    flip = m_mod >= N
    return (m_mod % N) + 1, flip


def act_on_indices(g: SymmetryElement, subset: Sequence[int], N: int) -> tuple:
    """Image subset (sorted) and per-index flip flags aligned with the input order."""
    images = []
    flips = []
    for k in subset:
        j, f = act_on_index(g, k, N)
        images.append(j)
        flips.append(f)
    return tuple(sorted(images)), tuple(flips)
