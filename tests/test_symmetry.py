import numpy as np
import pytest

from jmqubit import (
    IDENTITY,
    SymmetryElement,
    act_on_index,
    act_on_indices,
    compose,
    group_elements,
    inverse,
    rotation_matrix,
)


def line_direction(k, N):
    theta = (k - 1) * np.pi / N
    return np.array([np.cos(theta), np.sin(theta), 0.0])


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_group_axioms(N):
    G = group_elements(N)
    assert len(G) == 2 * N
    for g in G:
        assert compose(g, IDENTITY, N) == g
        assert compose(IDENTITY, g, N) == g
        assert compose(g, inverse(g, N), N) == IDENTITY
        for h in G:
            assert compose(g, h, N) in G
            for f in G:
                left = compose(compose(g, h, N), f, N)
                right = compose(g, compose(h, f, N), N)
                assert left == right


def test_small_n_rotations_only():
    assert group_elements(1) == [IDENTITY]
    assert group_elements(2) == [IDENTITY, SymmetryElement(1, False)]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_compose_matches_matrix_product(N):
    G = group_elements(N)
    for g in G:
        for h in G:
            lhs = rotation_matrix(compose(g, h, N), N)
            rhs = rotation_matrix(g, N) @ rotation_matrix(h, N)
            # matrices of the 2N-gon group agree up to the central rotation
            # by pi (lines, not rays), i.e. up to an overall sign in-plane
            diff = min(
                np.max(np.abs(lhs - rhs)),
                np.max(np.abs(lhs @ np.diag([-1.0, -1.0, 1.0]) - rhs)),
            )
            assert diff < 1e-12


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_action_matches_matrices(N):
    for g in group_elements(N):
        R = rotation_matrix(g, N)
        for k in range(1, N + 1):
            j, flip = act_on_index(g, k, N)
            image = R @ line_direction(k, N)
            sign = -1.0 if flip else 1.0
            np.testing.assert_allclose(image, sign * line_direction(j, N), atol=1e-12)


def test_action_is_a_group_action():
    N = 5
    G = group_elements(N)
    for g in G:
        for h in G:
            gh = compose(g, h, N)
            for k in range(1, N + 1):
                jh, _ = act_on_index(h, k, N)
                jgh, _ = act_on_index(g, jh, N)
                jd, _ = act_on_index(gh, k, N)
                assert jgh == jd


def test_act_on_indices_sorts_images():
    images, flips = act_on_indices(SymmetryElement(1, False), [1, 4], 4)
    assert images == (1, 2)
    assert len(flips) == 2
