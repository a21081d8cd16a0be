import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svoc.quadrature import (
    Grid,
    make_grid,
    midpoint_weights,
    singular_weights,
    trapezoid,
)
from svoc.resolvent import _causal_table

alphas = st.floats(0.1, 0.9)
cells = st.integers(2, 80)


def test_grid_geometry():
    g = make_grid(1.0, 4)
    assert g.h == 0.25
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])


def test_make_grid_validation():
    with pytest.raises(ValueError, match="horizon"):
        make_grid(0.0, 4)
    with pytest.raises(ValueError, match="at least 2"):
        make_grid(1.0, 1)


def test_first_weight_alpha_half():
    # alpha = 1/2, h = 1/4: omega[1] = h^0.5 / 0.5 = 2 * 0.5 = 1
    w = singular_weights(0.5, make_grid(1.0, 4))
    assert w[1] == pytest.approx(1.0, abs=1e-15)


def test_full_row_sum_alpha_half():
    # row n integrates (T - s)^(-1/2) over [0, T]: 2 sqrt(T) = 2 at T = 1
    g = make_grid(1.0, 4)
    w = singular_weights(0.5, g)
    assert w[4:0:-1].sum() == pytest.approx(2.0, abs=1e-14)


@given(alphas, cells)
@settings(deadline=None, max_examples=60)
def test_row_sums_telescope(alpha, n):
    g = make_grid(1.0, n)
    w = singular_weights(alpha, g)
    for k in (1, n // 2, n):
        if k == 0:
            continue
        exact = g.nodes[k] ** alpha / alpha
        assert w[k:0:-1].sum() == pytest.approx(exact, rel=1e-13)


@given(alphas, cells)
@settings(deadline=None, max_examples=40)
def test_weights_positive_and_decreasing(alpha, n):
    w = singular_weights(alpha, make_grid(1.0, n))[1:]
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 1e-15)


def test_dense_matches_rows():
    # the dense weight table the node route of the resolvent applies
    g = make_grid(1.0, 6)
    w = singular_weights(0.3, g)
    dense = _causal_table(w)
    assert dense.shape == (7, 7)
    for k in range(1, 7):
        assert np.array_equal(dense[k, :k], w[k:0:-1])
    assert np.all(dense[np.triu_indices(7)] == 0.0)


def test_linear_integrand_converges():
    # int_0^1 s (1 - s)^(-1/2) ds = 4/3
    g = make_grid(1.0, 4096)
    w = singular_weights(0.5, g)
    approx = w[g.n : 0 : -1] @ g.nodes[: g.n]
    assert approx == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_singular_weights_alpha_guard():
    with pytest.raises(ValueError, match="alpha"):
        singular_weights(1.0, make_grid(1.0, 4))


@given(alphas, cells)
@settings(deadline=None, max_examples=60)
def test_midpoint_rows_telescope(alpha, n):
    g = make_grid(1.0, n)
    mu = midpoint_weights(alpha, g)
    tau = g.midpoints
    for k in (0, n // 2, n - 1):
        head = mu[k::-1].sum()  # weights mu[k - j] on phi(tau_j), j = 0..k
        tail = mu[: n - k].sum()  # weights mu[j - k] on phi(tau_j), j = k..n-1
        assert head == pytest.approx(tau[k] ** alpha / alpha, rel=1e-12)
        assert tail == pytest.approx((g.T - tau[k]) ** alpha / alpha, rel=1e-12)


def test_midpoint_head_and_tail_are_mirror_images():
    # the head rule at tau_k reads phi(tau_j) with mu[k - j], the tail rule at
    # tau_m with mu[j - m]: reflected in time, tau_j -> T - tau_j, they agree
    n = 8
    mu = midpoint_weights(0.5, make_grid(1.0, n))
    phi = np.random.default_rng(8).standard_normal(n)
    for k in range(n):
        j, m = np.arange(k + 1), n - 1 - k
        head = mu[k - j] @ phi[j]
        tail = mu[np.arange(m, n) - m] @ phi[::-1][m:]
        assert head == pytest.approx(tail, rel=1e-14)


def test_composite_trapezoid():
    x = np.linspace(0.0, 1.0, 101)
    assert trapezoid(x**2, 0.01) == pytest.approx(1.0 / 3.0, abs=2e-5)
    with pytest.raises(ValueError):
        trapezoid(np.ones(1), 0.1)


def test_grid_equality_is_structural():
    assert make_grid(1.0, 8) == Grid(1.0, 8)
    assert make_grid(1.0, 8) != Grid(1.0, 16)
