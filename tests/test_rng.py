from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsde import rng


@given(seed=st.integers(0, 2**64 - 1), path=st.integers(0, 2**32), n=st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_uniforms_deterministic_and_open_interval(seed, path, n):
    ids = np.array([path], dtype=np.uint64)
    u1 = rng.uniforms(seed, ids, n)
    u2 = rng.uniforms(seed, ids, n)
    assert np.array_equal(u1, u2)
    assert np.all(u1 > 0) and np.all(u1 < 1)


def test_top_word_stays_below_one(monkeypatch):
    # (2^53 - 1 + 1/2) 2^-53 rounds to 1.0, which ndtri maps to +inf
    def all_ones(seed, path_ids, n_words):
        return np.full((len(path_ids), n_words), 2**64 - 1, dtype=np.uint64)

    monkeypatch.setattr(rng, "_stream_words", all_ones)
    u = rng.uniforms(0, np.arange(2), 3)
    assert np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(rng._ndtri(u.ravel())))


def test_block_rows_match_single_path_draws():
    block = rng.gaussian_increments(7, 10, 20, steps=8, dim=2, dt=0.25)
    for i, pid in enumerate(range(10, 20)):
        single = rng.gaussian_increments(7, pid, pid + 1, steps=8, dim=2, dt=0.25)[0]
        assert np.array_equal(block[i], single)


def test_distinct_paths_and_seeds_decorrelate():
    a = rng.gaussian_increments(1, 0, 1, 16, 1, 1.0)
    b = rng.gaussian_increments(1, 1, 2, 16, 1, 1.0)
    c = rng.gaussian_increments(2, 0, 1, 16, 1, 1.0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_increment_moments():
    # [DERIVED] CLT bound on the mean and 5% chi-square band on the variance
    dt = 0.01
    m = 100000
    z = rng.gaussian_increments(0, 0, m, steps=1, dim=1, dt=dt).ravel()
    assert abs(z.mean()) <= 4.0 / np.sqrt(m) * np.sqrt(dt)
    assert abs(z.var() / dt - 1.0) <= 0.05


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        rng.gaussian_increments(0, 5, 4, 1, 1, 1.0)


_E2 = np.exp(-2.0)


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.abs(b))


def test_ndtri_central_branch_is_bitwise_scipy():
    # same Cephes coefficients and operation order: only the tails may move
    from scipy.special import ndtri
    u = rng.uniforms(301, np.arange(2000), 640).ravel()
    central = (u > rng._EXPM2) & (u <= 1.0 - rng._EXPM2)
    assert central.sum() > 0.7 * u.size
    assert np.array_equal(rng._ndtri(u)[central], ndtri(u)[central])


def test_ndtri_tails_within_8_ulp_of_scipy():
    # [DERIVED] the tails call numpy's log where scipy calls libm's; both are
    # within a few ulp, and the rational in 1/x does not amplify the error
    from scipy.special import ndtri
    u = rng.uniforms(7, np.arange(2000), 640).ravel()
    for tail in (u <= rng._EXPM2, u > 1.0 - rng._EXPM2):
        assert tail.sum() > 1000
        assert np.max(_ulps(rng._ndtri(u[tail]), ndtri(u[tail]))) <= 8


@pytest.mark.parametrize("u", [
    2.0 ** -54,                                       # smallest uniform
    np.nextafter(1.0, 0.0),                           # largest uniform below 1
    np.nextafter(_E2, 0.0), _E2, np.nextafter(_E2, 1.0),
    np.nextafter(1.0 - _E2, 0.0), 1.0 - _E2, np.nextafter(1.0 - _E2, 1.0),
    np.exp(-33.0),                                    # x >= 8 branch
    1.0 - 2.0 ** -40,
])
def test_ndtri_edges_match_scipy(u):
    from scipy.special import ndtri
    x = rng._ndtri(np.array([u]))[0]
    assert _ulps(x, ndtri(u)) <= 8


def test_ndtri_at_zero_and_one_is_infinite():
    # as scipy's; `uniforms` never returns 0 or 1
    x = rng._ndtri(np.array([0.0, 1.0, 0.5]))
    assert x[0] == -np.inf and x[1] == np.inf and x[2] == 0.0


@pytest.mark.parametrize("n_paths, steps, dim", [
    (1200, 32, 2),          # several step blocks of all paths
    (3, 2 ** 14 + 3, 2),    # one path is more than one block
])
def test_rows_match_single_path_draws_across_blocks(n_paths, steps, dim):
    lo = 3
    block = rng.gaussian_increments(11, lo, lo + n_paths, steps, dim, dt=0.25)
    # the unblocked map: every word of the range through uniforms and ndtri at once
    u = rng.uniforms(11, np.arange(lo, lo + n_paths), steps * dim).ravel()
    assert np.array_equal(block, (rng._ndtri(u) * np.sqrt(0.25)).reshape(block.shape))
    steps_per_block = max(1, rng._BLOCK_WORDS // (n_paths * dim))
    assert len(range(steps_per_block, steps, steps_per_block)) >= 2  # block edges
    for i in range(n_paths):
        single = rng.gaussian_increments(11, lo + i, lo + i + 1, steps, dim, dt=0.25)[0]
        assert np.array_equal(block[i], single)


@given(lo=st.integers(0, 100), n=st.integers(0, 24), cut=st.integers(0, 24),
       steps=st.integers(1, 40), dim=st.integers(1, 2),
       words=st.sampled_from([1, 5, 64, rng._BLOCK_WORDS]))
@settings(max_examples=60, deadline=None)
def test_any_block_bounds_give_the_same_step_major_rows(lo, n, cut, steps, dim, words):
    # batch-first shape, a step-major buffer under it, and rows that do not
    # depend on the path range or on how many words a step block holds
    cut = min(cut, n)
    with mock.patch.object(rng, "_BLOCK_WORDS", words):
        whole = rng.gaussian_increments(5, lo, lo + n, steps, dim, 0.5)
        head = rng.gaussian_increments(5, lo, lo + cut, steps, dim, 0.5)
        tail = rng.gaussian_increments(5, lo + cut, lo + n, steps, dim, 0.5)
    assert whole.shape == (n, steps, dim)
    # each Euler step reads whole[:, k]: a contiguous (paths, dim) slice
    assert np.swapaxes(whole, 0, 1).flags.c_contiguous
    assert np.array_equal(np.concatenate([head, tail]), whole)
    for i in range(n):
        single = rng.gaussian_increments(5, lo + i, lo + i + 1, steps, dim, 0.5)
        assert np.array_equal(single[0], whole[i])
