import numpy as np
import pytest

from lowrank.data import (SynthCompletionConfig, SynthRpcaConfig,
                          gen_completion, gen_rpca, load_movielens, nmse_on,
                          rmse_on, split_ratings)
from lowrank.linalg import FactorPair, SparseObservations


# ------------------------------------------------------------ gen_completion

def test_gen_completion_vanishing_noise():
    cfg = SynthCompletionConfig(30, 30, 3, 0.5, snr=1e9, seed=0)
    truth, observed, _ = gen_completion(cfg)
    clean = truth.matrix()[observed.row, observed.col]
    assert np.allclose(observed.vals, clean, rtol=1e-6)


def test_gen_completion_full_observation():
    cfg = SynthCompletionConfig(10, 12, 2, 1.0, snr=5.0, seed=1)
    _, observed, heldout = gen_completion(cfg)
    assert observed.nnz == 120
    assert heldout.nnz == 0


def test_gen_completion_deterministic_replay():
    cfg = SynthCompletionConfig(20, 20, 3, 0.3, snr=10.0, seed=7)
    t1, o1, h1 = gen_completion(cfg)
    t2, o2, h2 = gen_completion(cfg)
    assert np.array_equal(t1.U, t2.U) and np.array_equal(t1.V, t2.V)
    assert np.array_equal(o1.vals, o2.vals) and np.array_equal(o1.row, o2.row)
    assert np.array_equal(h1.vals, h2.vals)


def test_gen_completion_snr_calibration():
    cfg = SynthCompletionConfig(100, 100, 5, 1.0, snr=10.0, seed=3)
    truth, observed, _ = gen_completion(cfg)
    signal = truth.matrix()
    noise = observed.vals - signal[observed.row, observed.col]
    ratio = np.std(signal) / np.std(noise)
    assert abs(ratio - 10.0) <= 0.02 * 10.0


def test_gen_completion_heldout_is_noiseless():
    cfg = SynthCompletionConfig(15, 15, 2, 0.4, snr=1.0, seed=5)
    truth, observed, heldout = gen_completion(cfg)
    clean = truth.matrix()
    assert np.array_equal(heldout.vals, clean[heldout.row, heldout.col])
    # observed and heldout partition the grid
    assert observed.nnz + heldout.nnz == 225
    all_cells = set(zip(observed.row.tolist(), observed.col.tolist()))
    all_cells |= set(zip(heldout.row.tolist(), heldout.col.tolist()))
    assert len(all_cells) == 225


def test_gen_completion_validation():
    with pytest.raises(ValueError):
        SynthCompletionConfig(10, 10, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        SynthCompletionConfig(10, 10, 20, 0.5, 1.0)
    for args, field in (((10, 10, 2, 0.5, np.nan), "snr"), ((10, 10, -1, 0.5, 1.0), "true_rank"),
                        ((0, 10, 0, 0.5, 1.0), "m must"), ((10, 0, 0, 0.5, 1.0), "n must"),
                        ((10.5, 10, 2, 0.5, 1.0), "m must be an integer"),
                        ((10, np.nan, 2, 0.5, 1.0), "n must be an integer"),
                        ((10, 10, 2.0, 0.5, 1.0), "true_rank must be an integer"),
                        ((10, 10, 2, 0.5, 1.0, 0.5), "seed must be an integer"),
                        ((10, 10, 2, 0.5, 1.0, -1), "seed must be an integer"),
                        ((1, 1, 0, 1.0, 1.0), r"m \* n must be >= 2")):
        with pytest.raises(ValueError, match=field):
            SynthCompletionConfig(*args)
    cfg = SynthCompletionConfig(np.int64(10), np.int32(9), np.uint8(2), 0.5, 1.0, np.int64(4))
    assert [type(x) for x in (cfg.m, cfg.n, cfg.true_rank, cfg.seed)] == [int] * 4


def test_gen_rpca_validation():
    for args, field in (((0, 10, 0), "m must"), ((10, 0, 0), "n must"),
                        ((10, 10, -1), "true_rank"), ((np.inf, 10, 1), "m must be an integer"),
                        ((10, 10, 1.5), "true_rank must be an integer")):
        with pytest.raises(ValueError, match=field):
            SynthRpcaConfig(*args, 0.1, 4.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        SynthRpcaConfig(10, 10, 1, 0.1, 4.0, seed=-3)


@pytest.mark.parametrize("m, n, true_rank, field", [
    (1, 1, 1, r"m \* n must be >= 2"), (2, 2, 3, r"true_rank must be <= min\(m, n\)")],
    ids=["one-cell", "rank-above-grid"])
def test_rpca_config_checks_the_grid_as_completion_config_does(m, n, true_rank, field):
    # one cell has an sd of 0, which scaled the corruption to 0; a rank-3
    # truth on a 2 x 2 grid was built at rank 2
    with pytest.raises(ValueError, match=field):
        SynthRpcaConfig(m, n, true_rank, 0.1, 4.0)
    with pytest.raises(ValueError, match=field):
        SynthCompletionConfig(m, n, true_rank, 0.5, 1.0)


# ------------------------------------------------------------------ gen_rpca

def test_gen_rpca_no_corruption():
    cfg = SynthRpcaConfig(12, 12, 2, 0.0, 10.0, seed=0)
    truth, corrupted, mask = gen_rpca(cfg)
    assert np.array_equal(corrupted, truth.matrix())
    assert not mask.any()


def test_gen_rpca_rank_zero_truth():
    cfg = SynthRpcaConfig(10, 10, 0, 0.1, 4.0, seed=1)
    truth, corrupted, mask = gen_rpca(cfg)
    assert np.allclose(truth.matrix(), 0.0)
    assert np.array_equal(corrupted != 0.0, mask)
    assert np.allclose(np.abs(corrupted[mask]), 4.0)  # sd fallback is 1


def test_gen_rpca_magnitude_in_sd_units():
    cfg = SynthRpcaConfig(40, 40, 3, 0.05, 10.0, seed=2)
    truth, corrupted, mask = gen_rpca(cfg)
    low = truth.matrix()
    sd = np.std(low)
    diffs = np.abs((corrupted - low)[mask])
    assert np.allclose(diffs, 10.0 * sd)
    assert mask.sum() == int(0.05 * 1600)


def test_gen_rpca_deterministic_replay():
    cfg = SynthRpcaConfig(15, 15, 2, 0.1, 5.0, seed=9)
    t1, c1, m1 = gen_rpca(cfg)
    t2, c2, m2 = gen_rpca(cfg)
    assert np.array_equal(c1, c2) and np.array_equal(m1, m2)


# ---------------------------------------------------------------- movielens

def test_load_movielens_ml100k(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t3\t881250949\n7\t2\t5\t881250950\n3\t9\t1\t881250951\n")
    ratings = load_movielens(str(path), "ml100k")
    assert ratings.shape == (3, 2)
    # sorted-ascending remap: users {1,3,7} -> {0,1,2}; items {2,9} -> {0,1};
    # entries in row-major order
    assert ratings.row.tolist() == [0, 1, 2]
    assert ratings.col.tolist() == [0, 1, 0]
    assert ratings.vals.tolist() == [3.0, 1.0, 5.0]


def test_load_movielens_ml1m(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::1193::5::978300760\n2::661::3::978302109\n")
    ratings = load_movielens(str(path), "ml1m")
    assert (ratings.row[0], ratings.col[0], ratings.vals[0]) == (0, 1, 5.0)
    assert (ratings.row[1], ratings.col[1], ratings.vals[1]) == (1, 0, 3.0)


def test_load_movielens_rejects_repeated_pair(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t3\t10\n5\t2\t4\t11\n1\t2\t5\t12\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_movielens(str(path), "ml100k")


def test_load_movielens_names_repeated_pair_by_file_ids(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("40::7::3::1\n9::7::4::2\n40::500::1::3\n9::7::5::4\n")
    with pytest.raises(ValueError, match="duplicate rating of item 7 by user 9"):
        load_movielens(str(path), "ml1m")


def test_load_movielens_remaps_unsorted_sparse_ids(tmp_path):
    users = [1000, 7, 52, 7, 1000, 3]
    items = [88, 4, 88, 300, 4, 17]
    path = tmp_path / "u.data"
    path.write_text("".join(f"{u}\t{i}\t{k % 5 + 1}\t0\n"
                            for k, (u, i) in enumerate(zip(users, items))))
    ratings = load_movielens(str(path), "ml100k")
    # users {3, 7, 52, 1000} -> 0..3, items {4, 17, 88, 300} -> 0..3, row-major
    assert ratings.shape == (4, 4)
    assert ratings.row.tolist() == [0, 1, 1, 2, 3, 3]
    assert ratings.col.tolist() == [1, 0, 3, 2, 0, 2]
    assert ratings.row.dtype == ratings.col.dtype == np.int64
    assert ratings.vals.tolist() == [1.0, 2.0, 4.0, 3.0, 5.0, 1.0]


def test_load_movielens_malformed_line(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t3\t4\n1\t2\t3\n")
    with pytest.raises(ValueError, match=":2"):
        load_movielens(str(path), "ml100k")


def test_load_movielens_bad_rating(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t9\t4\n")
    with pytest.raises(ValueError, match="outside"):
        load_movielens(str(path), "ml100k")


def test_load_movielens_empty(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("")
    with pytest.raises(ValueError, match="no ratings"):
        load_movielens(str(path), "ml100k")


def test_load_movielens_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_movielens("nope", "ml10m")


# ------------------------------------------------------------------- splits

def _toy_dataset(seed=0, users=8, items=9, count=40):
    rng = np.random.default_rng(seed)
    idx = rng.choice(users * items, size=count, replace=False)
    return SparseObservations(users, items, idx // items, idx % items,
                              rng.integers(1, 6, size=count).astype(float))


def test_split_sizes_and_disjointness():
    ds = _toy_dataset()
    train, test = split_ratings(ds, 0.8, seed=0)
    assert train.nnz + test.nnz == 40
    assert train.nnz == 32
    pairs = set(zip(train.row.tolist(), train.col.tolist()))
    pairs &= set(zip(test.row.tolist(), test.col.tolist()))
    assert not pairs


def test_split_keeps_entry_order_and_values():
    ds = _toy_dataset(1)
    position = {e: k for k, e in enumerate(zip(ds.row.tolist(), ds.col.tolist()))}
    for half in split_ratings(ds, 0.75, seed=4):
        assert half.shape == ds.shape
        pos = [position[e] for e in zip(half.row.tolist(), half.col.tolist())]
        assert pos == sorted(pos)
        assert np.array_equal(half.vals, ds.vals[pos])


def test_split_deterministic():
    ds = _toy_dataset(3)
    a1, b1 = split_ratings(ds, 0.8, seed=5)
    a2, b2 = split_ratings(ds, 0.8, seed=5)
    assert np.array_equal(a1.vals, a2.vals)
    assert np.array_equal(b1.row, b2.row)


def test_split_skips_revalidation(monkeypatch):
    ds = _toy_dataset(4)

    def fail(self):
        raise AssertionError("split half re-validated")

    monkeypatch.setattr(SparseObservations, "__post_init__", fail)
    train, test = split_ratings(ds, 0.8, seed=1)
    assert train.nnz + test.nnz == ds.nnz


def test_split_validation():
    with pytest.raises(ValueError):
        split_ratings(_toy_dataset(), 1.0, seed=0)


# ------------------------------------------------------------------ metrics

def test_nmse_trivials():
    rng = np.random.default_rng(0)
    pair = FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((6, 2)))
    dense = pair.matrix()
    idx = np.flatnonzero(rng.random(30) < 0.5)
    ref = SparseObservations(5, 6, idx // 6, idx % 6, dense[idx // 6, idx % 6])
    assert nmse_on(pair, ref) == pytest.approx(0.0, abs=1e-24)
    assert nmse_on(FactorPair.empty(5, 6), ref) == pytest.approx(1.0)


def test_nmse_matches_bruteforce():
    rng = np.random.default_rng(1)
    pair = FactorPair(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
    idx = np.flatnonzero(rng.random(25) < 0.6)
    ref = SparseObservations(5, 5, idx // 5, idx % 5, rng.standard_normal(idx.size))
    dense = pair.matrix()
    num = sum((v - dense[i, j]) ** 2 for i, j, v in zip(ref.row, ref.col, ref.vals))
    den = sum(v ** 2 for v in ref.vals)
    assert nmse_on(pair, ref) == pytest.approx(num / den, abs=1e-12)


def test_nmse_errors():
    pair = FactorPair.empty(2, 2)
    with pytest.raises(ValueError):
        nmse_on(pair, SparseObservations(2, 2, [], [], []))
    with pytest.raises(ValueError):
        nmse_on(pair, SparseObservations(2, 2, [0], [0], [0.0]))


def test_rmse_trivials_and_offset():
    rng = np.random.default_rng(2)
    pair = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    dense = pair.matrix()
    idx = np.arange(16)
    ref_exact = SparseObservations(4, 4, idx // 4, idx % 4, dense.ravel())
    assert rmse_on(pair, ref_exact) == pytest.approx(0.0, abs=1e-12)
    ref_off = SparseObservations(4, 4, idx // 4, idx % 4, dense.ravel() + 0.7)
    assert rmse_on(pair, ref_off) == pytest.approx(0.7)


def test_rmse_clipping_and_bruteforce():
    pair = FactorPair(np.array([[2.0], [-1.0]]), np.array([[4.0], [0.5]]))
    # predictions: [[8, 1], [-4, -0.5]]
    ref = SparseObservations(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                             [5.0, 1.0, 1.0, 1.0])
    got = rmse_on(pair, ref, clip_range=(1.0, 5.0))
    pred = np.clip([8.0, 1.0, -4.0, -0.5], 1.0, 5.0)
    expect = np.sqrt(np.mean((np.array([5.0, 1.0, 1.0, 1.0]) - pred) ** 2))
    assert got == pytest.approx(expect, abs=1e-12)


def test_rmse_empty_errors():
    with pytest.raises(ValueError):
        rmse_on(FactorPair.empty(2, 2), SparseObservations(2, 2, [], [], []))
