import numpy as np
import pytest
import scipy.linalg

from hdrmimo.channel import noise_variance_from_msnr, observe, realize_channel
from hdrmimo.harness import ExperimentConfig
from hdrmimo.training import (
    covariance_blocks,
    estimate_from_training,
    generate_pilots,
    ls_channel_estimate,
    sample_covariance,
    simulate_training,
)
from oracles import diagonal_blocks


def random_channel(rng, b, u):
    return rng.standard_normal((b, u)) + 1j * rng.standard_normal((b, u))


class TestGeneratePilots:
    def test_order_two(self):
        assert np.array_equal(generate_pilots(2), [[1.0, 1.0], [1.0, -1.0]])

    def test_sylvester_doubling(self):
        s2 = generate_pilots(2)
        assert np.array_equal(generate_pilots(4), np.block([[s2, s2], [s2, -s2]]))

    def test_subset_of_hadamard(self):
        for u in range(1, 65):
            k = 1 << (u - 1).bit_length()
            assert np.array_equal(generate_pilots(u), scipy.linalg.hadamard(k)[:u, :])

    def test_row_orthogonality_exact(self):
        # K is the shortest power of two >= u: K = U for a power-of-two U
        # (the default 32 users), K = 8 for 5..8 users.
        for u in range(1, 65):
            k = next(k for k in (1, 2, 4, 8, 16, 32, 64) if k >= u)
            s = generate_pilots(u)
            assert s.shape == (u, k)
            assert np.array_equal(s @ s.T, k * np.eye(u))
            assert np.array_equal(np.abs(s), np.ones((u, k)))

    def test_invalid_lengths(self):
        for u in (0, -1):
            with pytest.raises(ValueError, match="at least one user"):
                generate_pilots(u)


class TestSimulateTraining:
    def test_noiseless(self):
        rng = np.random.default_rng(0)
        h = random_channel(rng, 6, 4)
        pilots = generate_pilots(4)
        assert np.allclose(simulate_training(h, pilots, 0.0, rng), h @ pilots)

    def test_noise_variance(self):
        rng = np.random.default_rng(1)
        h = np.zeros((4, 2))
        pilots = generate_pilots(2)
        acc = [
            simulate_training(h, pilots, 0.25, rng) for _ in range(5000)
        ]
        assert np.isclose(np.mean(np.abs(np.array(acc)) ** 2), 0.25, rtol=0.03)

    def test_seed_deterministic(self):
        h = np.ones((4, 2), dtype=complex)
        pilots = generate_pilots(2)
        a = simulate_training(h, pilots, 1.0, np.random.default_rng(2))
        b = simulate_training(h, pilots, 1.0, np.random.default_rng(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n0", [-1.0, np.nan])
    def test_bad_noise_variance_rejected(self, n0):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="noise variance"):
            simulate_training(h, generate_pilots(2), n0, np.random.default_rng(0))


class TestLsEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        h = random_channel(rng, 8, 5)
        pilots = generate_pilots(5)  # K = 8
        assert np.allclose(ls_channel_estimate(h @ pilots, pilots), h, atol=1e-12)

    def test_orthogonal_shortcut_identity(self):
        # The closed form against the general estimate Y S^H (S S^H)^{-1}.
        rng = np.random.default_rng(4)
        y = random_channel(rng, 8, 16)
        pilots = generate_pilots(9)  # K = 16
        gram = pilots @ pilots.conj().T
        general = np.linalg.solve(gram, (y @ pilots.conj().T).conj().T).conj().T
        closed = ls_channel_estimate(y, pilots)
        assert np.allclose(closed, general, rtol=0, atol=1e-12)

    def test_error_variance_matches_n0_over_k(self):
        # Analytic oracle: each estimate entry carries noise variance N0/K.
        rng = np.random.default_rng(5)
        b, u, k, n0 = 4, 5, 8, 0.3
        h = random_channel(rng, b, u)
        pilots = generate_pilots(u)
        sq_sum, count = 0.0, 0
        for _ in range(10_000):
            y = simulate_training(h, pilots, n0, rng)
            err = ls_channel_estimate(y, pilots) - h
            sq_sum += float(np.sum(np.abs(err) ** 2))
            count += err.size
        assert np.isclose(sq_sum / count, n0 / k, rtol=0.05)

    def test_unbiased(self):
        rng = np.random.default_rng(6)
        b, u, k, n0, trials = 4, 5, 8, 0.5, 4000
        h = random_channel(rng, b, u)
        pilots = generate_pilots(u)
        acc = np.zeros((b, u), dtype=complex)
        for _ in range(trials):
            y = simulate_training(h, pilots, n0, rng)
            acc += ls_channel_estimate(y, pilots) - h
        bound = 4.0 * np.sqrt(n0 / (k * trials))
        assert np.all(np.abs(acc / trials) < bound)

    def test_rank_deficient_pilots_rejected(self):
        y = np.ones((3, 4), dtype=complex)
        for bad in (
            np.ones((2, 4)),  # identical rows
            2.0 * generate_pilots(4)[:2],  # orthogonal, but S S^H = 4K I
            np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]),  # full rank
        ):
            with pytest.raises(ValueError, match="pilots"):
                ls_channel_estimate(y, bad)


class TestSampleCovariance:
    def test_single_snapshot(self):
        y = np.array([[1.0 + 1j], [2.0]])
        assert np.allclose(sample_covariance(y), y @ y.conj().T)

    def test_zero_block(self):
        assert np.allclose(sample_covariance(np.zeros((3, 5))), 0.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        y = random_channel(rng, 6, 9)
        c = sample_covariance(y)
        assert np.isclose(np.trace(c).real, np.sum(np.abs(y) ** 2) / 9.0)

    def test_hermitian_psd_on_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            y = random_channel(rng, 8, 3)
            c = sample_covariance(y)
            assert np.array_equal(c, c.conj().T)
            eigs = np.linalg.eigvalsh(c)
            assert eigs.min() >= -1e-10 * np.trace(c).real

    def test_invalid_snapshot_count(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((2, 0)))


class TestCovarianceBlocks:
    def test_equals_diagonal_blocks_of_sample_covariance(self):
        rng = np.random.default_rng(11)
        for b, clusters, k in ((8, 1, 3), (8, 4, 8), (64, 8, 8), (256, 32, 32)):
            y = random_channel(rng, b, k)
            blocks = covariance_blocks(y, clusters)
            assert blocks.shape == (clusters, b // clusters, b // clusters)
            full = sample_covariance(y)
            tol = 1e-13 * np.abs(full).max()
            assert np.allclose(blocks, diagonal_blocks(full, clusters), rtol=0, atol=tol)

    def test_single_cluster_is_full_covariance(self):
        y = np.array([[1.0 + 1j, 0.5], [2.0, -1j]])
        assert np.allclose(covariance_blocks(y, 1)[0], sample_covariance(y))

    def test_hermitian_blocks(self):
        rng = np.random.default_rng(12)
        blocks = covariance_blocks(random_channel(rng, 12, 5), 3)
        assert np.allclose(blocks, blocks.conj().transpose(0, 2, 1), rtol=0, atol=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="divisible"):
            covariance_blocks(np.ones((6, 2)), 4)
        with pytest.raises(ValueError, match="snapshot"):
            covariance_blocks(np.ones((4, 0)), 2)


class TestStrongestUeIndex:
    """The strongest-user pick of estimate_from_training, on noiseless
    training blocks of integer channels, where the LS estimate is exact."""

    @staticmethod
    def strong_index(h):
        pilots = generate_pilots(h.shape[1])
        y = observe(h, pilots, 0.0, np.random.default_rng(0))
        est = estimate_from_training(y, pilots, 1)
        assert np.array_equal(est.h_hat, h)
        return est.strong_index

    def test_clear_winner(self):
        assert self.strong_index(np.diag([1.0, 1.0, 5.0])) == 2

    def test_tie_breaks_low(self):
        assert self.strong_index(np.diag([2.0, 2.0])) == 0
        assert self.strong_index(np.diag([1.0, 2.0, 2.0])) == 1

    def test_detection_rate_at_high_dynamic_range(self):
        # With the strong user 30 dB above the rest and K = U pilots, the
        # noisy estimate still identifies it essentially always.
        cfg = ExperimentConfig(bs_antennas=16, ues=4, clusters=4, rho_db=30.0)
        pilots = generate_pilots(4)
        hits = 0
        trials = 1000
        rng = np.random.default_rng(9)
        for _ in range(trials):
            h = realize_channel(cfg, rng)
            noise = noise_variance_from_msnr(h, 0.0)
            y = simulate_training(h, pilots, noise, rng)
            est = estimate_from_training(y, pilots, cfg.clusters)
            hits += est.strong_index == 0
        assert hits / trials >= 0.99


class TestEstimateFromTraining:
    def test_bundle_consistency(self):
        rng = np.random.default_rng(10)
        h = random_channel(rng, 8, 4)
        pilots = generate_pilots(4)
        y = simulate_training(h, pilots, 0.1, rng)
        est = estimate_from_training(y, pilots, 2)
        assert np.array_equal(est.h_hat, ls_channel_estimate(y, pilots))
        assert est.strong_index == np.argmax(np.linalg.norm(est.h_hat, axis=0))
        assert np.array_equal(est.c_y_blocks, covariance_blocks(y, 2))
        c = sample_covariance(y)
        scale = np.abs(c).max()
        assert np.allclose(est.c_y_blocks, diagonal_blocks(c, 2), rtol=0, atol=1e-13 * scale)
