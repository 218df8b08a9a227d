import tracemalloc

import numpy as np
import pytest

from hdrmimo import channel
from hdrmimo.channel import (
    apply_power_control,
    generate_channel,
    noise_variance_from_msnr,
    observe,
    realize_channel,
)
from hdrmimo.harness import ExperimentConfig


def small_cfg(**kwargs):
    defaults = dict(bs_antennas=16, ues=4, clusters=4, rho_db=30.0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestScenarioConfig:
    """The scenario keys of ExperimentConfig."""

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            small_cfg(clusters=3)

    def test_rho_below_control_limit_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(rho_db=3.0)

    def test_more_ues_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(ues=32)

    def test_antennas_per_cluster(self):
        assert small_cfg().antennas_per_cluster == 4

    @pytest.mark.parametrize(
        "key",
        ["rho_db", "dr_limit_db", "angle_sector_deg", "path_decay_db", "shadowing_std_db"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_cfg(**{key: value})


class TestGenerateChannel:
    def test_single_path_columns_follow_steering(self):
        # One path at broadside, no shadowing: every column is a complex
        # scalar times the all-ones steering vector.
        cfg = small_cfg(paths=1, angle_sector_deg=0.0, shadowing_std_db=0.0)
        g = generate_channel(cfg, np.random.default_rng(0))
        for u in range(cfg.ues):
            col = g[:, u] / g[0, u]
            assert np.allclose(col, np.ones(cfg.bs_antennas), atol=1e-12)

    def test_single_path_columns_follow_drawn_angles(self):
        # One path in a nonzero sector: column u over its first entry is the
        # steering vector exp(j pi n sin theta_u), antenna index n first, for
        # the angles the generator draws first from its stream.
        cfg = small_cfg(paths=1, angle_sector_deg=60.0)
        g = generate_channel(cfg, np.random.default_rng(3))
        sector = np.deg2rad(cfg.angle_sector_deg)
        theta = np.random.default_rng(3).uniform(-sector, sector, size=(1, cfg.ues))
        n = np.arange(cfg.bs_antennas)
        for u in range(cfg.ues):
            steer = np.exp(1j * np.pi * n * np.sin(theta[0, u]))
            assert np.allclose(g[:, u] / g[0, u], steer, atol=1e-12)
            assert not np.allclose(steer, 1.0)

    def test_mean_column_energy(self):
        # Monte Carlo oracle: without shadowing the expected column energy
        # equals the antenna count.
        cfg = small_cfg(shadowing_std_db=0.0)
        rng = np.random.default_rng(1)
        total, count = 0.0, 0
        for _ in range(2500):
            g = generate_channel(cfg, rng)
            total += float(np.sum(np.abs(g) ** 2))
            count += cfg.ues
        assert count >= 10_000
        assert np.isclose(total / count, cfg.bs_antennas, rtol=0.05)

    def test_deterministic_in_seed(self):
        cfg = small_cfg()
        a = generate_channel(cfg, np.random.default_rng(42))
        b = generate_channel(cfg, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestPowerControl:
    def test_min_rule_arithmetic(self):
        # Columns with powers 16, 4, 1 under a 6 dB ceiling.
        g = np.zeros((3, 3))
        g[0, 0], g[1, 1], g[2, 2] = 4.0, 2.0, 1.0
        d = apply_power_control(g, 6.0, np.arange(3))
        limit = 10.0 ** 0.6
        expected = np.sqrt([limit / 16.0, limit / 4.0, 1.0])
        assert np.allclose(d, expected, atol=1e-12)
        assert np.allclose(d**2, [0.2488, 0.9953, 1.0], atol=5e-5)

    def test_equal_powers_untouched(self):
        g = np.eye(4) * 3.0
        assert np.allclose(apply_power_control(g, 6.0, np.arange(4)), 1.0)

    def test_spread_bounded_by_ceiling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
            g *= rng.uniform(0.1, 30.0, size=5)
            d = apply_power_control(g, 6.0, np.arange(5))
            post = d**2 * np.sum(np.abs(g) ** 2, axis=0)
            assert post.max() / post.min() <= 10.0 ** 0.6 * (1 + 1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            apply_power_control(np.eye(3), 6.0, np.array([], dtype=int))


class TestStrongUeGain:
    """The strong user's boost, through realize_channel: the strongest
    column lands exactly rho_db above the weakest, over 20 seeds."""

    @staticmethod
    def assert_dynamic_range(rho_db, dr_limit_db):
        cfg = small_cfg(rho_db=rho_db, dr_limit_db=dr_limit_db)
        for seed in range(20):
            h = realize_channel(cfg, np.random.default_rng(seed))
            powers = np.sum(np.abs(h) ** 2, axis=0)
            # Worst measured 2.9e-15 dB.
            assert abs(10.0 * np.log10(powers[0] / powers[-1]) - rho_db) <= 1e-9

    def test_inverts_dynamic_range(self):
        self.assert_dynamic_range(30.0, 6.0)

    def test_zero_dynamic_range(self):
        # Every user ties with the weakest.
        self.assert_dynamic_range(0.0, 0.0)

    def test_round_trip(self):
        # The boost equals the control ceiling: the strong user sits at the
        # top of the others' spread.
        self.assert_dynamic_range(6.0, 6.0)

    def test_zero_column_rejected(self, monkeypatch):
        # An all-zero channel is refused by the power control of the rest,
        # before the strong user's zero power is divided by.
        monkeypatch.setattr(
            channel,
            "generate_channel",
            lambda cfg, rng: np.zeros((cfg.bs_antennas, cfg.ues), complex),
        )
        with pytest.raises(ValueError, match="zero-norm channel column"):
            realize_channel(small_cfg(), np.random.default_rng(0))


class TestRealizeChannel:
    def test_columns_sorted_and_dynamic_range_exact(self):
        cfg = small_cfg()
        for seed in range(20):
            h = realize_channel(cfg, np.random.default_rng(seed))
            powers = np.sum(np.abs(h) ** 2, axis=0)
            assert np.all(np.diff(powers) <= 1e-12)
            rho = 10.0 * np.log10(powers[0] / powers[-1])
            assert np.isclose(rho, cfg.rho_db, atol=1e-9)
            # Everyone but the strong user stays within the control ceiling.
            rest = powers[1:]
            spread_db = 10.0 * np.log10(rest.max() / rest.min())
            assert spread_db <= cfg.dr_limit_db + 1e-9

    def test_power_control_all_mode(self):
        cfg = small_cfg()
        h = realize_channel(cfg, np.random.default_rng(5), power_control_all=True)
        powers = np.sum(np.abs(h) ** 2, axis=0)
        spread_db = 10.0 * np.log10(powers.max() / powers.min())
        assert spread_db <= cfg.dr_limit_db + 1e-9

    @pytest.mark.parametrize("power_control_all", [False, True])
    def test_returns_the_effective_channel_matrix(self, power_control_all):
        cfg = small_cfg()
        h = realize_channel(cfg, np.random.default_rng(3), power_control_all)
        assert isinstance(h, np.ndarray)
        assert h.shape == (cfg.bs_antennas, cfg.ues)
        assert h.dtype == complex

    def test_pure_function_of_seed(self):
        cfg = small_cfg()
        a = realize_channel(cfg, np.random.default_rng(11))
        b = realize_channel(cfg, np.random.default_rng(11))
        assert np.array_equal(a, b)
        norms = np.linalg.norm(a, axis=0)
        assert np.all(norms[0] >= norms[1:])


class TestNoiseFromMsnr:
    def test_reference_arithmetic(self):
        h = np.zeros((256, 32))
        h[:32, :] = np.eye(32)  # unit-norm columns, median power 1
        assert np.isclose(noise_variance_from_msnr(h, 0.0), 0.125)

    def test_high_msnr_limit(self):
        h = np.eye(4, 2)
        assert noise_variance_from_msnr(h, 200.0) < 1e-19

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        n_a = noise_variance_from_msnr(h, 5.0)
        n_b = noise_variance_from_msnr(np.sqrt(2.0) * h, 5.0)
        assert np.isclose(n_b, 2.0 * n_a)


    @staticmethod
    def median_formula(h, msnr_db):
        b, u = h.shape
        med = float(np.median(np.sum(np.abs(h) ** 2, axis=0)))
        return u * med / (b * 10.0 ** (msnr_db / 10.0))

    @pytest.mark.parametrize("u", [2, 3, 7, 8, 31, 32])
    def test_equals_the_np_median_formula(self, u):
        # Bit for bit, for odd and even U, over powers spread across 40 dB
        # with ties, and with infinite powers: one, or more than half, so
        # that the middle entries are infinite.
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = rng.standard_normal((16, u)) + 1j * rng.standard_normal((16, u))
            h *= 10.0 ** rng.uniform(-1.0, 1.0, u)
            h[:, u // 2] = h[:, 0]
            for msnr_db in (-7.5, 0.0, 12.0):
                assert noise_variance_from_msnr(h, msnr_db) == self.median_formula(
                    h, msnr_db
                )
            for infinite in ([0], list(range(u // 2 + 1))):
                g = h.copy()
                g[0, infinite] = np.inf
                want = self.median_formula(g, 3.0)
                assert noise_variance_from_msnr(g, 3.0) == want, infinite
        assert np.isinf(want)

    @pytest.mark.parametrize("u", [2, 3, 8, 31])
    @pytest.mark.parametrize("column", [0, -1])
    def test_nan_power_gives_nan(self, u, column):
        h = np.ones((4, u), dtype=complex)
        h[1, column] = np.nan
        assert np.isnan(self.median_formula(h, 0.0))
        assert np.isnan(noise_variance_from_msnr(h, 0.0))


class TestObserve:
    def test_noiseless_selects_column(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        s = np.array([0.0, 1.0, 0.0])
        y = observe(h, s, 0.0, rng)
        assert np.allclose(y, h[:, 1])

    def test_pure_noise_variance(self):
        # Monte Carlo oracle: zero channel leaves only the noise, whose
        # per-entry sample variance must match the configured N0.
        rng = np.random.default_rng(8)
        h = np.zeros((10, 2))
        samples = observe(h, np.zeros((2, 10_000)), 0.5, rng)
        assert np.isclose(np.mean(np.abs(samples) ** 2), 0.5, rtol=0.02)

    def test_seed_reproducibility(self):
        h = np.ones((4, 2), dtype=complex)
        s = np.array([1.0, -1.0])
        y1 = observe(h, s, 1.0, np.random.default_rng(9))
        y2 = observe(h, s, 1.0, np.random.default_rng(9))
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("n0", [-1.0, np.nan])
    def test_bad_noise_variance_rejected(self, n0):
        with pytest.raises(ValueError, match="noise variance"):
            channel.add_noise(np.zeros(2, complex), n0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="noise variance"):
            observe(np.ones((4, 2)), np.ones(2), n0, np.random.default_rng(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            observe(np.ones((4, 2)), np.ones(3), 0.0, np.random.default_rng(0))

    def test_wide_block_allocates_output_and_one_noise_slice(self):
        # The product h @ s plus one slice of noise draws, scaled in place,
        # channel.SLICE_SIZE floats (0.026 of this output); the rest of 10%
        # of an output is slack (measured: 1.026).
        rng = np.random.default_rng(10)
        h = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        s = (rng.standard_normal((20000, 8)) + 1j).T
        block = 64 * 20000 * np.dtype(complex).itemsize
        observe(h, s, 0.1, rng)
        tracemalloc.start()
        try:
            observe(h, s, 0.1, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * block
