import itertools

import numpy as np
import pytest

from hdrmimo.equalizer import (
    QAM16_LEVELS,
    build_lmmse,
    build_unquantized_lmmse,
    count_bit_errors,
    equalize,
    hard_slice,
    modulate,
)
from hdrmimo.frontend import (
    AgcGains,
    QuantizerModel,
    apply_transform,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
)
from oracles import dense_transform_matrix, diagonal_blocks, random_complex


def dense_lmmse_oracle(h, transform, gains, quant, n0):
    """Literal B x B evaluation of the quantized-chain detector formula."""
    b = h.shape[0]
    f = dense_transform_matrix(transform)
    omega = np.diag(gains.omega)
    inner = (
        omega @ f @ h @ h.conj().T @ f.conj().T @ omega
        + n0 * omega @ f @ f.conj().T @ omega
        + (2.0 * quant.dist_power / quant.gamma**2) * np.eye(b)
    )
    return (
        (1.0 / quant.gamma) * h.conj().T @ f.conj().T @ omega @ np.linalg.inv(inner)
    )


def all_bit_vectors():
    return [np.array(b) for b in itertools.product((0, 1), repeat=4)]


class TestConstellation:
    def test_stated_corner_points(self):
        scale = np.sqrt(10.0)
        assert np.isclose(modulate([0, 0, 0, 0])[0], (-3 - 3j) / scale)
        assert np.isclose(modulate([1, 1, 1, 0])[0], (1 + 3j) / scale)
        assert np.isclose(modulate([1, 0, 0, 1])[0], (3 - 1j) / scale)

    def test_unit_average_energy(self):
        symbols = np.array([modulate(b)[0] for b in all_bit_vectors()])
        assert np.isclose(np.mean(np.abs(symbols) ** 2), 1.0, atol=1e-15)

    def test_round_trip_all_symbols(self):
        for bits in all_bit_vectors():
            assert np.array_equal(hard_slice(modulate(bits)), bits)

    def test_gray_neighbors_differ_in_one_bit(self):
        # Nearest-neighbor symbols (distance 2/sqrt(10)) differ in one bit.
        points = [(b, modulate(b)[0]) for b in all_bit_vectors()]
        min_dist = 2.0 / np.sqrt(10.0)
        for (ba, sa), (bb, sb) in itertools.combinations(points, 2):
            if np.isclose(abs(sa - sb), min_dist):
                assert int(np.sum(ba != bb)) == 1

    def test_slice_respects_decision_regions(self):
        scale = np.sqrt(10.0)
        noisy = np.array([-2.9, -1.2, 0.4, 2.6]) / scale + 1j * 0.4 / scale
        sliced = hard_slice(noisy).reshape(-1, 4)
        recon = np.array([modulate(b)[0] for b in sliced])
        assert np.allclose(recon.real * scale, [-3, -1, 1, 3])
        assert np.allclose(recon.imag * scale, 1.0)

    def test_bit_length_validation(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0])

    @pytest.mark.parametrize(
        "bits",
        [
            [0, 0, 0, -1],
            [0, 0, 0, 2],
            [0, 0, 0, 0.5],
            np.r_[np.zeros(29), 1, 1, np.nan],
            [0, 0, 0, np.inf],
            [0, 0, 0, 1e30],
        ],
    )
    def test_rejects_values_that_are_not_bits(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            modulate(bits)

    def test_bits_of_any_numeric_type(self):
        bits = np.array([1, 0, 0, 1, 0, 1, 1, 1])
        expected = modulate(bits)
        for same in (bits.astype(float), bits.astype(bool), bits.astype(np.uint8)):
            assert np.array_equal(modulate(same), expected)
        assert modulate([]).shape == (0,)

    def test_levels_constant(self):
        assert np.allclose(QAM16_LEVELS * np.sqrt(10.0), [-3, -1, 1, 3])


class TestCountBitErrors:
    def test_identical(self):
        assert count_bit_errors(np.zeros(10), np.zeros(10)) == (0, 10)

    def test_complementary(self):
        assert count_bit_errors(np.zeros(7), np.ones(7)) == (7, 7)

    def test_known_flips(self):
        tx = np.zeros(8, dtype=int)
        rx = tx.copy()
        rx[[2, 5]] = 1
        assert count_bit_errors(tx, rx) == (2, 8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros(3), np.zeros(4))


def passthrough_quantizer():
    # gamma = 1, D = 0: the linearized chain degenerates to the raw input.
    return QuantizerModel(q=12, delta=1.0, gamma=1.0, dist_power=0.0)


class TestBuildLmmse:
    def test_reduces_to_classic_lmmse(self):
        rng = np.random.default_rng(0)
        b, u, n0 = 8, 3, 0.4
        h = random_complex(rng, b, u)
        eq = build_lmmse(
            h,
            identity_transform(b, 2),
            AgcGains(np.ones(b)),
            passthrough_quantizer(),
            n0,
        )
        classic = h.conj().T @ np.linalg.inv(h @ h.conj().T + n0 * np.eye(b))
        assert np.allclose(eq, classic, atol=1e-12)
        perfect = build_unquantized_lmmse(h, n0)
        assert np.allclose(eq, perfect, atol=1e-12)

    def test_scalar_case(self):
        h = np.array([[1.0 + 0.0j]])
        eq = build_lmmse(
            h,
            identity_transform(1, 1),
            AgcGains(np.ones(1)),
            passthrough_quantizer(),
            1.0,
        )
        assert np.allclose(eq, [[0.5]])
        assert np.allclose(build_unquantized_lmmse(h, 1.0), [[0.5]])

    def test_unquantized_matches_dense_oracle_many_antennas(self):
        # N0 is kept near the per-entry channel power: the B x B oracle's
        # own rounding grows with cond(Hh Hh^H + N0 I) ~ B ||h||^2 / N0.
        rng = np.random.default_rng(7)
        b, u = 64, 4
        for n0 in (0.5, 1.0, 4.0):
            h = random_complex(rng, b, u)
            h[:, 0] *= 3.0
            dense = h.conj().T @ np.linalg.inv(h @ h.conj().T + n0 * np.eye(b))
            w = build_unquantized_lmmse(h, n0)
            assert w.shape == (u, b)
            assert np.linalg.norm(w - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_matches_dense_composition_oracle(self):
        # Literal dense evaluation of the detector formula, with the
        # transform materialized as a block-diagonal matrix and an explicit
        # matrix inverse.
        rng = np.random.default_rng(1)
        for _ in range(10):
            b, u, clusters = 12, 4, 3
            h = random_complex(rng, b, u)
            t = design_hr_iso(h[:, 0], clusters)
            c_y = h @ h.conj().T + 0.2 * np.eye(b)
            gains = compute_agc(diagonal_blocks(c_y, clusters), t)
            quant = design_quantizer(3)
            n0 = 0.2
            eq = build_lmmse(h, t, gains, quant, n0)
            dense = dense_lmmse_oracle(h, t, gains, quant, n0)
            assert np.linalg.norm(eq - dense) <= 1e-9 * np.linalg.norm(dense)

    @pytest.mark.parametrize("variant", ["identity", "hr-iso", "hr-max"])
    @pytest.mark.parametrize("q", [1, 3, 5, 12])
    def test_push_through_matches_dense_oracle_many_antennas(self, variant, q):
        # B >> U, the regime the U x U form is for: a strong user 20 dB up,
        # AGC from the true covariance blocks, against the B x B formula.
        rng = np.random.default_rng(20 + q)
        b, u, clusters, n0 = 64, 4, 8, 0.1
        for _ in range(5):
            h = random_complex(rng, b, u) / np.sqrt(2.0)
            h[:, 0] *= 10.0
            blocks = diagonal_blocks(h @ h.conj().T + n0 * np.eye(b), clusters)
            if variant == "identity":
                t = identity_transform(b, clusters)
            elif variant == "hr-iso":
                t = design_hr_iso(h[:, 0], clusters)
            else:
                t = design_hr_max(blocks)
            gains = compute_agc(blocks, t)
            quant = design_quantizer(q)
            eq = build_lmmse(h, t, gains, quant, n0)
            dense = dense_lmmse_oracle(h, t, gains, quant, n0)
            assert eq.shape == (u, b)
            assert np.linalg.norm(eq - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_zero_effective_noise_rejected(self):
        # N0 = 0 with a distortion-free quantizer leaves D = 0 on every ADC,
        # even for a full-column-rank channel.
        rng = np.random.default_rng(6)
        h = random_complex(rng, 8, 2)
        with pytest.raises(np.linalg.LinAlgError, match="noiseless"):
            build_lmmse(
                h,
                identity_transform(8, 2),
                AgcGains(np.ones(8)),
                passthrough_quantizer(),
                0.0,
            )

    def test_fine_quantization_converges_to_perfect(self):
        rng = np.random.default_rng(2)
        b, u, n0 = 16, 4, 0.1
        h = random_complex(rng, b, u)
        quant = design_quantizer(12)
        eq = build_lmmse(
            h, identity_transform(b, 4), AgcGains(np.ones(b)), quant, n0
        )
        perfect = build_unquantized_lmmse(h, n0)
        gap = np.linalg.norm(eq - perfect)
        assert gap <= 1e-3 * np.linalg.norm(perfect)

    def test_beats_row_scaled_matched_filter(self):
        # Under the linearized observation model, the detector's analytic
        # MSE can never exceed that of the row-scaled matched filter.
        rng = np.random.default_rng(3)
        for _ in range(100):
            b, u = 8, 3
            h = random_complex(rng, b, u)
            t = design_hr_iso(h[:, 0], 2)
            n0 = float(rng.uniform(0.05, 1.0))
            c_y = h @ h.conj().T + n0 * np.eye(b)
            gains = compute_agc(diagonal_blocks(c_y, 2), t)
            quant = design_quantizer(int(rng.integers(1, 6)))
            eq = build_lmmse(h, t, gains, quant, n0)

            a = quant.gamma * gains.omega[:, None] * apply_transform(t, h)
            noise_diag = quant.gamma**2 * n0 * gains.omega**2 + 2.0 * quant.dist_power

            def model_mse(w):
                signal = np.linalg.norm(w @ a - np.eye(u)) ** 2
                return signal + float(
                    np.real(np.sum((np.abs(w) ** 2) * noise_diag[None, :]))
                )

            mf = a.conj().T / quant.gamma**2  # any row scaling is allowed
            row_gain = np.real(np.diagonal(mf @ a))
            mf = mf / row_gain[:, None]
            assert model_mse(eq) <= model_mse(mf) + 1e-12

    def test_rank_deficient_noiseless_rejected(self):
        h = np.ones((2, 2), dtype=complex)  # identical columns, rank 1
        with pytest.raises(np.linalg.LinAlgError):
            build_lmmse(
                h,
                identity_transform(2, 1),
                AgcGains(np.ones(2)),
                passthrough_quantizer(),
                0.0,
            )


class TestEqualize:
    def test_identity_detector(self):
        rng = np.random.default_rng(4)
        r = random_complex(rng, 5)
        eq = np.eye(5, dtype=complex)
        assert np.allclose(equalize(eq, r), r)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        eq = random_complex(rng, 3, 6)
        r1, r2 = random_complex(rng, 6), random_complex(rng, 6)
        a = 2.0 - 1.5j
        assert np.allclose(
            equalize(eq, a * r1 + r2),
            a * equalize(eq, r1) + equalize(eq, r2),
            atol=1e-12,
        )

    def test_scalar_chain(self):
        h = np.array([[1.0 + 0.0j]])
        eq = build_unquantized_lmmse(h, 1.0)
        assert np.allclose(equalize(eq, np.array([1.0])), [0.5])
