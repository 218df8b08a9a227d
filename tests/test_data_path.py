"""The data path against reference formulas, bit for bit.

Each ``reference_*`` function below is the plain formula that the in-place
code in ``channel``, ``frontend`` and ``equalizer`` evaluates with fewer
temporaries. Every element goes through the same floating-point operations,
so results must be identical, not merely close, and the random streams must
be consumed in the same order. ``reference_run_trial`` composes the
references into the whole trial.
"""

import itertools

import numpy as np
import pytest

from hdrmimo import channel
from hdrmimo.channel import (
    noise_variance_from_msnr,
    observe,
    realize_channel,
)
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
    adc,
    apply_transform,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
    midrise,
)
from hdrmimo.harness import METHODS, ExperimentConfig, run_trial, trial_rng
from hdrmimo.linalg import posdef_inverse_apply
from hdrmimo.training import estimate_from_training, generate_pilots, simulate_training
from oracles import random_complex

_PAIR_TO_LEVEL = np.array([0, 1, 3, 2])  # indexed by 2*b0 + b1
_LEVEL_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)


def reference_complex_noise(rng, shape, variance):
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_add_noise(y, n0, rng):
    y += reference_complex_noise(rng, y.shape, n0)


def noise_on_zeros(rng, shape, variance):
    # channel.add_noise on a zero block: the noise alone, as the channel
    # generator draws its path gains.
    out = np.zeros(shape, dtype=complex)
    channel.add_noise(out, variance, rng)
    return out


def reference_observe(h, s, n0, rng):
    s = np.asarray(s)
    out_shape = (h.shape[0],) if s.ndim == 1 else (h.shape[0], s.shape[1])
    return h @ s + reference_complex_noise(rng, out_shape, n0)


def reference_training(h, pilots, n0, rng):
    noise_shape = (h.shape[0], pilots.shape[1])
    return h @ pilots + reference_complex_noise(rng, noise_shape, n0)


def reference_modulate(bits):
    groups = np.asarray(bits, dtype=int).reshape(-1, 4)
    i_idx = _PAIR_TO_LEVEL[2 * groups[:, 0] + groups[:, 1]]
    q_idx = _PAIR_TO_LEVEL[2 * groups[:, 2] + groups[:, 3]]
    return QAM16_LEVELS[i_idx] + 1j * QAM16_LEVELS[q_idx]


def reference_hard_slice(s_hat):
    s_hat = np.asarray(s_hat, dtype=complex).reshape(-1)
    scaled_i = s_hat.real * np.sqrt(10.0)
    scaled_q = s_hat.imag * np.sqrt(10.0)
    i_idx = np.clip(np.floor((scaled_i + 4.0) / 2.0), 0, 3).astype(int)
    q_idx = np.clip(np.floor((scaled_q + 4.0) / 2.0), 0, 3).astype(int)
    bits = np.concatenate([_LEVEL_TO_BITS[i_idx], _LEVEL_TO_BITS[q_idx]], axis=1)
    return bits.reshape(-1)


def reference_midrise(x, delta, q):
    # Lookup of the clipped cell index in the table of levels.
    x = np.asarray(x, dtype=float)
    half = 2 ** (q - 1)
    levels = (delta / 2.0) * (2.0 * np.arange(-half, half) + 1.0)
    k = np.clip(np.floor(x / delta), -half, half - 1)
    nan = np.isnan(k)
    out = levels[np.where(nan, 0.0, k + half).astype(np.intp)]
    out[nan] = np.nan
    return out


def reference_apply_transform(transform, y):
    # The per-cluster update x - v (w v^H x) on all columns at once, into a
    # new array.
    v, w = transform.vectors, transform._weights
    x = np.asarray(y, dtype=complex).reshape(v.shape + (-1,))
    coef = (v.conj()[:, None, :] @ x) * w[:, None, None]
    return (x - v[:, :, None] * coef).reshape(np.shape(y))


def reference_adc(y_tilde, gains, quant):
    y_tilde = np.asarray(y_tilde, dtype=complex)
    omega = gains.omega if y_tilde.ndim == 1 else gains.omega[:, None]
    scaled = y_tilde * omega
    return reference_midrise(scaled.view(float), quant.delta, quant.q).view(complex)


def reference_build_lmmse(h_hat, transform, gains, quant, n0):
    # The push-through form with its U x U system G = I_U + A^H A written out.
    d = n0 * gains.omega**2 + 2.0 * quant.dist_power / quant.gamma**2
    d_isqrt = 1.0 / np.sqrt(d)
    m = reference_apply_transform(transform, h_hat) * gains.omega[:, None]
    a = d_isqrt[:, None] * m
    g = a.conj().T @ a
    np.fill_diagonal(g, np.diagonal(g).real + 1.0)
    x = posdef_inverse_apply(g, a.conj().T * d_isqrt[None, :])
    return x / quant.gamma


def reference_build_unquantized_lmmse(h_hat, n0):
    # The load N0, floored per user at 2 (U (U + 1) + 10) eps ||h_u||^2.
    gram = h_hat.conj().T @ h_hat
    u, power = gram.shape[0], np.diagonal(gram).real
    floor = 2.0 * (u * (u + 1) + 10) * np.finfo(float).eps * power
    np.fill_diagonal(gram, power + np.maximum(n0, floor))
    return posdef_inverse_apply(gram, h_hat.conj().T)


def reference_run_trial(cfg, method, msnr_db, realization_index):
    """The trial body with every data-path stage replaced by its reference.

    The channel's path gains are drawn by ``reference_add_noise`` too,
    patched in where ``generate_channel`` looks ``add_noise`` up. The bits
    are drawn in one call and sliced as one block.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "add_noise", reference_add_noise)
        rng = trial_rng(cfg.seed, method, msnr_db, realization_index)
        h = realize_channel(cfg, rng, power_control_all=(method == "wsu"))
    n0 = noise_variance_from_msnr(h, msnr_db)
    pilots = generate_pilots(cfg.ues)
    y_train = reference_training(h, pilots, n0, rng)
    est = estimate_from_training(y_train, pilots, cfg.clusters)

    if method == "perfect":
        w = reference_build_unquantized_lmmse(est.h_hat, n0)
    else:
        if method == "hr-iso":
            transform = design_hr_iso(est.h_hat[:, est.strong_index], cfg.clusters)
        elif method == "hr-max":
            transform = design_hr_max(est.c_y_blocks)
        else:
            transform = identity_transform(cfg.bs_antennas, cfg.clusters)
        quant = design_quantizer(cfg.q_bits)
        gains = compute_agc(est.c_y_blocks, transform)
        w = reference_build_lmmse(est.h_hat, transform, gains, quant, n0)

    tx_bits = rng.integers(0, 2, size=(cfg.symbols, 4 * cfg.ues))
    s_block = reference_modulate(tx_bits.reshape(-1)).reshape(cfg.symbols, cfg.ues).T
    y_block = reference_observe(h, s_block, n0, rng)
    if method == "perfect":
        r_block = y_block
    else:
        r_block = reference_adc(
            reference_apply_transform(transform, y_block), gains, quant
        )
    s_hat = equalize(w, r_block)
    rx_bits = reference_hard_slice(s_hat.T.reshape(-1))
    return count_bit_errors(tx_bits.reshape(-1), rx_bits)


def assert_same_floats(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero.

    A NaN's sign bit and payload carry no value and are not compared.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if np.iscomplexobj(a):
        # The float view needs C order; a LAPACK solve returns Fortran order.
        a = np.ascontiguousarray(a).view(float)
        b = np.ascontiguousarray(b).view(float)
    assert np.array_equal(a, b, equal_nan=True)
    number = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[number]), np.signbit(b[number]))


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


class TestNoise:
    @pytest.mark.parametrize("shape", [(7,), (1,), (5, 9), (64, 300)])
    @pytest.mark.parametrize("variance", [1.0, 0.37, 1e-3, 250.0])
    def test_complex_noise(self, shape, variance):
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        out = noise_on_zeros(rng, shape, variance)
        assert_same_floats(out, reference_complex_noise(ref_rng, shape, variance))
        # The same number of draws: the streams continue in step.
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("size", ["chunk-1", "chunk", "chunk+1", "2.5*chunk"])
    def test_draws_across_noise_slices(self, size, ndim):
        # Sizes at and across the edges of the slices the noise is drawn in;
        # in 2-D, rows of the largest of 64, 5 and 1 columns that fits.
        chunk = channel.SLICE_SIZE
        n = {
            "chunk-1": chunk - 1,
            "chunk": chunk,
            "chunk+1": chunk + 1,
            "2.5*chunk": 5 * chunk // 2,
        }[size]
        cols = next(k for k in (64, 5, 1) if n % k == 0)
        shape = (n,) if ndim == 1 else (n // cols, cols)
        rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)
        out = noise_on_zeros(rng, shape, 0.37)
        assert_same_floats(out, reference_complex_noise(ref_rng, shape, 0.37))
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_non_contiguous_target_rejected(self):
        # A strided target would be flattened into a copy and lose the noise.
        target = np.zeros((6, 8), complex)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            channel.add_noise(target, 1.0, np.random.default_rng(0))
        assert not np.any(target)

    def test_zero_variance_gives_zeros(self):
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        out = noise_on_zeros(rng, (4, 6), 0.0)
        assert np.array_equal(out, reference_complex_noise(ref_rng, (4, 6), 0.0))
        assert not np.any(out)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("n", [None, 1, 3, 200, 5000])
    @pytest.mark.parametrize("n0", [0.5, 0.013])
    def test_observe(self, n, n0):
        rng = np.random.default_rng(23)
        h = random_complex(rng, 16, 4)
        # A symbol vector, or a (U, n) block as a transposed view, the
        # layout run_trial passes.
        s = random_complex(rng, 4) if n is None else random_complex(rng, n, 4).T
        rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
        out = observe(h, s, n0, rng)
        assert_same_floats(out, reference_observe(h, s, n0, ref_rng))
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("u, k", [(8, 8), (32, 32), (3, 4)])
    def test_simulate_training(self, u, k):
        rng = np.random.default_rng(28)
        h = random_complex(rng, 64, u)
        pilots = generate_pilots(u)
        assert pilots.shape == (u, k)
        rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
        out = simulate_training(h, pilots, 0.07, rng)
        ref = reference_training(h, pilots, 0.07, ref_rng)
        assert_same_floats(out, ref)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_observe_of_real_product(self):
        rng, ref_rng = np.random.default_rng(25), np.random.default_rng(25)
        h, s = np.ones((3, 2)), np.array([[1.0, -2.0], [0.5, 4.0]])
        out = observe(h, s, 0.2, rng)
        assert_same_floats(out, reference_observe(h, s, 0.2, ref_rng))


class TestModulate:
    def test_all_bit_patterns(self):
        bits = np.array(list(itertools.product((0, 1), repeat=4))).reshape(-1)
        assert_same_floats(modulate(bits), reference_modulate(bits))

    @pytest.mark.parametrize("shape", [(4,), (50, 32), (3, 8)])
    def test_random_blocks(self, shape):
        bits = np.random.default_rng(26).integers(0, 2, size=shape)
        assert_same_floats(modulate(bits), reference_modulate(bits))


class TestQuantizer:
    @staticmethod
    def probe_inputs(q, delta, rng):
        # Every cell edge out to one cell past saturation, each with its
        # float neighbours, cell midpoints, wide random draws and the
        # special values.
        half = 2 ** (q - 1)
        edges = delta * np.arange(-half - 1, half + 2)
        return np.concatenate(
            [
                with_neighbours(edges),
                delta * (np.arange(-half - 1, half + 1) + 0.5),
                3.0 * delta * half * rng.standard_normal(500),
                [0.0, -0.0, np.inf, -np.inf, np.nan],
            ]
        )

    @pytest.mark.parametrize("q", range(1, 13))
    def test_midrise(self, q):
        delta = design_quantizer(q).delta
        x = self.probe_inputs(q, delta, np.random.default_rng(q))
        assert_same_floats(midrise(x, delta, q), reference_midrise(x, delta, q))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_adc(self, q):
        quant = design_quantizer(q)
        rng = np.random.default_rng(100 + q)
        x = self.probe_inputs(q, quant.delta, rng)
        x = x[: x.size // 2 * 2]
        # Unit gains carry the probes to the quantizer unchanged, except that
        # an infinite part makes the complex product's other part NaN.
        y = x.view(complex).reshape(1, -1)
        ones = AgcGains(np.ones(1))
        with np.errstate(invalid="ignore"):
            want = reference_adc(y, ones, quant)
            assert_same_floats(adc(y, ones, quant), want)
        # Random gains on a (B, n) block and on a single vector.
        gains = AgcGains(rng.uniform(0.1, 10.0, 8))
        block = random_complex(rng, 8, 300) * 2.0
        vec = block[:, 0].copy()
        want = reference_adc(block, gains, quant)
        assert_same_floats(adc(block, gains, quant), want)
        want = reference_adc(vec, gains, quant)
        assert_same_floats(adc(vec, gains, quant), want)


class TestInPlace:
    """``apply_transform`` and ``adc`` overwrite their input and return it,
    bit for bit the reference formulas; any input other than a C-contiguous
    complex128 array is rejected and left unchanged."""

    @staticmethod
    def transforms(rng):
        # Every kind of cluster: reflecting, passthrough, and all identity.
        h = random_complex(rng, 8, 8)
        h[[1, 4, 5]] = 0.0
        return [
            design_hr_iso(random_complex(rng, 64), 8),
            design_hr_iso(h.reshape(-1), 8),
            identity_transform(64, 8),
        ]

    # The column slices are 4096 columns at C = 8: n = 1061 is one slice,
    # and 2 * 4096 + 1 leaves a 1-column remainder, which joins the slice
    # before it. Bit for bit with one BLAS thread, the suite's setting.
    @pytest.mark.parametrize("n", [None, 1, 1061, 2 * 4096 + 1])
    def test_apply_transform(self, n):
        rng = np.random.default_rng(33)
        for t in self.transforms(rng):
            y = random_complex(rng, 64) if n is None else random_complex(rng, 64, n)
            want = reference_apply_transform(t, y)
            assert apply_transform(t, y) is y
            assert_same_floats(y, want)

    @pytest.mark.parametrize("q", [1, 3, 12])
    @pytest.mark.parametrize("n", [None, 1, 1061])
    def test_adc(self, q, n):
        rng = np.random.default_rng(34)
        quant = design_quantizer(q)
        gains = AgcGains(rng.uniform(0.1, 10.0, 64))
        y = random_complex(rng, 64) if n is None else random_complex(rng, 64, n)
        want = reference_adc(y, gains, quant)
        assert adc(y, gains, quant) is y
        assert_same_floats(y, want)

    # Every way an input can miss the contract: its dtype, its layout, or
    # its rank (a C-contiguous 0-d or 3-D complex128 array).
    OTHER_INPUTS = {
        "float": lambda y: y.real.copy(),
        "complex64": lambda y: y.astype(np.complex64),
        "fortran": np.asfortranarray,
        "strided": lambda y: y[:, ::2],
        "column": lambda y: y[:, 0],
        "0-d": lambda y: np.array(y[0, 0]),
        "3-D": lambda y: y.reshape(64, 6, 10),
    }

    @pytest.mark.parametrize("kind", OTHER_INPUTS)
    def test_other_inputs_rejected_unchanged(self, kind):
        rng = np.random.default_rng(35)
        x = self.OTHER_INPUTS[kind](random_complex(rng, 64, 60))
        snapshot = x.copy()
        gains, quant = AgcGains(np.ones(64)), design_quantizer(3)
        for t in self.transforms(rng):
            with pytest.raises(ValueError, match="C-contiguous complex128"):
                apply_transform(t, x)
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            adc(x, gains, quant)
        assert np.array_equal(x, snapshot)


class TestDetectors:
    """Both detectors, bit for bit the push-through formulas they evaluate."""

    @pytest.mark.parametrize("u", [1, 2, 5, 8])
    @pytest.mark.parametrize("q", [1, 3, 12])
    def test_build_lmmse(self, u, q):
        rng = np.random.default_rng(36)
        quant = design_quantizer(q)
        for t in TestInPlace.transforms(rng):
            h_hat = random_complex(rng, 64, u)
            gains = AgcGains(rng.uniform(0.1, 10.0, 64))
            for n0 in (1e-3, 0.5, 20.0):
                want = reference_build_lmmse(h_hat, t, gains, quant, n0)
                assert_same_floats(build_lmmse(h_hat, t, gains, quant, n0), want)

    @pytest.mark.parametrize("u", [1, 2, 5, 8])
    def test_build_unquantized_lmmse(self, u):
        rng = np.random.default_rng(37)
        h_hat = random_complex(rng, 64, u)
        for n0 in (0.0, 1e-3, 0.5, 20.0):
            want = reference_build_unquantized_lmmse(h_hat, n0)
            assert_same_floats(build_unquantized_lmmse(h_hat, n0), want)


class TestHardSlice:
    # Per real dimension: the thresholds 0 and +-2/sqrt(10), the outer levels
    # +-3/sqrt(10) and points beyond +-4/sqrt(10), each with its float
    # neighbours, plus the inner levels and the infinities.
    AXIS = np.concatenate(
        [
            with_neighbours(
                np.array([0.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0])
                / np.sqrt(10.0)
            ),
            np.array([1.0, -1.0, 40.0, -40.0]) / np.sqrt(10.0),
            [-0.0, 1e300, -1e300, np.inf, -np.inf],
        ]
    )

    def test_every_pair_of_probe_values(self):
        re, im = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        s = np.empty(re.shape, complex)
        s.real, s.imag = re, im
        out = hard_slice(s)
        assert np.array_equal(out, reference_hard_slice(s))
        assert out.dtype == reference_hard_slice(s).dtype

    def test_infinities_take_the_outer_levels(self):
        s = np.empty(1, complex)
        s.real, s.imag = np.inf, -np.inf
        assert np.array_equal(hard_slice(s), [1, 0, 0, 0])

    def test_transposed_block_in_c_order(self):
        s_hat = random_complex(np.random.default_rng(27), 8, 300)
        assert np.array_equal(
            hard_slice(s_hat.T), reference_hard_slice(s_hat.T.reshape(-1))
        )

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.3, np.nan)])
    def test_nan_rejected(self, bad):
        s = np.full((3, 5), 0.1 + 0.1j)
        s[1, 2] = bad
        with pytest.raises(ValueError, match="NaN"):
            hard_slice(s)


class TestColumnSlices:
    """The slices a block is worked on in, and the products over them."""

    @pytest.mark.parametrize("n", [1, 2, 2047, 2048, 2049, 2050, 4097])
    @pytest.mark.parametrize("entries, width", [(32, 2048), (24, 2048)])
    def test_slices_cover_the_block_in_order(self, n, entries, width):
        # The width is the largest power of two within SLICE_SIZE entries:
        # 2^16 / 24 = 2730 columns round down to 2048.
        slices = channel.column_slices(n, entries)
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        widths = [s.stop - s.start for s in slices]
        assert all(w == width for w in widths[:-1])
        assert 2 <= widths[-1] <= width + 1 or n == 1

    @pytest.mark.parametrize("remainder", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "b, u, c", [(64, 8, 8), (256, 32, 32), (16, 4, 4), (48, 6, 6)]
    )
    def test_sliced_products_equal_the_whole_product(self, b, u, c, remainder):
        # Each product a trial takes slice by slice, over the slices it
        # takes it in, with one BLAS thread (the suite's setting): h @ s and
        # w @ y over the bit slices, and the reflection coefficients v^H x
        # over the transform's. At U = 6 and B = 48 the slices are 2048 and
        # 512 columns wide, not 2730 and 682.
        rng = np.random.default_rng(36)
        n = 2 * channel.column_slices(10**6, 4 * u)[0].stop + remainder
        h = random_complex(rng, b, u)
        w = build_unquantized_lmmse(h, 0.1)  # the layout a solve returns
        s, y = random_complex(rng, n, u).T, random_complex(rng, b, n)
        for rows in channel.column_slices(n, 4 * u):
            assert_same_floats(h @ s[:, rows], (h @ s)[:, rows])
            assert_same_floats(w @ y[:, rows], (w @ y)[:, rows])
        n = 2 * channel.column_slices(10**6, 2 * b)[0].stop + remainder
        v_h = random_complex(rng, c, 1, b // c)
        x = random_complex(rng, b, n).reshape(c, b // c, n)
        for cols in channel.column_slices(n, 2 * b):
            assert_same_floats(v_h @ x[:, :, cols], (v_h @ x)[:, :, cols])


def trial_cfg(**kwargs):
    defaults = dict(
        q_bits=3, rho_db=30.0, msnr_start=4.0, msnr_stop=12.0, msnr_step=8.0,
        realizations=2, symbols=60, seed=31,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize(
    "cfg",
    [
        trial_cfg(bs_antennas=64, ues=8, clusters=8),
        trial_cfg(bs_antennas=256, ues=32, clusters=32, msnr_start=12.0),
        # 16 bits per symbol vector, so 2 whole bit slices and a 3-row tail.
        trial_cfg(
            bs_antennas=16, ues=4, clusters=4, symbols=2 * channel.SLICE_SIZE // 16 + 3
        ),
        # A 1-row tail, which joins the bit slice before it; the transform's
        # slices (2048 columns at B = 16) leave a 1-column tail too.
        trial_cfg(
            bs_antennas=16, ues=4, clusters=4, symbols=2 * channel.SLICE_SIZE // 16 + 1
        ),
    ],
    ids=["desk", "paper", "sliced", "sliced-1"],
)
def test_run_trial_matches_reference_trial(cfg):
    for method in METHODS:
        for msnr_db in cfg.msnr_grid():
            for r in range(cfg.realizations):
                got = run_trial(cfg, method, msnr_db, r)
                assert got == reference_run_trial(cfg, method, msnr_db, r), (
                    method, msnr_db, r,
                )
