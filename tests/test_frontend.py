import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hdrmimo import linalg
from hdrmimo.frontend import (
    AgcGains,
    QuantizerModel,
    SpatialTransform,
    adc,
    apply_transform,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
    midrise,
    split_clusters,
)
from hdrmimo.linalg import dominant_eigenpair, householder_apply
from hdrmimo.training import covariance_blocks, estimate_from_training, generate_pilots
from oracles import (
    bussgang_constants,
    complex_sign,
    dense_transform_matrix,
    diagonal_blocks,
    householder_matrix,
    optimal_step_size,
    quantizer_mse,
    random_complex,
    reflected_first_coordinate,
)


class TestSplitClusters:
    def test_view_of_consecutive_slices(self):
        a = np.arange(12.0).reshape(6, 2)
        v = split_clusters(a, 3)
        assert v.shape == (3, 2, 2)
        assert np.shares_memory(v, a)
        assert np.array_equal(v[1], a[2:4])

    # Every function that cuts B antennas into C clusters rejects C = 0 and
    # a C that does not divide B with the same ValueError.
    @pytest.mark.parametrize("clusters", [0, 4])
    @pytest.mark.parametrize(
        "cut",
        [
            lambda c: identity_transform(6, c),
            lambda c: design_hr_iso(np.ones(6), c),
            lambda c: covariance_blocks(np.ones((6, 2)), c),
        ],
        ids=["identity_transform", "design_hr_iso", "covariance_blocks"],
    )
    def test_bad_cluster_count_rejected(self, cut, clusters):
        with pytest.raises(ValueError, match=f"dimension 6 not divisible by {clusters} clusters"):
            cut(clusters)


class TestHrIsoDesign:
    def test_hand_arithmetic_example(self):
        t = design_hr_iso(np.array([3.0, 4.0]), 1)
        assert np.allclose(t.vectors[0], [8.0, 4.0])
        out = apply_transform(t, np.array([3.0, 4.0], complex))
        assert np.isclose(abs(out[0]), 5.0)
        assert abs(out[1]) < 1e-12

    def test_complex_leading_entry(self):
        h = np.array([1j, 1.0])
        t = design_hr_iso(h, 1)
        out = apply_transform(t, h)
        assert np.allclose(out, [-np.sqrt(2.0) * 1j, 0.0], atol=1e-12)

    def test_zero_cluster_falls_back_to_identity(self):
        h = np.concatenate([np.zeros(2), np.array([1.0, 2.0])])
        t = design_hr_iso(h, 2)
        assert t.vectors.shape == (2, 2)
        assert not np.any(t.vectors[0])
        y = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.allclose(apply_transform(t, y.copy())[:2], y[:2])

    def test_dimension_not_divisible(self):
        with pytest.raises(ValueError):
            design_hr_iso(np.ones(6), 4)

    def test_isolation_exactness(self):
        # The reflector maps each cluster slice onto -||a|| sign(a_1) e_1.
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = int(rng.integers(2, 9))
            h = random_complex(rng, 2 * s)
            t = design_hr_iso(h, 2)
            out = apply_transform(t, h.copy())
            for c in range(2):
                a = h[c * s : (c + 1) * s]
                head = out[c * s]
                expected = -np.linalg.norm(a) * complex_sign(a[0])
                assert np.isclose(head, expected, atol=1e-10 * np.linalg.norm(a))
                tail = out[c * s + 1 : (c + 1) * s]
                assert np.all(np.abs(tail) <= 1e-10 * np.linalg.norm(a))

    def test_beats_random_reflectors(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_complex(rng, 6)
            t = design_hr_iso(a, 1)
            best = abs(apply_transform(t, a.copy())[0]) ** 2
            w = random_complex(rng, 6, 1000)
            others = reflected_first_coordinate(w, a) ** 2
            assert np.all(best >= others - 1e-9 * best)


class TestHrMaxDesign:
    def test_diagonal_block(self):
        t = design_hr_max(np.diag([4.0, 1.0]).astype(complex)[None])
        # Dominant eigenvector e_1 (up to phase) gives v = 2 e_1 up to phase.
        v = t.vectors[0]
        assert abs(v[1]) < 1e-12
        q = householder_matrix(v)
        c = np.diag([4.0, 1.0])
        isolated = np.real(q[:, 0].conj() @ c @ q[:, 0])
        assert np.isclose(isolated, 4.0)

    def test_degenerate_spectrum(self):
        t = design_hr_max(diagonal_blocks(np.eye(4, dtype=complex), 2))
        for c, v in enumerate(t.vectors):
            q = householder_matrix(v) if np.any(v) else np.eye(2)
            isolated = np.real(q[:, 0].conj() @ np.eye(2) @ q[:, 0])
            assert np.isclose(isolated, 1.0)

    def test_zero_block_falls_back_to_identity(self):
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[1] = np.eye(2)
        t = design_hr_max(blocks)
        assert not np.any(t.vectors[0])
        assert np.any(t.vectors[1])

    def test_isolated_power_equals_top_eigenvalue(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_complex(rng, 6, 6)
            c = a @ a.conj().T
            t = design_hr_max(c[None])
            q = householder_matrix(t.vectors[0])
            isolated = np.real(q[:, 0].conj() @ c @ q[:, 0])
            top = np.linalg.eigvalsh(c)[-1]
            assert np.isclose(isolated, top, rtol=1e-8)

    def test_beats_random_reflectors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex(rng, 5, 5)
            c = a @ a.conj().T
            t = design_hr_max(c[None])
            q = householder_matrix(t.vectors[0])
            best = np.real(q[:, 0].conj() @ c @ q[:, 0])
            w = random_complex(rng, 5, 1000)
            z = np.zeros((5, 1000), dtype=complex)
            z[0] = 1.0
            norms = np.sum(np.abs(w) ** 2, axis=0)
            z = z - 2.0 * w * (w[0].conj() / norms)  # Q_w e_1 per column
            others = np.real(np.sum(z.conj() * (c @ z), axis=0))
            assert np.all(best >= others - 1e-9 * best)


    def test_rejects_non_hermitian_block(self):
        blocks = np.stack([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]]).astype(complex)
        with pytest.raises(ValueError, match="block 1 is not Hermitian"):
            design_hr_max(blocks)

    def test_rejects_nan_block(self):
        blocks = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
        with pytest.raises(ValueError, match="block 1 is not Hermitian"):
            design_hr_max(blocks)

    def test_residual_bound_enforced(self, monkeypatch):
        # No eigensolver meets a zero residual bound on a generic block.
        rng = np.random.default_rng(14)
        a = random_complex(rng, 2, 4, 4)
        blocks = a @ a.conj().transpose(0, 2, 1)
        monkeypatch.setattr(linalg, "EIG_RESIDUAL_TOL", 0.0)
        with pytest.raises(RuntimeError, match="residual .* of block 0"):
            design_hr_max(blocks)

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(ValueError, match=r"\(C, S, S\).*\(4, 4\)"):
            design_hr_max(np.eye(4, dtype=complex))  # a dense matrix, not a stack
        with pytest.raises(ValueError, match=r"\(2, 2, 3\)"):
            design_hr_max(np.ones((2, 2, 3), dtype=complex))


class TestApplyTransform:
    def test_identity_passthrough(self):
        t = identity_transform(8, 4)
        y = np.arange(8, dtype=complex)
        assert np.array_equal(apply_transform(t, y.copy()), y)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h = random_complex(rng, 12)
            t = design_hr_iso(h, 3)
            y = random_complex(rng, 12)
            assert np.isclose(
                np.linalg.norm(apply_transform(t, y.copy())),
                np.linalg.norm(y),
                rtol=1e-12,
            )

    def test_matches_dense_block_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h = random_complex(rng, 12)
            t = design_hr_iso(h, 4)
            dense = dense_transform_matrix(t)
            y = random_complex(rng, 12)
            assert np.allclose(apply_transform(t, y.copy()), dense @ y, atol=1e-12)
            block = random_complex(rng, 12, 5)
            want = dense @ block
            assert np.allclose(apply_transform(t, block), want, atol=1e-12)

    def test_cluster_locality(self):
        rng = np.random.default_rng(6)
        h = random_complex(rng, 8)
        t = design_hr_iso(h, 4)
        y = random_complex(rng, 8)
        bumped = y.copy()
        bumped[0] += 1.0  # only cluster 0 input changes
        out, out_b = apply_transform(t, y), apply_transform(t, bumped)
        assert np.allclose(out[2:], out_b[2:])
        assert not np.allclose(out[:2], out_b[:2])

    def test_covariance_conjugation(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 8, 8)
        c = a @ a.conj().T
        t = design_hr_max(diagonal_blocks(c, 2))
        dense = dense_transform_matrix(t)
        half = apply_transform(t, c.copy())
        conjugated = apply_transform(t, half.conj().T.copy()).conj().T
        assert np.allclose(conjugated, dense @ c @ dense.conj().T, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 6"):
            apply_transform(identity_transform(8, 4), np.ones(6, complex))

    def test_malformed_vectors_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SpatialTransform(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="finite"):
            SpatialTransform(np.array([[np.inf, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match=r"\(C, S\).*\(2,\)"):
            SpatialTransform(np.ones(2))  # one vector, not a stack
        with pytest.raises(ValueError, match=r"\(C, S\).*\(0, 2\)"):
            SpatialTransform(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="squared norm"):
            SpatialTransform(np.array([[1e-170, 0.0]]))


def random_shape(rng):
    return int(rng.integers(1, 7)), int(rng.integers(1, 9))


def zero_some(rng, stack):
    """Zero a random subset of the leading-axis entries (at least one when C > 1)."""
    c = stack.shape[0]
    dead = rng.random(c) < 0.3
    if c > 1:
        dead[rng.integers(c)] = True
    stack[dead] = 0.0
    return stack


def oracle_reflectors(transform):
    """The per-cluster reflector list the trial used before batching."""
    return [v if np.any(v) else None for v in transform.vectors]


class TestBatchedMatchesPerClusterOracle:
    """Whole-array design, apply and AGC against per-cluster primitives."""

    def test_hr_iso_design(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            c, s = random_shape(rng)
            slices = zero_some(rng, random_complex(rng, c, s))
            t = design_hr_iso(slices.reshape(-1), c)
            assert t.vectors.shape == (c, s)
            for a, v in zip(slices, t.vectors):
                expected = a.copy()
                expected[0] += np.linalg.norm(a) * complex_sign(a[0])
                tol = 1e-12 * max(np.linalg.norm(a), 1e-300)
                assert np.all(np.abs(v - expected) <= tol)

    def test_hr_max_design(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            c, s = random_shape(rng)
            a = zero_some(rng, random_complex(rng, c, s, s + 2))
            blocks = a @ a.conj().transpose(0, 2, 1)
            t = design_hr_max(blocks)
            assert t.vectors.shape == (c, s)
            for block, v in zip(blocks, t.vectors):
                if not np.any(block):
                    assert not np.any(v)
                    continue
                _, lead = dominant_eigenpair(block)
                expected = lead.copy()
                expected[0] += complex_sign(lead[0])
                assert np.all(np.abs(v - expected) <= 1e-12)

    def test_apply(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            c, s = random_shape(rng)
            h = zero_some(rng, random_complex(rng, c, s)).reshape(-1)
            t = design_hr_iso(h, c)
            for y in (random_complex(rng, c * s), random_complex(rng, c * s, 5)):
                expected = y.copy()
                for k, v in enumerate(oracle_reflectors(t)):
                    if v is not None:
                        expected[k * s : (k + 1) * s] = householder_apply(
                            v, y[k * s : (k + 1) * s]
                        )
                out = apply_transform(t, y.copy())
                assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(y).max())
                for k, v in enumerate(oracle_reflectors(t)):
                    if v is None:  # passthrough rows are copied untouched
                        rows = slice(k * s, (k + 1) * s)
                        assert np.array_equal(out[rows], y[rows])

    def test_agc(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            c, s = random_shape(rng)
            a = random_complex(rng, c, s, s + 2)
            blocks = a @ a.conj().transpose(0, 2, 1)
            h = zero_some(rng, random_complex(rng, c, s)).reshape(-1)
            for t in (
                identity_transform(c * s, c),
                design_hr_iso(h, c),
                design_hr_max(blocks),
            ):
                diag = []
                for v, block in zip(oracle_reflectors(t), blocks):
                    if v is not None:
                        block = householder_apply(v, block)
                        block = householder_apply(v, block.conj().T).conj().T
                    diag.append(np.real(np.diagonal(block)))
                diag = np.concatenate(diag)
                # Compare the transformed diagonal 2 / omega^2 itself, so the
                # bound is on the quantity the closed form evaluates.
                got = 2.0 / compute_agc(blocks, t).omega ** 2
                assert np.all(np.abs(got - diag) <= 1e-12 * diag.max())


# Entries are zero or of magnitude 1e-6..1e6, so squared norms stay far
# from underflow and overflow.
_magnitudes = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
_reals = st.tuples(_magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
_entries = st.builds(complex, _reals, _reals)
_shapes = st.tuples(st.integers(1, 4), st.integers(1, 6))
# Derandomized, so tier-1 runs the same examples every time. No shrink or
# explain phase: on these float arrays they can take minutes, so a failure
# reports the first failing example as generated.
_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)


class TestReflectorProperties:
    @_PROPERTY
    @given(data=st.data())
    def test_unitary_involution(self, data):
        c, s = data.draw(_shapes)
        vectors = data.draw(arrays(complex, (c, s), elements=_entries))
        y = data.draw(arrays(complex, (c * s, 2), elements=_entries))
        t = SpatialTransform(vectors)
        ty = apply_transform(t, y.copy())
        scale = max(np.linalg.norm(y), 1e-300)
        norms_in, norms_out = np.linalg.norm(y, axis=0), np.linalg.norm(ty, axis=0)
        assert np.all(np.abs(norms_out - norms_in) <= 1e-12 * scale)
        # Each block is a Hermitian reflector, so F F = I.
        assert np.all(np.abs(apply_transform(t, ty) - y) <= 1e-12 * scale)
        f = apply_transform(t, np.eye(c * s, dtype=complex))
        assert np.allclose(f.conj().T @ f, np.eye(c * s), rtol=0, atol=1e-12)

    @_PROPERTY
    @given(data=st.data())
    def test_hr_iso_isolates_each_slice(self, data):
        c, s = data.draw(_shapes)
        h = data.draw(arrays(complex, (c * s,), elements=_entries))
        out = apply_transform(design_hr_iso(h, c), h.copy()).reshape(c, s)
        for a, o in zip(h.reshape(c, s), out):
            nrm = np.linalg.norm(a)
            assert abs(o[0] + nrm * complex_sign(a[0])) <= 1e-12 * nrm
            assert np.all(np.abs(o[1:]) <= 1e-12 * nrm)

    @_PROPERTY
    @given(data=st.data())
    def test_hr_max_isolates_top_eigenvalue(self, data):
        c, s = data.draw(_shapes)
        a = data.draw(arrays(complex, (c, s, s), elements=_entries))
        blocks = a @ a.conj().transpose(0, 2, 1)
        blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0
        t = design_hr_max(blocks)
        # Output 1 of each transformed block carries its top eigenvalue.
        z = apply_transform(t, np.eye(c * s, dtype=complex))
        for k, block in enumerate(blocks):
            e = z[k * s : (k + 1) * s, k * s]
            isolated = np.real(e.conj() @ block @ e)
            top = np.linalg.eigvalsh(block)[-1]
            assert abs(isolated - top) <= 1e-10 * max(top, 1e-300)


class TestTransformReadOnly:
    def test_both_arrays_read_only(self):
        # identity_transform's cached transform is shared by every wsu and
        # none trial on every thread, so no array of a transform may change.
        rng = np.random.default_rng(31)
        a = random_complex(rng, 2, 2, 2)
        for t in (
            identity_transform(4, 2),
            design_hr_iso(random_complex(rng, 4), 2),
            design_hr_max(a @ a.conj().transpose(0, 2, 1)),
        ):
            for arr in (t.vectors, t._weights):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0


class TestArrayRecordsCompareByIdentity:
    """The records that hold arrays compare and hash by identity: a field
    by field ``==`` of arrays is ambiguous, and an array is unhashable."""

    RECORDS = {
        "SpatialTransform": lambda rng: design_hr_iso(random_complex(rng, 8), 2),
        "identity": lambda rng: identity_transform(8, 2),
        "AgcGains": lambda rng: AgcGains(rng.uniform(0.5, 2.0, 8)),
        "TrainingOutput": lambda rng: estimate_from_training(
            random_complex(rng, 8, 4), generate_pilots(3), 2
        ),
    }

    @pytest.mark.parametrize("kind", RECORDS)
    def test_hashes_and_equals_itself(self, kind):
        rng = np.random.default_rng(32)
        a = self.RECORDS[kind](rng)
        b = self.RECORDS[kind](np.random.default_rng(32))
        assert a == a and not a != a
        assert hash(a) == hash(a) and len({a, a}) == 1
        # Equal contents are not enough: only the same object is equal.
        assert (a == b) is (a is b)


class TestDataPathMemory:
    """Wide symbol blocks: the data path's peak memory is a few block copies."""

    def peak_in_blocks(self, fn, block):
        fn()  # warm caches (quantizer design, lazy imports)
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / block.nbytes

    def test_apply_identity_returns_its_input(self):
        rng = np.random.default_rng(17)
        y = random_complex(rng, 64, 20000)
        t = identity_transform(64, 8)
        assert apply_transform(t, y) is y
        assert self.peak_in_blocks(lambda: apply_transform(t, y), y) < 0.01

    def test_apply_in_place_allocates_coefficients_and_one_slice(self):
        # One column slice's rank-1 update v (w v^H x), at most SLICE_SIZE
        # floats, and the slice's smaller temporaries, its coefficients among
        # them (measured: 0.042 blocks; 0.164 when all (C, 1, n)
        # coefficients, 1/S of a block, were held at once).
        rng = np.random.default_rng(19)
        y = random_complex(rng, 64, 20000)
        t = design_hr_iso(random_complex(rng, 64), 8)
        assert self.peak_in_blocks(lambda: apply_transform(t, y), y) < 0.1

    def test_apply_with_passthrough_rows_in_place(self):
        # Reflecting and passthrough clusters share one pass: no copy of
        # the input, no gather of the reflecting rows.
        rng = np.random.default_rng(18)
        y = random_complex(rng, 64, 20000)
        h = random_complex(rng, 8, 8)
        h[[1, 4, 5]] = 0.0
        t = design_hr_iso(h.reshape(-1), 8)
        assert self.peak_in_blocks(lambda: apply_transform(t, y), y) < 0.25
        before = y.reshape(8, 8, -1).copy()
        out = apply_transform(t, y).reshape(8, 8, -1)
        assert np.array_equal(out[[1, 4, 5]], before[[1, 4, 5]])
        assert not np.allclose(out[0], before[0])

    def test_adc_in_place_allocates_nothing_block_sized(self):
        # The block is scaled and quantized where it lies (measured: 0.006
        # blocks).
        rng = np.random.default_rng(20)
        y = random_complex(rng, 64, 20000)
        gains, quant = AgcGains(np.ones(64)), design_quantizer(3)
        assert self.peak_in_blocks(lambda: adc(y, gains, quant), y) < 0.05


class TestMidrise:
    def test_saturation_example(self):
        out = adc(
            np.array([10.0 + 10.0j]),
            AgcGains(np.ones(1)),
            QuantizerModel(q=3, delta=0.5, gamma=0.9, dist_power=0.01),
        )
        assert np.allclose(out, [1.75 + 1.75j])

    def test_zero_maps_to_half_step(self):
        quant = QuantizerModel(q=3, delta=0.5, gamma=0.9, dist_power=0.01)
        out = adc(np.array([0.0 + 0.0j]), AgcGains(np.ones(1)), quant)
        assert np.allclose(out, [0.25 + 0.25j])

    def test_two_bit_examples(self):
        out = midrise(np.array([0.3, 1.7, -0.2, 3.0]), 1.0, 2)
        assert np.allclose(out, [0.5, 1.5, -0.5, 1.5])

    def test_boundary_goes_to_saturation(self):
        # |x| = delta * 2^(q-1) must emit the saturation level, keeping the
        # alphabet at exactly 2^q values.
        assert midrise(np.array([2.0]), 0.5, 3)[0] == 1.75
        assert midrise(np.array([-2.0]), 0.5, 3)[0] == -1.75

    def test_alphabet_size(self):
        for q in (1, 2, 3, 4):
            x = np.linspace(-6.0, 6.0, 20001)
            levels = np.unique(midrise(x, 0.5, q))
            assert len(levels) == 2**q
            assert np.isclose(np.abs(levels).max(), 0.25 * (2**q - 1))

    @staticmethod
    def assert_alphabet_of_2_to_the_q(q, delta, x_extra=()):
        half = 2 ** (q - 1)
        edges = delta * np.arange(-half, half + 1)
        # One input inside every cell and both saturation regions, every
        # cell edge and its float neighbours.
        x = np.concatenate(
            [
                delta * (np.arange(-half - 2, half + 2) + 0.5),
                edges,
                np.nextafter(edges, np.inf),
                np.nextafter(edges, -np.inf),
                x_extra,
            ]
        )
        levels = np.unique(midrise(x, delta, q))
        assert levels.size == 2**q, (q, delta.hex())
        assert np.array_equal(levels, -levels[::-1])

    @pytest.mark.parametrize("q", range(1, 13))
    def test_designed_alphabet_has_2_to_the_q_levels(self, q):
        self.assert_alphabet_of_2_to_the_q(q, design_quantizer(q).delta)

    @_PROPERTY
    @given(q=st.integers(1, 12), delta=st.floats(1e-6, 1e3), data=st.data())
    def test_alphabet_has_2_to_the_q_levels(self, q, delta, data):
        bound = 3.0 * delta * 2 ** (q - 1)
        x = data.draw(arrays(float, 32, elements=st.floats(-bound, bound)))
        self.assert_alphabet_of_2_to_the_q(q, delta, x)

    def test_monotone_and_bounded_error(self):
        x = np.linspace(-5.0, 5.0, 4001)
        y = midrise(x, 0.4, 3)
        assert np.all(np.diff(y) >= 0.0)
        inside = np.abs(x) < 0.4 * 4
        assert np.all(np.abs(y[inside] - x[inside]) <= 0.2 + 1e-12)

    def test_matches_select_formula(self):
        # Reference: compute both branches and select; the table lookup must
        # give the same bits, at cell edges and their float neighbours too.
        def reference(x, delta, q):
            threshold = delta * 2 ** (q - 1)
            granular = (delta / 2.0) * (2.0 * np.floor(x / delta) + 1.0)
            saturated = np.sign(x) * (delta / 2.0) * (2**q - 1)
            return np.where(np.abs(x) < threshold, granular, saturated)

        rng = np.random.default_rng(13)
        for q in (1, 2, 3, 5, 8, 12):
            for delta in (design_quantizer(q).delta, 0.5, 1.0 / 3.0, 7.7):
                edges = delta * np.arange(-(2 ** (q - 1)), 2 ** (q - 1) + 1)
                x = np.concatenate(
                    [
                        3.0 * delta * 2 ** (q - 1) * rng.standard_normal(2000),
                        edges,
                        np.nextafter(edges, np.inf),
                        np.nextafter(edges, -np.inf),
                        [0.0, -0.0, np.inf, -np.inf, np.nan],
                    ]
                )
                out, ref = midrise(x, delta, q), reference(x, delta, q)
                assert np.array_equal(out, ref, equal_nan=True)
                assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_nan_stays_nan(self):
        out = midrise(np.array([[np.nan, 0.3], [-5.0, np.nan]]), 0.5, 3)
        assert np.isnan(out[0, 0]) and np.isnan(out[1, 1])
        assert out[0, 1] == 0.25 and out[1, 0] == -1.75

    def test_odd_symmetry(self):
        x = np.linspace(0.01, 4.0, 500)
        assert np.allclose(midrise(-x, 0.3, 2), -midrise(x, 0.3, 2))


class TestStepSize:
    def test_one_bit_closed_form(self):
        # For one bit the MSE minimum is at 2 sqrt(2/pi).
        assert np.isclose(optimal_step_size(1), 2.0 * np.sqrt(2.0 / np.pi), atol=1e-4)

    def test_strictly_decreasing(self):
        steps = [optimal_step_size(q) for q in range(1, 9)]
        assert np.all(np.diff(steps) < 0.0)

    def test_local_optimality(self):
        for q in (1, 3, 5):
            d = optimal_step_size(q)
            assert quantizer_mse(q, d) < quantizer_mse(q, 0.9 * d)
            assert quantizer_mse(q, d) < quantizer_mse(q, 1.1 * d)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_step_size(0)
        with pytest.raises(ValueError):
            optimal_step_size(13)


class TestBussgang:
    def test_one_bit_closed_form(self):
        gamma, dist = bussgang_constants(1, 2.0)
        expected_gamma = np.sqrt(2.0 / np.pi)  # (delta/2) sqrt(2/pi) at delta=2
        assert np.isclose(gamma, expected_gamma, atol=1e-10)
        assert np.isclose(dist, 1.0 - expected_gamma**2, atol=1e-10)

    def test_fine_quantization_limit(self):
        quant = design_quantizer(12)
        assert quant.gamma >= 0.9999
        assert quant.dist_power <= 1e-6

    def test_monte_carlo_agreement(self):
        # Sampling oracle for one operating point; the acceptance suite
        # repeats this for q = 1..5.
        quant = design_quantizer(3)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1_000_000)
        qx = midrise(x, quant.delta, quant.q)
        gamma_mc = float(np.mean(qx * x) / np.mean(x * x))
        dist_mc = float(np.mean((qx - gamma_mc * x) ** 2))
        assert np.isclose(gamma_mc, quant.gamma, rtol=0.01)
        assert np.isclose(dist_mc, quant.dist_power, rtol=0.01)

    def test_distortion_uncorrelated_with_input(self):
        quant = design_quantizer(2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1_000_000)
        d = midrise(x, quant.delta, quant.q) - quant.gamma * x
        assert abs(np.mean(d * x)) < 3.0 * np.sqrt(quant.dist_power) / 1e3

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            bussgang_constants(3, 0.0)


class TestAgc:
    def test_reference_gains(self):
        c = np.diag([2.0, 8.0]).astype(complex)
        gains = compute_agc(c[None], identity_transform(2, 1))
        assert np.allclose(gains.omega, [1.0, 0.5])

    def test_identity_transform_reduction(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 6, 6)
        c = a @ a.conj().T
        gains = compute_agc(diagonal_blocks(c, 3), identity_transform(6, 3))
        assert np.allclose(gains.omega, np.sqrt(2.0 / np.diagonal(c).real))

    def test_transformed_diagonal(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 8, 8)
        c = a @ a.conj().T
        blocks = diagonal_blocks(c, 2)
        t = design_hr_max(blocks)
        dense = dense_transform_matrix(t)
        expected = np.sqrt(2.0 / np.diagonal(dense @ c @ dense.conj().T).real)
        assert np.allclose(compute_agc(blocks, t).omega, expected, atol=1e-10)

    def test_unit_variance_normalization(self):
        # Under the true receive covariance, the AGC output has unit variance
        # per real dimension (checked by simulation).
        from hdrmimo.equalizer import modulate

        rng = np.random.default_rng(12)
        b, u, n0, draws = 8, 2, 0.2, 100_000
        h = random_complex(rng, b, u)
        c_y = h @ h.conj().T + n0 * np.eye(b)
        t = design_hr_iso(h[:, 0], 2)
        gains = compute_agc(diagonal_blocks(c_y, 2), t)
        s = modulate(rng.integers(0, 2, size=4 * u * draws)).reshape(draws, u).T
        noise = np.sqrt(n0 / 2) * (
            rng.standard_normal((b, draws)) + 1j * rng.standard_normal((b, draws))
        )
        scaled = gains.omega[:, None] * apply_transform(t, h @ s + noise)
        assert np.allclose(np.var(scaled.real, axis=1), 1.0, rtol=0.02)
        assert np.allclose(np.var(scaled.imag, axis=1), 1.0, rtol=0.02)

    def test_rejects_wrong_block_shape(self):
        t = identity_transform(4, 2)
        expected = r"\(C, S, S\) = \(2, 2, 2\).*got shape "
        with pytest.raises(ValueError, match=expected + r"\(4, 4\)"):
            compute_agc(np.eye(4, dtype=complex), t)  # dense, not a stack
        with pytest.raises(ValueError, match=expected + r"\(1, 4, 4\)"):
            compute_agc(np.eye(4, dtype=complex)[None], t)
        with pytest.raises(ValueError, match=expected + r"\(4, 1, 1\)"):
            compute_agc(np.ones((4, 1, 1), dtype=complex), t)

    def test_zero_diagonal_floored(self):
        c = np.diag([0.0, 4.0]).astype(complex)
        gains = compute_agc(c[None], identity_transform(2, 1))
        assert np.all(np.isfinite(gains.omega))
        assert np.all(gains.omega > 0)


class TestQuantizerModelValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            QuantizerModel(q=0, delta=1.0, gamma=0.5, dist_power=0.1)
        with pytest.raises(ValueError):
            QuantizerModel(q=3, delta=-1.0, gamma=0.5, dist_power=0.1)
        with pytest.raises(ValueError):
            QuantizerModel(q=3, delta=1.0, gamma=0.0, dist_power=0.1)

    def test_design_is_cached_and_valid(self):
        a = design_quantizer(4)
        b = design_quantizer(4)
        assert a is b
        assert 0 < a.gamma <= 1 and a.dist_power >= 0


class TestTabulatedDesigns:
    """design_quantizer reads a table; each entry is what the optimizer and
    the exact Gaussian integrals compute."""

    @pytest.mark.parametrize("q", range(1, 13))
    def test_table_is_the_design(self, q):
        quant = design_quantizer(q)
        assert quant.q == q
        # Within the bounded search's xatol of the computed step size.
        assert abs(quant.delta - optimal_step_size(q)) <= 1e-8
        gamma, dist = bussgang_constants(q, quant.delta)
        assert np.isclose(quant.gamma, gamma, rtol=1e-15, atol=0.0)
        assert np.isclose(quant.dist_power, dist, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("q", [0, 13])
    def test_out_of_range(self, q):
        with pytest.raises(ValueError, match="1..12"):
            design_quantizer(q)
