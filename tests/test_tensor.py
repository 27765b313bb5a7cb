import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import dcot.tensor
from dcot.tensor import (
    _mode_product,
    _mode_product_in_place,
    _multilinear,
    _unfold,
    frob_inner,
    frob_norm,
    matricize,
    multilinear_product,
    n_mode_product,
)


def shapes_strategy(max_modes=4, max_elems=48):
    def ok(shape):
        prod = 1
        for s in shape:
            prod *= s
        return prod <= max_elems

    return st.lists(st.integers(1, 6), min_size=1, max_size=max_modes).filter(ok)


class TestMatricizeFold:
    def test_one_mode_tensor_is_column(self):
        t = np.arange(5.0)
        m = matricize(t, 0)
        assert m.shape == (5, 1)
        assert np.array_equal(m[:, 0], t)

    def test_2x2x2_row_multiset(self):
        # t[i,j,k] = 100 i + 10 j + k with 1-based labels
        t = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
        m = matricize(t, 0)
        assert m.shape == (2, 4)
        assert sorted(m[0]) == [111, 112, 121, 122]
        assert sorted(m[1]) == [211, 212, 221, 222]

    def test_column_formula_matches_oracle(self, rng):
        for shape in [(3,), (2, 3), (4, 2, 3), (2, 2, 2, 2)]:
            t = rng.standard_normal(shape)
            for mode in range(len(shape)):
                assert np.array_equal(matricize(t, mode), oracles.matricize_oracle(t, mode))

    @given(shapes_strategy(), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_roundtrip_bitwise(self, shape, mode, rnd):
        mode = mode % len(shape)
        t = np.random.default_rng(rnd.randint(0, 2**32)).standard_normal(shape)
        assert np.array_equal(oracles.fold(matricize(t, mode), mode, tuple(shape)), t)

    def test_fold_zero(self):
        assert np.array_equal(oracles.fold(np.zeros((2, 6)), 0, (2, 3, 2)),
                              np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4, 5])
    def test_equals_moveaxis_reshape_bitwise(self, ndim, rng):
        # matricize's one transpose against the np.moveaxis form it replaced
        def moveaxis_form(t, mode):
            return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")

        shape = (4, 3, 2, 3, 2)[:ndim]
        t = rng.standard_normal(shape)
        cases = {"c-order": t, "f-order": np.asfortranarray(t),
                 "strided-view": rng.standard_normal([2 * s for s in shape])[
                     (slice(None, None, 2),) * ndim],
                 "transposed-view": t.T}
        if ndim > 1:
            cases["zero-length-mode"] = np.zeros(shape[:-1] + (0,))
        for name, x in cases.items():
            for mode in range(ndim):
                if x.shape[mode] == 0:  # the documented 0 x prod(other dims) matrix
                    others = math.prod(s for m, s in enumerate(x.shape) if m != mode)
                    assert matricize(x, mode).shape == (0, others), (name, mode)
                    continue
                got, want = matricize(x, mode), moveaxis_form(x, mode)
                assert got.shape == want.shape, (name, mode)
                assert np.array_equal(got, want), (name, mode)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            matricize(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            oracles.fold(np.zeros((2, 2)), -1, (2, 2))

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.fold(np.zeros((2, 5)), 0, (2, 3, 2))


class TestNModeProduct:
    def test_identity(self, rng):
        t = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            assert np.allclose(n_mode_product(t, np.eye(t.shape[mode]), mode), t)

    def test_scalar_matrix_doubles(self, rng):
        t = rng.standard_normal((2, 2))
        assert np.allclose(n_mode_product(t, 2 * np.eye(2), 0), 2 * t)

    def test_matches_loop_oracle(self, rng):
        t = rng.standard_normal((2, 3, 2))
        u = rng.standard_normal((4, 3))
        got = n_mode_product(t, u, 1)
        assert got.shape == (2, 4, 2)
        assert np.allclose(got, oracles.n_mode_oracle(t, u, 1), atol=1e-12)

    def test_matricized_identity(self, rng):
        t = rng.standard_normal((3, 2, 4))
        u = rng.standard_normal((5, 2))
        got = matricize(n_mode_product(t, u, 1), 1)
        assert np.allclose(got, u @ matricize(t, 1), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            n_mode_product(rng.standard_normal((2, 3)), rng.standard_normal((4, 4)), 1)

    def test_matches_matricized_formula_on_small_shapes(self, rng):
        for shape in oracles.small_shapes():
            t = rng.standard_normal(shape)
            for mode, size in enumerate(shape):
                u = rng.standard_normal((3, size))
                new_shape = shape[:mode] + (3,) + shape[mode + 1 :]
                want = oracles.fold(u @ matricize(t, mode), mode, new_shape)
                got = n_mode_product(t, u, mode)
                assert got.shape == new_shape
                assert got.flags.c_contiguous, (shape, mode)
                assert np.allclose(got, want, rtol=0, atol=1e-12)
                assert np.allclose(got, oracles.n_mode_oracle(t, u, mode),
                                   rtol=0, atol=1e-12), (shape, mode)

    def test_non_contiguous_input_matches_contiguous_copy(self, rng):
        t = rng.standard_normal((4, 3, 5)).transpose(2, 0, 1)
        assert not t.flags.c_contiguous
        for mode, size in enumerate(t.shape):
            u = rng.standard_normal((2, size))
            got = n_mode_product(t, u, mode)
            assert got.flags.c_contiguous
            assert np.array_equal(got, n_mode_product(np.ascontiguousarray(t), u, mode))

    def test_out_buffer_receives_the_same_product(self, rng):
        t = rng.standard_normal((4, 3, 5))
        for mode, size in enumerate(t.shape):
            u = rng.standard_normal((2, size))
            want = n_mode_product(t, u, mode)
            buf = np.empty(want.shape)
            assert n_mode_product(t, u, mode, out=buf) is buf
            assert np.array_equal(buf, want)
        for bad in (np.empty((4, 3, 2)), np.empty((5, 3, 4)).transpose(2, 1, 0),
                    np.empty((4, 3, 5), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                n_mode_product(t, rng.standard_normal((4, 4)), 0, out=bad)

    @pytest.mark.parametrize(
        "t_shape, u_shape, mode, out_shape",
        [
            ((0, 3, 4), (2, 3), 1, (0, 2, 4)),
            ((3, 4), (0, 3), 0, (0, 4)),
            ((3, 0), (2, 0), 1, (3, 2)),
            ((0, 3), (2, 0), 0, (2, 3)),
            ((2, 0, 3), (4, 3), 2, (2, 0, 4)),
        ],
    )
    def test_zero_length_modes(self, t_shape, u_shape, mode, out_shape):
        got = n_mode_product(np.ones(t_shape), np.ones(u_shape), mode)
        assert got.shape == out_shape
        assert not got.any()


class TestMultilinearProduct:
    def test_identity_factors(self, rng):
        core = rng.standard_normal((2, 3, 2))
        eye = [np.eye(s) for s in core.shape]
        assert np.allclose(multilinear_product(core, eye), core)

    def test_rank_one_outer_product(self, rng):
        a = rng.standard_normal((4, 1))
        b = rng.standard_normal((3, 1))
        got = multilinear_product(np.ones((1, 1)), [a, b])
        assert np.allclose(got, np.outer(a, b))

    def test_matches_full_loop_oracle(self, rng):
        core = rng.standard_normal((2, 2, 2))
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2)),
                   rng.standard_normal((2, 2))]
        assert np.allclose(
            multilinear_product(core, factors),
            oracles.multilinear_oracle(core, factors),
            atol=1e-12,
        )

    def test_mode_order_invariance(self, rng):
        import itertools

        core = rng.standard_normal((2, 3, 2))
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((2, 3)),
                   rng.standard_normal((5, 2))]
        seq = multilinear_product(core, factors)
        for order in itertools.permutations(range(3)):
            out = core
            for mode in order:
                out = n_mode_product(out, factors[mode], mode)
            assert np.allclose(seq, out, atol=1e-12)

    def test_none_entry_skips_its_mode(self, rng):
        core = rng.standard_normal((2, 3, 2))
        factors = [rng.standard_normal((4, 2)), None, rng.standard_normal((5, 2))]
        want = n_mode_product(n_mode_product(core, factors[0], 0), factors[2], 2)
        assert np.array_equal(multilinear_product(core, factors), want)
        assert np.array_equal(multilinear_product(core, [None] * 3), core)

    def test_factor_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            multilinear_product(rng.standard_normal((2, 2)), [np.eye(2)])


class TestUncheckedKernels:
    """The solver's unchecked kernels give the checked functions' arrays bitwise."""

    SHAPES = [(4, 3, 5), (2, 3, 4, 2), (0, 3, 4), (3, 0), (2, 0, 3), (5,)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mode_product(self, shape, rng):
        t = rng.standard_normal(shape)
        for mode, size in enumerate(shape):
            for rows in (2, 0):
                u = rng.standard_normal((rows, size))
                want = n_mode_product(t, u, mode)
                got = _mode_product(t, u, mode)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()
                buf, want_buf = np.empty(want.shape), np.empty(want.shape)
                assert _mode_product(t, u, mode, out=buf) is buf
                n_mode_product(t, u, mode, out=want_buf)
                assert buf.tobytes() == want_buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unfold_and_multilinear(self, shape, rng):
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            got, want = _unfold(t, mode), matricize(t, mode)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        factors = [rng.standard_normal((2, s)) if n % 2 == 0 else None
                   for n, s in enumerate(shape)]
        assert _multilinear(t, factors).tobytes() == \
            multilinear_product(t, factors).tobytes()


class TestModeProductInPlace:
    """Written over its input, the product is _mode_product's: bitwise in one block."""

    SHAPES = [(4, 3, 5), (2, 3, 4, 2), (6, 5), (7,), (0, 3, 4), (2, 0, 3)]

    # one block for every shape; then several, with a partial last one, on
    # each of the column, slab and row paths; at 3, fibers longer than a block
    @pytest.mark.parametrize("block", [4096, 7, 32, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_mode_product(self, shape, block, rng, monkeypatch):
        monkeypatch.setattr(dcot.tensor, "_BLOCK", block)
        t = rng.standard_normal(shape)
        for mode, size in enumerate(shape):
            u = rng.standard_normal((size, size))
            want = _mode_product(t, u, mode)
            got = t.copy()
            assert _mode_product_in_place(got, u, mode) is got
            if t.size <= block:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_scratch_is_one_block(self, rng, monkeypatch):
        # a 40 x 40 x 40 tensor takes blocks of 64 cells, and nothing else of its size
        from conftest import traced_memory

        monkeypatch.setattr(dcot.tensor, "_BLOCK", 64)
        t = rng.standard_normal((40, 40, 40))
        u = rng.standard_normal((40, 40))
        for mode in range(3):
            with traced_memory() as mem:
                _mode_product_in_place(t, u / 40, mode)
            assert mem.peak < 0.05 * t.nbytes


class TestInnerAndNorm:
    def test_zero(self, rng):
        t = rng.standard_normal((2, 3))
        assert frob_inner(t, np.zeros_like(t)) == 0.0

    def test_all_ones(self):
        t = np.ones((2, 2))
        assert frob_inner(t, t) == 4.0

    def test_matches_flat_loop_oracle(self, rng):
        a, b = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2))
        assert np.isclose(frob_inner(a, b), oracles.inner_oracle(a, b), atol=1e-12)

    def test_norm_is_sqrt_inner(self, rng):
        a = rng.standard_normal((4, 3))
        assert frob_norm(a) == np.sqrt(frob_inner(a, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frob_inner(np.zeros((2, 2)), np.zeros((2, 3)))


def test_vec_is_first_mode_fastest():
    t = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(oracles.vec(t), np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0]))
