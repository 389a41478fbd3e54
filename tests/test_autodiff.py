import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr

from prognosis import autodiff as ad
from prognosis.autodiff import Tensor
from prognosis.errors import NonFiniteValue, ShapeMismatch
from prognosis.gradcheck import REL_DENOM_FLOOR, central_difference, relative_error
from prognosis.model import default_conv_layers


def param(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def check_grads_against_fd(build_loss, x0, n_coords=20, h=1e-3, tol=1e-4, seed=0):
    """Compare backward() with the gradient oracle on random coordinates."""
    x = param(x0)
    loss = build_loss(x)
    x.zero_grad()
    loss.backward()

    def value():
        with ad.no_grad():
            return build_loss(x).data

    rng = np.random.default_rng(seed)
    for i in rng.choice(x.data.size, size=min(n_coords, x.data.size), replace=False):
        fd = central_difference(value, x.data, i, h)
        assert relative_error(x.grad.flat[i], fd) <= tol, (
            f"coord {i}: autodiff {x.grad.flat[i]} vs fd {fd}"
        )


CONV_SHAPES = sorted({(layer.kernel, layer.stride) for layer in default_conv_layers(1)})


def conv_reference(x, w, b, stride):
    """conv1d as a direct loop over output channels and windows."""
    c_out, _, k = w.shape
    l_out = (x.shape[1] - k) // stride + 1
    y = np.empty((c_out, l_out))
    for o in range(c_out):
        for t in range(l_out):
            y[o, t] = np.sum(w[o] * x[:, t * stride : t * stride + k]) + b[o]
    return y


class TestConv1d:
    def test_hand_example(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        w = Tensor([[[1.0, 1.0]]])
        b = Tensor([0.0])
        out = ad.conv1d(x, w, b, stride=2)
        assert np.allclose(out.data, [[3.0, 7.0]])

    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 10)))
        out = ad.conv1d(x, Tensor([[[1.0]]]), Tensor([0.0]), stride=1)
        assert np.allclose(out.data, x.data)

    def test_length_formula(self):
        x = Tensor(np.zeros((1, 30000)))
        w = Tensor(np.zeros((4, 1, 5)))
        out = ad.conv1d(x, w, Tensor(np.zeros(4)), stride=5)
        assert out.data.shape == (4, 6000)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.conv1d(Tensor(np.zeros((2, 10))), Tensor(np.zeros((3, 1, 3))),
                      Tensor(np.zeros(3)), stride=1)
        with pytest.raises(ShapeMismatch):
            ad.conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 5))),
                      Tensor(np.zeros(1)), stride=1)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kernel, stride", CONV_SHAPES)
    def test_gradients(self, kernel, stride, order):
        rng = np.random.default_rng(1)
        w = param(rng.standard_normal((3, 2, kernel)))
        b = param(rng.standard_normal(3))
        x0 = np.asarray(rng.standard_normal((2, 26)), order=order)  # a tail at every pair
        out = ad.conv1d(Tensor(x0), w, b, stride).data
        np.testing.assert_allclose(out, conv_reference(x0, w.data, b.data, stride), rtol=1e-12)
        check_grads_against_fd(
            lambda x: ad.tsum(ad.mul(y := ad.conv1d(x, w, b, stride), y)), x0
        )
        for x in (param(x0), Tensor(x0)):  # on the tape, then off it

            def wloss(wt):
                return ad.tsum(ad.mul(y := ad.conv1d(x, wt, b, stride), y))

            def bloss(bt):
                return ad.tsum(ad.mul(y := ad.conv1d(x, w, bt, stride), y))

            check_grads_against_fd(wloss, w.data.copy())
            check_grads_against_fd(bloss, b.data.copy())
        off = ad.conv1d(Tensor(x0), w, b, stride)  # backward returns no dx for it
        assert [t for t, _ in off._backward(np.ones_like(off.data))] == [w, b]


class TestInstanceNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 100)))
        out = ad.instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)
        assert np.allclose(out.data.mean(axis=1), 0, atol=1e-6)
        assert np.allclose(out.data.var(axis=1), 1, atol=1e-4)

    def test_constant_channel(self):
        x = Tensor(np.full((1, 50), 3.0))
        out = ad.instance_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        assert np.allclose(out.data, 0)

    def test_affine(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 500)))
        out = ad.instance_norm(x, Tensor(np.full(2, 2.0)), Tensor(np.full(2, 3.0)))
        assert np.allclose(out.data.mean(axis=1), 3, atol=1e-3)
        assert np.allclose(out.data.std(axis=1), 2, atol=1e-3)

    @pytest.mark.parametrize("order", ["C", "F"])  # F: the stem's time-major layout
    def test_gradients(self, order):
        rng = np.random.default_rng(2)
        g = param(rng.standard_normal(3))
        s = param(rng.standard_normal(3))
        check_grads_against_fd(
            lambda x: ad.tsum(ad.mul(y := ad.instance_norm(x, g, s), y)),
            np.asarray(rng.standard_normal((3, 11)), order=order),
        )


def erf_form_cdf(x):
    """Phi(x) as gelu computed it for every dtype before its float32 kernel."""
    phi = np.divide(x, math.sqrt(2.0))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


@pytest.fixture(scope="module")
def f32_grid():
    """4M float32 points over [-8, 8], each with both float32 neighbours,
    and the float64 reference Phi at each."""
    x = np.linspace(-8.0, 8.0, 4_000_000, dtype=np.float32)
    x = np.concatenate(
        [np.nextafter(x, np.float32(-np.inf)), x, np.nextafter(x, np.float32(np.inf))]
    )
    return x, ndtr(x.astype(np.float64))


def gelu_data(x):
    with ad.no_grad():
        return ad.gelu(Tensor(x)).data


class TestGelu:
    def test_zero(self):
        for dtype in (np.float64, np.float32):
            assert gelu_data(np.zeros(1, dtype)).tolist() == [0.0]

    def test_asymptote(self):
        for dtype in (np.float64, np.float32):
            assert float(gelu_data(np.array([10.0], dtype))[0]) == pytest.approx(
                10.0, abs=1e-6
            )
            assert gelu_data(np.array([-30.0, 30.0], dtype)).tolist() == [0.0, 30.0]

    def test_at_one(self):
        assert float(ad.gelu(Tensor([1.0])).data[0]) == pytest.approx(0.84134, abs=1e-4)

    def test_gradients(self):
        check_grads_against_fd(
            lambda x: ad.tsum(ad.gelu(x)),
            np.random.default_rng(3).standard_normal(25),
        )

    def test_float64_keeps_the_erf_form(self):
        x = np.random.default_rng(4).standard_normal((7, 300)) * 3
        assert np.array_equal(gelu_data(x), x * erf_form_cdf(x))

    def test_float32_gelu_no_worse_than_the_erf_form(self, f32_grid):
        x, phi_ref = f32_grid
        ref = x.astype(np.float64) * phi_ref
        for name, sel in (("all", slice(None)), ("|x| < 4", np.abs(x) < 4)):
            erf_form = np.max(np.abs(x[sel] * erf_form_cdf(x[sel]) - ref[sel]))
            kernel = np.max(np.abs(gelu_data(x[sel]) - ref[sel]))
            assert kernel <= erf_form, (name, kernel, erf_form)

    def test_float32_cdf_within_two_ulps_of_one(self, f32_grid):
        x, phi_ref = f32_grid
        assert np.max(np.abs(ad._normal_cdf32(x) - phi_ref)) <= 2 * np.finfo(np.float32).eps

    def test_float32_gradient_matches_float64(self, f32_grid):
        x, phi_ref = f32_grid
        xt = Tensor(x, requires_grad=True)
        ad.tsum(ad.gelu(xt)).backward()
        x64 = x.astype(np.float64)
        want = phi_ref + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
        assert xt.grad.dtype == np.float32
        assert np.max(np.abs(xt.grad - want)) <= 1e-6

    def test_float32_layouts(self):
        x = np.random.default_rng(5).standard_normal((32, 600)).astype(np.float32)
        want = gelu_data(x)
        f_ordered = gelu_data(np.asfortranarray(x))
        assert np.array_equal(f_ordered, want)
        assert np.array_equal(gelu_data(x[:, ::3]), want[:, ::3])
        assert np.array_equal(gelu_data(x[3, 7]), want[3, 7])
        assert gelu_data(x[3, 7]).shape == ()
        assert gelu_data(np.zeros((0, 5), np.float32)).shape == (0, 5)

    def test_float32_blocks_equal_one_pass(self, monkeypatch):
        n = int(3.5 * ad._CDF32_BLOCK)
        x = np.random.default_rng(6).standard_normal(n).astype(np.float32) * 4
        blocked = ad._normal_cdf32(x)
        monkeypatch.setattr(ad, "_CDF32_BLOCK", n)
        assert np.array_equal(blocked, ad._normal_cdf32(x))


class TestLinear:
    def test_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        out = ad.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x.data)

    def test_affine(self):
        out = ad.linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([10.0, 20.0]))
        assert np.allclose(out.data, [11.0, 22.0])

    def test_batch_shape_preserved(self):
        x = Tensor(np.zeros((5, 3, 7)))
        out = ad.linear(x, Tensor(np.zeros((7, 2))), Tensor(np.zeros(2)))
        assert out.data.shape == (5, 3, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        w = param(rng.standard_normal((5, 3)))
        b = param(rng.standard_normal(3))
        check_grads_against_fd(
            lambda x: ad.tsum(ad.mul(y := ad.linear(x, w, b), y)),
            rng.standard_normal((4, 5)),
        )


class TestLayerNorm:
    def test_zero_mean(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 16)))
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0, atol=1e-6)

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        x = (x - x.mean()) / x.std()
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)),
                            eps=1e-10)
        assert np.allclose(out.data, x, atol=1e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(32)
        g, s = Tensor(np.ones(32)), Tensor(np.zeros(32))
        a = ad.layer_norm(Tensor(x), g, s, eps=1e-10).data
        b = ad.layer_norm(Tensor(10 * x), g, s, eps=1e-10).data
        assert np.allclose(a, b, atol=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        g = param(rng.standard_normal(6))
        s = param(rng.standard_normal(6))
        check_grads_against_fd(
            lambda x: ad.tsum(ad.mul(y := ad.layer_norm(x, g, s), y)),
            rng.standard_normal((4, 6)),
        )


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor(np.zeros(5)))
        assert np.allclose(out.data, 0.2)

    def test_shift_invariance(self):
        x = np.random.default_rng(0).standard_normal(7)
        assert np.allclose(
            ad.softmax(Tensor(x)).data, ad.softmax(Tensor(x + 123.0)).data
        )

    def test_hand_example(self):
        out = ad.softmax(Tensor([0.0, math.log(3)]))
        assert np.allclose(out.data, [0.25, 0.75])

    @given(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=16)
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, xs):
        out = ad.softmax(Tensor(np.array(xs)))
        assert float(out.data.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_gradients(self):
        check_grads_against_fd(
            lambda x: ad.tsum(ad.mul(y := ad.softmax(x), y)),
            np.random.default_rng(6).standard_normal((3, 5)),
        )


class TestBackward:
    def test_shared_leaf_through_views(self):
        # two disjoint subgraphs share leaves behind reshape/concat; the
        # view-heavy backward path must not alias accumulated gradients
        leaf = param(np.arange(4.0))
        pos = param(np.ones((3, 4)))
        filler = Tensor(np.ones((2, 4)))

        def branch():
            row = ad.reshape(leaf, (1, 4))
            seq = ad.concat([row, filler], axis=0)
            return ad.tsum(ad.add(seq, pos))

        leaf.zero_grad()
        pos.zero_grad()
        ad.add(branch(), branch()).backward()
        assert np.allclose(leaf.grad, 2.0)
        assert np.allclose(pos.grad, 2.0)

    def test_sum_gradient_ones(self):
        x = param(np.arange(4.0))
        x.zero_grad()
        ad.tsum(x).backward()
        assert np.allclose(x.grad, 1.0)

    def test_power_rule(self):
        x = param([1.0, 2.0])
        x.zero_grad()
        ad.tsum(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_unreachable_parameter_zero_grad(self):
        x = param([1.0, 2.0])
        unused = param([5.0])
        x.zero_grad()
        unused.zero_grad()
        ad.tsum(x).backward()
        assert np.allclose(unused.grad, 0.0)

    def test_not_scalar_loss(self):
        with pytest.raises(ShapeMismatch, match="loss must be scalar"):
            param([1.0, 2.0]).backward()

    def test_diamond_graph_accumulates(self):
        x = param([3.0])
        x.zero_grad()
        ad.tsum(ad.add(ad.mul(x, x), x)).backward()  # d/dx (x^2 + x) = 2x + 1
        assert np.allclose(x.grad, [7.0])

    def test_determinism(self):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((4, 8))

        def run():
            x = param(x0.copy())
            x.zero_grad()
            y = ad.softmax(ad.gelu(x))
            ad.tsum(ad.mul(y, y)).backward()
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            Tensor([np.inf])
        with pytest.raises(NonFiniteValue):
            ad.log(Tensor([0.0]))


class TestMatmulAndGlue:
    def test_matmul_gradients(self):
        rng = np.random.default_rng(8)
        b = param(rng.standard_normal((2, 4, 3)))
        check_grads_against_fd(
            lambda a: ad.tsum(ad.mul(y := ad.matmul(a, b), y)),
            rng.standard_normal((2, 5, 4)),
        )

    def test_concat_slice_transpose_gradients(self):
        rng = np.random.default_rng(9)

        def loss(x):
            y = ad.concat([x, ad.scale(x, 2.0)], axis=0)
            y = ad.transpose(y, (1, 0))
            y = ad.slice_rows(y, 1, 3)
            return ad.tsum(ad.mul(y, y))

        check_grads_against_fd(loss, rng.standard_normal((3, 4)))

    def test_sigmoid_clip_log_gradients(self):
        rng = np.random.default_rng(10)

        def loss(x):
            p = ad.clip(ad.sigmoid(x), 1e-7, 1 - 1e-7)
            return ad.scale(ad.tmean(ad.log(p)), -1.0)

        check_grads_against_fd(loss, rng.standard_normal(30))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.array([1.0, 2.0])
        g = [central_difference(lambda: np.sum(x**2), x, i) for i in range(2)]
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)
        assert np.array_equal(x, [1.0, 2.0])  # restored

    def test_constant(self):
        x = np.array([1.0, 2.0])
        assert [central_difference(lambda: 7.0, x, i) for i in range(2)] == [0.0, 0.0]

    def test_gelu_derivative(self):
        x = np.array([0.5])

        def f():
            with ad.no_grad():
                return float(ad.tsum(ad.gelu(Tensor(x))).data)

        from scipy.stats import norm

        expected = norm.cdf(0.5) + 0.5 * norm.pdf(0.5)
        assert central_difference(f, x, 0) == pytest.approx(expected, abs=1e-4)

    def test_f_ordered_input_is_perturbed_in_place(self):
        weights = np.arange(6.0).reshape(2, 3)
        x = np.asfortranarray(np.ones((2, 3)))
        g = [central_difference(lambda: np.sum(weights * x), x, i) for i in range(6)]
        assert np.allclose(g, weights.reshape(-1))  # C-order flat index
        assert x.flags.f_contiguous and np.all(x == 1.0)

    def test_relative_error_floor(self):
        assert relative_error(2.0, 1.0) == 0.5
        # below the floor the rule is an absolute check
        assert relative_error(0.0, 1e-3) == pytest.approx(1e-3 / REL_DENOM_FLOOR)
