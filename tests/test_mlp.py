"""Unit tests for the NumPy MLP and fixed-point quantisation."""

import numpy as np
import pytest

from repro.models.mlp import FIXED16, FIXED32, FixedPointFormat, Mlp, sigmoid


class TestFixedPointFormat:
    def test_resolution(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=12)
        assert fmt.resolution == pytest.approx(2**-12)

    def test_quantize_rounds_to_grid(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        x = np.array([0.1, -0.1, 1.0], dtype=np.float32)
        q = fmt.quantize(x)
        np.testing.assert_allclose(q * fmt.scale, np.rint(q * fmt.scale))
        np.testing.assert_allclose(q, x, atol=fmt.resolution / 2 + 1e-9)

    def test_quantize_saturates(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=4)
        q = fmt.quantize(np.array([100.0, -100.0]))
        assert q[0] == pytest.approx(fmt.max_int / fmt.scale)
        assert q[1] == pytest.approx(fmt.min_int / fmt.scale)

    def test_idempotent(self):
        fmt = FIXED16
        x = np.linspace(-2, 2, 101).astype(np.float32)
        once = fmt.quantize(x)
        np.testing.assert_array_equal(fmt.quantize(once), once)

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32, FixedPointFormat(8, 7)])
    def test_float32_input_rounds_as_in_float64(self, rng, fmt):
        """The float32 fast path is bit-identical to rounding in float64."""
        grid = np.arange(-5, 6) / fmt.scale
        x = np.concatenate(
            [
                rng.standard_normal(4096) * 4,
                grid + 0.5 / fmt.scale,  # ties
                [fmt.max_int / fmt.scale, fmt.min_int / fmt.scale, 1e30],
                [-1e30, np.inf, -np.inf, 0.0, -0.0],
            ]
        ).astype(np.float32)
        fast = fmt.quantize(x)
        slow = fmt.quantize(x.astype(np.float64))
        assert fast.dtype == slow.dtype == np.float32
        np.testing.assert_array_equal(
            fast.view(np.uint32), slow.view(np.uint32)
        )

    @pytest.mark.parametrize("bits,frac", [(12, 4), (16, 16), (16, -1)])
    def test_invalid_formats_rejected(self, bits, frac):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=bits, frac_bits=frac)


class TestSigmoid:
    def test_matches_definition(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        np.testing.assert_allclose(sigmoid(x), 1 / (1 + np.exp(-x)), rtol=1e-5)

    def test_stable_at_extremes(self):
        out = sigmoid(np.array([-1e4, 1e4], dtype=np.float32))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)


class TestMlp:
    def test_forward_matches_manual(self, rng):
        mlp = Mlp.random([(4, 3), (3, 1)], seed=0)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        h = np.maximum(x @ mlp.weights[0] + mlp.biases[0], 0)
        expected = sigmoid((h @ mlp.weights[1] + mlp.biases[1])[:, 0])
        np.testing.assert_allclose(mlp.forward(x), expected, rtol=1e-6)

    def test_output_is_probability(self, rng):
        mlp = Mlp.random([(16, 8), (8, 1)], seed=1)
        out = mlp.forward(rng.standard_normal((100, 16)).astype(np.float32))
        assert out.shape == (100,)
        assert (out > 0).all() and (out < 1).all()

    def test_ops_per_item(self):
        mlp = Mlp.random([(352, 1024), (1024, 512), (512, 256), (256, 1)])
        assert mlp.ops_per_item == 2 * (
            352 * 1024 + 1024 * 512 + 512 * 256 + 256
        )

    def test_layer_shape_validation(self):
        w = [np.zeros((4, 3)), np.zeros((5, 1))]  # 3 != 5
        b = [np.zeros(3), np.zeros(1)]
        with pytest.raises(ValueError):
            Mlp(w, b)

    def test_bias_shape_validation(self):
        with pytest.raises(ValueError):
            Mlp([np.zeros((4, 3))], [np.zeros(4)])

    def test_input_width_validation(self, rng):
        mlp = Mlp.random([(4, 1)])
        with pytest.raises(ValueError):
            mlp.forward(rng.standard_normal((2, 5)).astype(np.float32))

    def test_deterministic_init(self):
        a = Mlp.random([(8, 4), (4, 1)], seed=3)
        b = Mlp.random([(8, 4), (4, 1)], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_quantized_copy_leaves_original(self):
        mlp = Mlp.random([(8, 4), (4, 1)], seed=2)
        w0 = mlp.weights[0].copy()
        mlp.quantized(FIXED16)
        np.testing.assert_array_equal(mlp.weights[0], w0)

    @pytest.mark.parametrize("fmt,tol", [(FIXED16, 5e-3), (FIXED32, 1e-5)])
    def test_quantised_forward_close_to_fp32(self, rng, fmt, tol):
        """The paper serves the same model at 16/32-bit fixed point; the
        CTR outputs must stay close to the fp32 reference."""
        mlp = Mlp.random([(64, 32), (32, 16), (16, 1)], seed=4)
        x = (rng.standard_normal((200, 64)) * 0.5).astype(np.float32)
        ref = mlp.forward(x)
        quant = mlp.quantized(fmt).forward(x, fmt=fmt)
        assert np.abs(quant - ref).max() < tol
