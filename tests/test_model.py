import math

import numpy as np
import pytest

from helpers import finite_diff_check
from momentset import tensor as tt
from momentset.errors import ConfigError, ShapeError
from momentset.model import (MAX_PARAMS, ModelConfig, MomentSetModel, _init_normal,
                             init_params, param_count, param_shapes)
from momentset.tensor import Tensor


def tiny_config(**kw):
    base = dict(feature_dim=6, model_dim=8, conv_kernel=2, enc_layers=1,
                dec_layers=1, heads=2, head_dim=4, queries=3,
                temporal_rows=8, ffn_hidden=16)
    base.update(kw)
    return ModelConfig(**base)


def make(config, seed=0):
    return MomentSetModel(config, init_params(config, np.random.default_rng(seed)))


@pytest.fixture(autouse=True)
def fresh_tape():
    tt.clear_tape()
    yield
    tt.clear_tape()


class TestConfig:
    def test_head_dim_mismatch(self):
        with pytest.raises(ConfigError, match="head_dim"):
            make(tiny_config(heads=3))

    def test_odd_model_dim(self):
        with pytest.raises(ConfigError, match="even"):
            make(tiny_config(model_dim=7, heads=1, head_dim=7))

    def test_default_param_count(self):
        params = make(ModelConfig()).params.values()
        assert sum(p.data.size for p in params) == 349954

    @pytest.mark.parametrize("config", [
        ModelConfig(), ModelConfig.paper_scale(), tiny_config(enc_layers=0, dec_layers=3),
        tiny_config(enc_layers=4, dec_layers=0)], ids=["default", "paper", "dec3", "enc4"])
    def test_param_count_is_the_layout_size(self, config):
        assert param_count(config) == sum(math.prod(s) for _, s in param_shapes(config))

    @pytest.mark.parametrize("field, value", [
        ("queries", 2 ** 40), ("ffn_hidden", 2 ** 40), ("temporal_rows", 2 ** 40),
        ("feature_dim", 2 ** 40), ("enc_layers", 10 ** 7), ("dec_layers", 2 ** 64)])
    def test_model_above_the_parameter_cap_is_refused(self, field, value):
        """Counted in closed form, so 2^64 layers are refused at once."""
        with pytest.raises(ConfigError, match="parameter count"):
            ModelConfig(**{field: value})

    def test_paper_scale_is_far_inside_the_parameter_cap(self):
        assert param_count(ModelConfig.paper_scale()) * 16 < MAX_PARAMS


class TestTokenize:
    def test_frame_counts(self):
        model = make(tiny_config(conv_kernel=7, feature_dim=6))
        feats = np.zeros((14, 6))
        assert model.tokenize(feats).data.shape[0] == 2

    def test_remainder_dropped(self):
        model = make(tiny_config(conv_kernel=7, feature_dim=6))
        base = np.random.default_rng(0).standard_normal((14, 6))
        extra = np.vstack([base, np.ones((1, 6))])
        np.testing.assert_array_equal(
            model.tokenize(base).data, model.tokenize(extra).data)

    def test_too_short(self):
        model = make(tiny_config(conv_kernel=7))
        with pytest.raises(ShapeError):
            model.tokenize(np.zeros((6, 6)))

    def test_kernel_one_is_per_frame_linear_map(self):
        model = make(tiny_config(conv_kernel=1))
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 6))
        w = model.params["conv.w"].data
        b = model.params["conv.b"].data
        np.testing.assert_allclose(
            model.tokenize(feats).data, feats @ w + b, atol=1e-12)


class TestEncodeDecode:
    def test_zero_layer_encoder_is_tokens_plus_te(self):
        model = make(tiny_config(enc_layers=0))
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((8, 6))
        tokens = model.tokenize(feats)
        out = model.encode(tokens).data
        expect = tokens.data + model.temporal.interpolate(4).data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_zero_value_attention_preserves_residual(self):
        model = make(tiny_config(enc_layers=1))
        model.params["enc.0.attn.wv.w"].data[:] = 0.0
        model.params["enc.0.attn.wo.b"].data[:] = 0.0
        model.params["enc.0.ffn.fc2.w"].data[:] = 0.0
        model.params["enc.0.ffn.fc2.b"].data[:] = 0.0
        rng = np.random.default_rng(3)
        tokens = model.tokenize(rng.standard_normal((8, 6)))
        expect = tokens.data + model.temporal.interpolate(4).data
        np.testing.assert_allclose(model.encode(tokens).data, expect, atol=1e-12)

    def test_zero_layer_decoder_returns_queries(self):
        model = make(tiny_config(dec_layers=0))
        memory = Tensor(np.zeros((4, 8)))
        np.testing.assert_array_equal(
            model.decode(memory).data, model.params["queries"].data)

    def test_single_head_attention_matches_hand_rolled(self):
        model = make(tiny_config(heads=1, head_dim=8, enc_layers=1))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8))
        p = model.params
        q = x @ p["enc.0.attn.wq.w"].data + p["enc.0.attn.wq.b"].data
        k = x @ p["enc.0.attn.wk.w"].data + p["enc.0.attn.wk.b"].data
        v = x @ p["enc.0.attn.wv.w"].data + p["enc.0.attn.wv.b"].data
        logits = q @ k.T / np.sqrt(8)
        att = np.exp(logits - logits.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        expect = (att @ v) @ p["enc.0.attn.wo.w"].data + p["enc.0.attn.wo.b"].data
        got = model._attention("enc.0.attn", Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_fused_attention_matches_per_head_reference(self):
        model = make(tiny_config(model_dim=8, heads=4, head_dim=2))
        rng = np.random.default_rng(12)
        q_in = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        kv_in = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        p = model.params
        names = [f"enc.0.attn.{w}.w" for w in ("wq", "wk", "wv", "wo")]

        def per_head():
            def lin(w, x):
                return tt.matmul(x, p[f"enc.0.attn.{w}.w"]) + p[f"enc.0.attn.{w}.b"]
            q, k, v = lin("wq", q_in), lin("wk", kv_in), lin("wv", kv_in)
            outs = []
            for h in range(4):
                qh, kh, vh = (tt.narrow(t, 1, 2 * h, 2) for t in (q, k, v))
                att = tt.softmax(tt.scale(tt.matmul(qh, tt.transpose(kh)),
                                          1.0 / np.sqrt(2)))
                outs.append(tt.matmul(att, vh))
            return lin("wo", tt.cat(outs, axis=1))

        def run(build):
            tt.clear_tape()
            for t in (q_in, kv_in, *(p[n] for n in names)):
                t.grad = None
            out = build()
            tt.backward(tt.tsum(tt.sigmoid(out)))
            return out.data, [t.grad.copy() for t in (q_in, kv_in, *(p[n] for n in names))]

        got, got_grads = run(lambda: model._attention("enc.0.attn", q_in, kv_in))
        expect, expect_grads = run(per_head)
        assert got.shape == (3, 8)
        np.testing.assert_allclose(got, expect, atol=1e-12)
        for g, e in zip(got_grads, expect_grads):
            np.testing.assert_allclose(g, e, atol=1e-12)

    def test_stacked_attention_matches_each_item(self):
        model = make(tiny_config(model_dim=8, heads=4, head_dim=2))
        rng = np.random.default_rng(13)
        q_in = rng.standard_normal((2, 3, 8))
        kv_in = rng.standard_normal((2, 5, 8))
        got = model._attention("enc.0.attn", Tensor(q_in), Tensor(kv_in)).data
        for b in range(2):
            np.testing.assert_allclose(
                got[b], model._attention("enc.0.attn", Tensor(q_in[b]),
                                         Tensor(kv_in[b])).data, atol=1e-12)

    def test_zero_layer_decoder_keeps_batch_axis(self):
        model = make(tiny_config(dec_layers=0))
        out = model.decode(Tensor(np.zeros((2, 4, 8)))).data
        assert out.shape == (2, 3, 8)
        for b in range(2):
            np.testing.assert_array_equal(out[b], model.params["queries"].data)

    def test_constant_memory_gives_identical_cross_attention(self):
        model = make(tiny_config(dec_layers=1))
        memory = Tensor(np.tile(np.random.default_rng(5).standard_normal(8), (4, 1)))
        out = model._attention("dec.0.cross", model.params["queries"], memory).data
        np.testing.assert_allclose(out, np.tile(out[0], (3, 1)), atol=1e-10)


class TestProject:
    def test_output_shapes_and_norms(self):
        model = make(tiny_config())
        rng = np.random.default_rng(6)
        pred = model.forward(rng.standard_normal((10, 6)))
        assert pred.visual.data.shape == (3, 6)
        assert pred.te_start.data.shape == (3, 8)
        assert pred.te_end.data.shape == (3, 8)
        for t in (pred.visual, pred.te_start, pred.te_end):
            np.testing.assert_allclose(
                np.linalg.norm(t.data, axis=1), 1.0, atol=1e-9)

    def test_head_matches_explicit_ffn(self):
        from scipy.special import erf
        model = make(tiny_config())
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8))
        p = model.params
        h = x @ p["head.visual.fc1.w"].data + p["head.visual.fc1.b"].data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2)))
        raw = h @ p["head.visual.fc2.w"].data + p["head.visual.fc2.b"].data
        got = model.project(Tensor(x)).visual.data
        np.testing.assert_allclose(
            got, raw / np.linalg.norm(raw, axis=1, keepdims=True), atol=1e-10)

    def test_temporal_split_layout(self):
        model = make(tiny_config())
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 8)))
        from momentset.model import _ffn
        te = _ffn(model.params, "head.temporal", x).data
        pred = model.project(x)
        for i in range(3):
            s = te[i, :8] / np.linalg.norm(te[i, :8])
            np.testing.assert_allclose(pred.te_start.data[i], s, atol=1e-10)


class TestForward:
    def test_deterministic(self):
        model = make(tiny_config())
        feats = np.random.default_rng(9).standard_normal((12, 6))
        a = model.forward(feats)
        b = model.forward(feats)
        np.testing.assert_array_equal(a.visual.data, b.visual.data)

    def test_time_awareness(self):
        # rolling the frame axis must change predictions: TEs break shift
        # invariance by construction
        model = make(tiny_config())
        feats = np.random.default_rng(10).standard_normal((12, 6))
        a = model.forward(feats).visual.data
        b = model.forward(np.roll(feats, 4, axis=0)).visual.data
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("layers", [1, 0])
    def test_forward_chunks_match_forward(self, layers):
        model = make(tiny_config(enc_layers=layers, dec_layers=layers))
        rng = np.random.default_rng(14)
        chunks = [rng.standard_normal((t, 6)) for t in (12, 9, 12, 9, 12)]
        preds = model.forward_chunks(chunks)
        assert preds.visual.data.shape[0] == len(chunks)
        for b, features in enumerate(chunks):
            single = model.forward(features)
            for got, expect in ((preds.visual, single.visual),
                                (preds.te_start, single.te_start),
                                (preds.te_end, single.te_end)):
                assert got.data[b].shape == expect.data.shape
                np.testing.assert_allclose(got.data[b], expect.data, atol=1e-12)

    def test_forward_chunks_without_te_keep_the_visual_bits(self):
        """te=False returns no TE and the visual rows of the full forward,
        bit for bit, for mixed lengths put back in input order."""
        model = make(tiny_config())
        rng = np.random.default_rng(16)
        chunks = [rng.standard_normal((t, 6)) for t in (12, 9, 12)]
        full = model.forward_chunks(chunks)
        visual_only = model.forward_chunks(chunks, te=False)
        assert visual_only.te_start is None and visual_only.te_end is None
        assert visual_only.visual.data.tobytes() == full.visual.data.tobytes()

    def test_forward_chunks_stack_whole_windows(self, monkeypatch):
        model = make(tiny_config())
        seen = []
        tokenize = model.tokenize

        def spy(features):
            seen.append(features.shape)
            return tokenize(features)

        monkeypatch.setattr(model, "tokenize", spy)
        rng = np.random.default_rng(15)
        model.forward_chunks([rng.standard_normal((t, 6)) for t in (9, 12, 9)])
        assert sorted(seen) == [(1, 12, 6), (2, 8, 6)]

    def test_forward_chunks_of_float32_chunks_stack_float64(self, monkeypatch):
        """float32 chunks of mixed lengths, the dtype datagen holds, give the
        prediction of their float64 upcasts bit for bit; each stack that
        tokenize gets is already float64."""
        model = make(tiny_config())
        rng = np.random.default_rng(17)
        chunks = [rng.standard_normal((t, 6)).astype(np.float32) for t in (12, 9, 12)]
        expect = model.forward_chunks([c.astype(np.float64) for c in chunks])
        dtypes = []
        tokenize = model.tokenize

        def spy(features):
            dtypes.append(features.dtype)
            return tokenize(features)

        monkeypatch.setattr(model, "tokenize", spy)
        got = model.forward_chunks(chunks)
        assert dtypes == [np.float64, np.float64]
        for g, e in ((got.visual, expect.visual), (got.te_start, expect.te_start),
                     (got.te_end, expect.te_end)):
            np.testing.assert_array_equal(g.data, e.data)

    def test_forward_chunks_reject_a_chunk_shorter_than_the_kernel(self):
        model = make(tiny_config(conv_kernel=3))
        rng = np.random.default_rng(16)
        with pytest.raises(ShapeError, match="2 frames"):
            model.forward_chunks([rng.standard_normal((t, 6)) for t in (7, 2)])

    @pytest.mark.parametrize("shape, fan_in", [((6, 8), 6), ((3, 8), 8), ((40, 50), 40)])
    def test_seeded_init_is_a_scaled_normal_draw(self, shape, fan_in):
        expect = np.random.default_rng(21).standard_normal(shape) / math.sqrt(fan_in)
        got = _init_normal(shape, fan_in, np.random.default_rng(21))
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    def test_end_to_end_gradient(self):
        model = make(tiny_config(enc_layers=1, dec_layers=1))
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((8, 6))
        probe = Tensor(rng.standard_normal((3, 6)))

        def build():
            pred = model.forward(feats)
            return tt.tmean(tt.matmul(pred.visual, tt.transpose(probe)))

        names = ["conv.w", "enc.0.attn.wq.w", "enc.0.ffn.fc1.w", "queries",
                 "dec.0.cross.wk.w", "head.visual.fc2.w", "temporal.table"]
        finite_diff_check(build, [model.params[n] for n in names], rng,
                          probes_per_param=4)
