import numpy as np
import pytest

from gstrans.data import Dataset, make_ring_task
from gstrans.errors import TrainingDivergedError
from gstrans.graph import build_grid_graph, build_ring_graph
from gstrans import nn
from gstrans.nn import (TRAIN_DTYPE, Adam, GSLayerParams, Model, SGD,
                        TrainConfig, _backward_batch, _eval_split,
                        _forward_batch, _loss_grad_output, build_model,
                        graph_hash, load_checkpoint, save_checkpoint, train)
from gstrans.transforms import (EdgeLogits, Schedule, convolve, one_hot_soft,
                                soften, soften_backward, temperature_at)
from oracles import bare_ring, dense_slices


def identity_soft(graph):
    return one_hot_soft(graph, np.arange(graph.n)[None])


def layer_z(x, soft, layer):
    """z of the graph-signal layer of a one-layer model on one (N, C_in)
    signal, read from the cache of a B = 1 forward pass."""
    model = Model([layer], np.zeros((layer.w.shape[2], 2)), np.zeros(2))
    _, cache = _forward_batch(x[None], soft, model)
    return cache["layers"][0][2][:, 0]


def batch_loss(xb, yb, model, params, t):
    probs, _ = _forward_batch(xb, soften(params, t), model)
    return _loss_grad_output(probs, yb)[0]


def batch_grads(xb, yb, model, params, t):
    soft = soften(params, t)
    _, cache = _forward_batch(xb, soft, model)
    return _backward_batch(xb, yb, soft, model, params, cache)[2]


class TestGSLForward:
    def test_identity_transform_linear_map(self):
        g = build_ring_graph(5)
        soft = identity_soft(g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2))
        layer = GSLayerParams(rng.standard_normal((1, 2, 3)),
                              rng.standard_normal(3))
        out = layer_z(x, soft, layer)
        assert np.allclose(out, x @ layer.w[0] + layer.b, atol=1e-12)

    def test_matches_dense_oracle(self):
        g = build_grid_graph(3, 3)
        rng = np.random.default_rng(1)
        params = EdgeLogits.init(g, 4, rng, scale=1.0)
        soft = soften(params, 0.7)
        x = rng.standard_normal((9, 2))
        layer = GSLayerParams(rng.standard_normal((4, 2, 5)),
                              rng.standard_normal(5))
        # dense oracle: z = sum_k (S_k^T x) w_k + b
        s = dense_slices(soft)
        z = layer.b + sum(s[k].T @ x @ layer.w[k] for k in range(4))
        assert np.allclose(layer_z(x, soft, layer), z, atol=1e-10)

    def test_shift_slice_moves_signal(self):
        n = 6
        g = build_ring_graph(n)
        soft = one_hot_soft(g, np.array([[(i + 1) % n for i in range(n)]]))
        layer = GSLayerParams(np.ones((1, 1, 1)), np.zeros(1))
        x = np.zeros((n, 1))
        x[0, 0] = 1.0
        out = layer_z(x, soft, layer)
        assert np.array_equal(out.ravel(), np.roll(x.ravel(), 1))

    def test_matches_convolve(self):
        # the paper's pseudo-convolution s^T (S x_3 w) is a one-channel GSL
        # with W_k = w[k] and no bias
        g = build_grid_graph(3, 4)
        rng = np.random.default_rng(2)
        soft = soften(EdgeLogits.init(g, 3, rng, scale=1.0), 0.5)
        w = rng.standard_normal(3)
        x = rng.standard_normal(g.n)
        layer = GSLayerParams(w.reshape(3, 1, 1), np.zeros(1))
        assert np.allclose(layer_z(x[:, None], soft, layer)[:, 0],
                           convolve(x, soft, w), rtol=0, atol=1e-12)

    def test_channel_mismatch(self):
        g = build_ring_graph(4)
        layer = GSLayerParams(np.ones((1, 3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="input has 2 channels, expected 3"):
            layer_z(np.zeros((4, 2)), identity_soft(g), layer)


class TestPoolAndLoss:
    def test_cross_entropy_uniform(self):
        loss = _loss_grad_output(np.full((1, 4), 0.25), np.array([2]))[0]
        assert loss == pytest.approx(np.log(4))

    def test_cross_entropy_confident(self):
        loss = _loss_grad_output(np.array([[0.01, 0.99]]), np.array([1]))[0]
        assert loss == pytest.approx(-np.log(0.99))

    def test_cross_entropy_clips_zero(self):
        loss = _loss_grad_output(np.array([[1.0, 0.0]]), np.array([1]))[0]
        assert np.isfinite(loss)

    def test_bad_label(self):
        with pytest.raises(IndexError):
            _loss_grad_output(np.full((1, 3), 1 / 3), np.array([3]))


class TestModelForward:
    def test_signal_probs_normalized(self):
        g = build_ring_graph(6)
        rng = np.random.default_rng(2)
        model = build_model(2, (4, 4), 3, 2, "signal", rng)
        params = EdgeLogits.init(g, 2, rng)
        xb = rng.standard_normal((1, 6, 2))
        p = _forward_batch(xb, soften(params, 1.0), model)[0][0]
        assert p.shape == (3,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_vertex_probs_normalized(self):
        g = build_grid_graph(2, 3)
        rng = np.random.default_rng(3)
        model = build_model(1, (4,), 2, 3, "vertex", rng)
        params = EdgeLogits.init(g, 3, rng)
        xb = rng.standard_normal((1, 6, 1))
        p = _forward_batch(xb, soften(params, 0.5), model)[0][0]
        assert p.shape == (6, 2)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_build_model_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_model(1, (), 2, 2, "signal", rng)
        with pytest.raises(ValueError):
            build_model(1, (4,), 1, 2, "signal", rng)
        for k, hidden in ((0, (4,)), (-1, (4,)), (2, (4, 0))):
            with pytest.raises(ValueError, match="k >= 1"):
                build_model(1, hidden, 2, k, "signal", rng)


def numerical_grads(loss_fn, arrays, h=1e-5):
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = a[ix]
            a[ix] = orig + h
            lp = loss_fn()
            a[ix] = orig - h
            lm = loss_fn()
            a[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        out.append(g)
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric, strict=True):
        denom = np.maximum(np.abs(ga) + np.abs(gn), 1e-8)
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


class TestGradients:
    def test_signal_mode_gradcheck(self):
        g = build_ring_graph(5)
        rng = np.random.default_rng(10)
        model = build_model(2, (3, 4), 3, 2, "signal", rng)
        params = EdgeLogits.init(g, 2, rng, scale=0.5)
        xb = rng.standard_normal((1, 5, 2))
        yb, t = np.array([1]), 0.8
        grads = batch_grads(xb, yb, model, params, t)
        arrays = model.param_arrays() + [params.logits]

        def loss_fn():
            return batch_loss(xb, yb, model, params, t)

        assert max_rel_error(grads, numerical_grads(loss_fn, arrays)) < 1e-4

    def test_vertex_mode_gradcheck(self):
        g = build_grid_graph(2, 3)
        rng = np.random.default_rng(11)
        model = build_model(2, (3,), 2, 2, "vertex", rng)
        params = EdgeLogits.init(g, 2, rng, scale=0.5)
        xb = rng.standard_normal((1, 6, 2))
        yb = np.array([[0, -1, 1, -1, 0, 1]])  # -1 excluded from the loss
        t = 1.3
        grads = batch_grads(xb, yb, model, params, t)
        arrays = model.param_arrays() + [params.logits]

        def loss_fn():
            return batch_loss(xb, yb, model, params, t)

        assert max_rel_error(grads, numerical_grads(loss_fn, arrays)) < 1e-4


class TestOptimizers:
    def test_sgd_step(self):
        p = np.array([1.0, 2.0])
        SGD(0.1).step([p], [np.array([10.0, -10.0])])
        assert np.allclose(p, [0.0, 3.0])

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first update ~lr per coordinate
        p = np.zeros(3)
        Adam(0.01).step([p], [np.array([5.0, -3.0, 0.4])])
        assert np.allclose(p, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = np.array([4.0, -7.0])
        opt = Adam(0.1)
        for _ in range(500):
            opt.step([p], [2 * p])
        assert np.all(np.abs(p) < 1e-3)


def tiny_ring_dataset(seed=0):
    ds, g = make_ring_task(8, 2, 12, 0.02, seed)
    return ds, g


class TestTrain:
    def test_smoke_and_history(self):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 12), lr=5e-3, batch_size=8,
                          k=3, hidden=(4,), seed=1)
        model, params, hard, history = train(ds, g, cfg)
        assert hard.targets.shape == (3, 8)
        assert history[0].step == 0
        assert history[0].temperature == pytest.approx(2.0)
        assert history[-1].temperature == pytest.approx(0.5)
        assert all(0.0 <= row.val_acc <= 1.0 for row in history)

    def test_deterministic(self):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 10), lr=5e-3, batch_size=8,
                          k=2, hidden=(4,), seed=3)
        r1 = train(ds, g, cfg)
        r2 = train(ds, g, cfg)
        assert np.array_equal(r1[1].logits, r2[1].logits)
        assert np.array_equal(r1[2].targets, r2[2].targets)
        assert [h.train_loss for h in r1[3]] == [h.train_loss for h in r2[3]]

    def test_zero_lr_keeps_params(self):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 1.0, 6), lr=0.0, optimizer="sgd",
                          batch_size=8, k=2, hidden=(4,), seed=5)
        rng = np.random.default_rng(5)
        init_model = build_model(1, (4,), ds.num_classes, 2, "signal", rng,
                                 TRAIN_DTYPE)
        init_logits = EdgeLogits.init(g, 2, rng)
        model, params, _, _ = train(ds, g, cfg)
        for a, b in zip(model.param_arrays(), init_model.param_arrays()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
        assert params.logits.dtype == np.float64
        assert np.array_equal(params.logits, init_logits.logits)

    def test_separable_task_trains(self):
        # two far-apart constant-offset classes: loss should collapse
        rng = np.random.default_rng(7)
        n, per = 8, 16
        signals, labels = [], []
        for c in range(2):
            for _ in range(per):
                signals.append(np.full((n, 1), 10.0 * c) +
                               0.01 * rng.standard_normal((n, 1)))
                labels.append(c)
        idx = np.arange(2 * per)
        ds = Dataset("signal", signals, np.array(labels), 2,
                     {"train": idx, "val": idx, "test": idx})
        g = build_ring_graph(n)
        cfg = TrainConfig(Schedule(1.0, 0.5, 150), lr=0.05, batch_size=16,
                          k=2, hidden=(4,), seed=0)
        _, _, _, history = train(ds, g, cfg)
        assert history[-1].train_loss < 0.01
        assert history[-1].train_acc == 1.0

    def test_empty_train_split(self):
        ds, g = tiny_ring_dataset()
        ds.splits["train"] = np.array([], dtype=np.int64)
        cfg = TrainConfig(Schedule(1.0, 0.5, 5), hidden=(4,), k=2)
        with pytest.raises(ValueError):
            train(ds, g, cfg)

    def test_vertex_mode_training(self):
        g = build_grid_graph(3, 3)
        rng = np.random.default_rng(8)
        x = np.zeros((9, 2))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        x[np.arange(9), 0] = labels * 4.0
        x[:, 1] = rng.standard_normal(9) * 0.01
        ds = Dataset("vertex", [x], labels, 3,
                     {"train": np.arange(9), "val": np.arange(9)})
        cfg = TrainConfig(Schedule(1.0, 0.5, 60), lr=0.05, k=2, hidden=(4,),
                          seed=0)
        _, _, _, history = train(ds, g, cfg)
        assert history[-1].train_acc == 1.0


    def test_signal_records_at_epoch_ends(self):
        ds, g = tiny_ring_dataset()
        assert len(ds.splits["train"]) == 20  # 3 batches of 8 per epoch
        for s_total, steps in ((6, [0, 3, 6]), (7, [0, 3, 6, 7])):
            cfg = TrainConfig(Schedule(2.0, 0.5, s_total), batch_size=8, k=2,
                              hidden=(4,), seed=1)
            _, _, _, history = train(ds, g, cfg)
            assert [row.step for row in history] == steps

    def test_vertex_records_every_twentieth(self):
        g = build_grid_graph(3, 3)
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        x = np.zeros((9, 2))
        x[np.arange(9), 0] = labels
        ds = Dataset("vertex", [x], labels, 3,
                     {"train": np.arange(6), "val": np.arange(6, 9)})
        cfg = TrainConfig(Schedule(1.0, 0.5, 45), k=2, hidden=(4,), seed=0)
        _, _, _, history = train(ds, g, cfg)
        assert [row.step for row in history] == list(range(0, 45, 2)) + [45]

    def test_divergence_carries_step_and_stage(self):
        ds, g = make_ring_task(8, 2, 10, 0.05, 0)
        cfg = TrainConfig(Schedule(10.0, 0.01, 40), lr=1e6, logit_lr=1e6,
                          optimizer="sgd", batch_size=8, k=2, hidden=(4,))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            train(ds, g, cfg)
        exc = info.value
        assert 0 < exc.step < 40
        assert exc.temperature == temperature_at(exc.step, cfg.schedule)
        assert exc.stage in ("soften", "forward", "backward", "evaluation")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 6), batch_size=8, k=2,
                          hidden=(4,), seed=2)
        model, params, _, _ = train(ds, g, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, g, cfg.schedule)
        model2, params2, sched = load_checkpoint(path, g)
        assert sched == cfg.schedule
        assert model2.mode == "signal"
        for a, b in zip(model.param_arrays(), model2.param_arrays(), strict=True):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
        assert params2.logits.dtype == np.float64
        assert np.array_equal(params.logits, params2.logits)

    def test_graph_mismatch_rejected(self, tmp_path):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 4), batch_size=8, k=2,
                          hidden=(4,), seed=2)
        model, params, _, _ = train(ds, g, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, g, cfg.schedule)
        with pytest.raises(ValueError):
            load_checkpoint(path, build_ring_graph(9))

    def test_malformed_rejected(self, tmp_path):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 2), batch_size=8, k=2,
                          hidden=(4,), seed=2)
        model, params, _, _ = train(ds, g, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, g, cfg.schedule)
        with np.load(path) as f:
            arrays = dict(f)
        for name, edit in (("w0", lambda a: a.pop("w0")),
                           ("logits", lambda a: a.update(logits=a["logits"][:, 1:])),
                           # one slice more than the checkpoint's k
                           ("w0", lambda a: a.update(w0=np.concatenate([a["w0"], a["w0"][:1]]))),
                           ("b0", lambda a: a.update(b0=a["b0"][1:])),
                           ("fc_weight", lambda a: a.update(fc_weight=a["fc_weight"][1:])),
                           ("fc_bias", lambda a: a.update(fc_bias=np.append(a["fc_bias"], 0.0)))):
            broken = dict(arrays)
            edit(broken)
            bad = tmp_path / "broken.npz"
            np.savez(bad, **broken)
            with pytest.raises(ValueError, match=name):
                load_checkpoint(bad, g)

    def test_float64_checkpoint_evaluates_in_float64(self, tmp_path, monkeypatch):
        ds, g = tiny_ring_dataset()
        rng = np.random.default_rng(3)
        model = build_model(1, (4,), ds.num_classes, 2, "signal", rng)
        params = EdgeLogits.init(g, 2, rng, scale=1.0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, g, Schedule(2.0, 0.5, 6))
        model2, params2, _ = load_checkpoint(path, g)
        assert all(a.dtype == np.float64 for a in model2.param_arrays())
        dtypes = []

        def recording_forward(xb, soft, model):
            probs, cache = _forward_batch(xb, soft, model)
            dtypes.extend(a.dtype for lc in cache["layers"] for a in lc)
            dtypes.append(probs.dtype)
            return probs, cache

        monkeypatch.setattr(nn, "_forward_batch", recording_forward)
        idx = ds.splits["val"]
        assert _eval_split(model2, params2, ds, idx, 0.5) == \
            _eval_split(model, params, ds, idx, 0.5)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("name,dtype,match", [
        ("w0", np.int64, "expected float32 or float64"),
        ("fc_bias", np.bool_, "expected float32 or float64"),
        ("b0", np.float16, "expected float32 or float64"),
        ("b0", np.float64, "but w0 has float32"),
        ("fc_weight", np.float64, "but w0 has float32"),
    ], ids=["w0-int", "fc_bias-bool", "b0-float16", "b0-mixed", "fc_weight-mixed"])
    def test_weight_dtype_rejected(self, tmp_path, name, dtype, match):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 2), batch_size=8, k=2,
                          hidden=(4,), seed=2)
        model, params, _, _ = train(ds, g, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, g, cfg.schedule)
        with np.load(path) as f:
            arrays = dict(f)
        arrays[name] = arrays[name].astype(dtype)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{name} has dtype .*{match}"):
            load_checkpoint(path, g)

    def test_graph_hash_sensitivity(self):
        assert graph_hash(build_ring_graph(8)) != graph_hash(bare_ring(8))


class TestTrainConfigValidation:
    def test_negative_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(Schedule(1.0, 0.5, 5), lr=-1.0)

    def test_negative_logit_lr(self):
        with pytest.raises(ValueError, match="logit_lr=-5"):
            TrainConfig(Schedule(1.0, 0.5, 5), logit_lr=-5.0)
        assert TrainConfig(Schedule(1.0, 0.5, 5), logit_lr=0.0).logit_lr == 0.0

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(Schedule(1.0, 0.5, 5), optimizer="rmsprop")


def dense_oracle(xb, yb, soft, model, params):
    """Probabilities, loss and gradients from dense per-sample passes: layer
    z = sum_k S_k^T x W_k + b with S_k = dense_slices(soft)[k], backpropagated
    by hand, one sample at a time."""
    s = dense_slices(soft)
    layers, last = model.gsl_layers, len(model.gsl_layers) - 1
    count = int((yb >= 0).sum())
    dws = [np.zeros_like(layer.w) for layer in layers]
    dbs = [np.zeros_like(layer.b) for layer in layers]
    dfc_w, dfc_b = np.zeros_like(model.fc_weight), np.zeros_like(model.fc_bias)
    ds = np.zeros_like(s)
    probs, loss = [], 0.0
    for x, y in zip(xb, yb):
        hs, zs = [x], []
        for li, layer in enumerate(layers):
            z = sum(s[k].T @ hs[-1] @ layer.w[k] for k in range(soft.k)) + layer.b
            zs.append(z)
            hs.append(np.maximum(z, 0.0) if li < last else z)
        pooled = hs[-1].mean(axis=0) if model.mode == "signal" else hs[-1]
        logits = pooled @ model.fc_weight + model.fc_bias
        p = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        probs.append(p)
        # gradient of the batch-mean cross-entropy w.r.t. this sample's logits
        y, d = np.atleast_1d(y), np.atleast_2d(p).copy()
        rows = np.nonzero(y >= 0)[0]
        loss -= np.log(d[rows, y[rows]]).sum() / count
        d[rows, y[rows]] -= 1.0
        d[y < 0] = 0.0
        d /= count
        dfc_w += np.atleast_2d(pooled).T @ d
        dfc_b += d.sum(axis=0)
        dh = d @ model.fc_weight.T
        if model.mode == "signal":
            dh = np.repeat(dh / x.shape[0], x.shape[0], axis=0)
        for li in range(last, -1, -1):
            dz = dh if li == last else dh * (zs[li] > 0)
            w = layers[li].w
            for k in range(soft.k):
                dws[li][k] += (s[k].T @ hs[li]).T @ dz
                ds[k] += hs[li] @ (dz @ w[k].T).T
            dbs[li] += dz.sum(axis=0)
            dh = sum(s[k] @ dz @ w[k].T for k in range(soft.k))
    dprobs = ds[:, soft.index.src, soft.index.dst]
    grads = [a for pair in zip(dws, dbs) for a in pair] + [
        dfc_w, dfc_b, soften_backward(params, soft, dprobs)]
    return np.array(probs), loss, grads


def kernel_case(mode, dtype):
    """A two-layer model in dtype on a 4x5 grid, with its batch; the weights
    are the same draws, rounded to dtype, whatever the dtype."""
    g = build_grid_graph(4, 5)
    rng = np.random.default_rng(20)
    model = build_model(2, (4, 3), 3, 5, mode, rng, dtype)
    params = EdgeLogits.init(g, 5, rng, scale=1.0)
    soft = soften(params, 0.6)
    xb = rng.standard_normal((3, g.n, 2))
    yb = (rng.integers(0, 3, size=3) if mode == "signal"
          else rng.integers(-1, 3, size=(3, g.n)))
    return model, params, soft, xb, yb


class TestKernelEquivalence:
    @pytest.mark.parametrize("mode", ["signal", "vertex"])
    def test_batched_matches_dense_oracle(self, mode):
        model, params, soft, xb, yb = kernel_case(mode, np.float64)
        probs, cache = _forward_batch(xb, soft, model)
        loss, _, grads = _backward_batch(xb, yb, soft, model, params, cache)
        probs_o, loss_o, grads_o = dense_oracle(xb, yb, soft, model, params)
        assert np.allclose(probs, probs_o, rtol=0, atol=1e-12)
        assert loss == pytest.approx(loss_o, abs=1e-12)
        for a, b in zip(grads, grads_o, strict=True):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["signal", "vertex"])
    def test_float32_matches_dense_oracle(self, mode):
        # a float32 model computes every activation and weight gradient in
        # float32 (a float64 operator would upcast them); the logit gradient
        # stays float64
        model, params, soft, xb, yb = kernel_case(mode, np.float32)
        probs, cache = _forward_batch(xb, soft, model)
        loss, _, grads = _backward_batch(xb, yb, soft, model, params, cache)
        assert probs.dtype == np.float32
        assert all(a.dtype == np.float32 for lc in cache["layers"] for a in lc)
        assert [a.dtype for a in grads] == [np.float32] * (len(grads) - 1) + [np.float64]
        probs_o, loss_o, grads_o = dense_oracle(
            xb, yb, soft, *kernel_case(mode, np.float64)[:2])
        assert np.allclose(probs, probs_o, rtol=1e-4, atol=1e-5)
        assert loss == pytest.approx(loss_o, rel=1e-4, abs=1e-5)
        for a, b in zip(grads, grads_o, strict=True):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-4, atol=1e-5)
