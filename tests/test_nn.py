import ctypes
import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gstrans.data import Dataset, make_ring_task
from gstrans.errors import TrainingDivergedError
from gstrans.graph import build_grid_graph, build_ring_graph
from gstrans import cli, nn
from gstrans.nn import (TRAIN_DTYPE, Adam, GSLayerParams, Model, SGD,
                        TrainConfig, _backward_batch, _eval_split,
                        _forward_batch, _loss_grad_output, build_model,
                        graph_hash, load_checkpoint, save_checkpoint, train)
from gstrans.transforms import (EdgeLogits, Schedule, SoftTransforms, convolve,
                                one_hot_soft, soften, soften_backward, temperature_at)
from oracles import (AdamPerArray, SGDPerArray, bare_ring, dense_slices, neighbors,
                     same_bits, unblocked_forward)

ROOT = Path(__file__).resolve().parent.parent


def identity_soft(graph):
    return one_hot_soft(graph, np.arange(graph.n)[None])


def layer_z(x, soft, layer):
    """z of the graph-signal layer of a one-layer model on one (N, C_in)
    signal, read from the cache of a B = 1 forward pass. The model is in
    vertex mode: a signal-mode last layer runs after the vertex mean and
    caches no z."""
    model = Model([layer], np.zeros((layer.w.shape[2], 2)), np.zeros(2), "vertex")
    _, cache = _forward_batch(x[None], soft.sparse(model.dtype), model)
    return cache["layers"][0][2][:, 0]


def batch_loss(xb, yb, model, params, t):
    probs, _ = _forward_batch(xb, soften(params, t).sparse(model.dtype), model)
    return _loss_grad_output(probs, yb)[0]


def batch_grads(xb, yb, model, params, t):
    soft = soften(params, t)
    _, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
    return _backward_batch(yb, soft, model, cache)[2]


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
        p = _forward_batch(xb, soften(params, 1.0).sparse(model.dtype), model)[0][0]
        assert p.shape == (3,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_vertex_probs_normalized(self):
        g = build_grid_graph(2, 3)
        rng = np.random.default_rng(3)
        model = build_model(1, (4,), 2, 3, "vertex", rng)
        params = EdgeLogits.init(g, 3, rng)
        xb = rng.standard_normal((1, 6, 1))
        p = _forward_batch(xb, soften(params, 0.5).sparse(model.dtype), model)[0][0]
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

    def test_non_finite_gradient_after_finite_forward(self):
        # the forward pass is finite, logits about 1e13, but the last layer's
        # dW = hbar^T dh, with hbar about 1e10 and dh about 1e30, overflows float32
        g = build_ring_graph(8)
        rng = np.random.default_rng(0)
        model = build_model(1, (4, 4), 2, 2, "signal", rng, np.float32)
        model.gsl_layers[0].w[:] = 1e10
        model.gsl_layers[1].w[:] = 1e-22
        model.fc_weight[:] = [1e30, -1e30]
        soft = soften(EdgeLogits.init(g, 2, rng), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            probs, cache = _forward_batch(np.ones((2, 8, 1)), soft.sparse(model.dtype), model)
            assert np.all(np.isfinite(probs))
            with pytest.raises(FloatingPointError,
                               match="non-finite gradient in graph-signal layer 1"):
                _backward_batch(np.array([0, 1]), soft, model, cache)

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
        SGD([p], 0.1).step([np.array([10.0, -10.0])])
        assert np.allclose(p, [0.0, 3.0])

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first update ~lr per coordinate
        p = np.zeros(3)
        Adam([p], 0.01).step([np.array([5.0, -3.0, 0.4])])
        assert np.allclose(p, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = np.array([4.0, -7.0])
        opt = Adam([p], 0.1)
        for _ in range(500):
            opt.step([2 * p])
        assert np.all(np.abs(p) < 1e-3)

    @pytest.mark.parametrize("flat,per_array", [(Adam, AdamPerArray), (SGD, SGDPerArray)],
                             ids=["adam", "sgd"])
    @pytest.mark.parametrize("shapes,dtype", [
        ([(3, 1, 16), (16,), (3, 16, 16), (16,), (16, 4), (4,)], np.float32),
        ([(3, 48)], np.float64),
    ], ids=["float32-model", "float64-logits"])
    def test_flat_state_matches_per_array(self, flat, per_array, shapes, dtype):
        # the flat update is elementwise, so it moves every array by the same bits
        rng = np.random.default_rng(4)
        params = [rng.standard_normal(s).astype(dtype) for s in shapes]
        ref = [p.copy() for p in params]
        opt, opt_ref = flat(params, 0.01), per_array(0.01)
        for _ in range(4):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            opt.step(grads)
            opt_ref.step(ref, grads)
        for p, r in zip(params, ref):
            assert p.dtype == r.dtype == dtype and np.array_equal(p, r)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_in_place_matches_textbook_bits(self, dtype):
        # 50 steps against the expressions Adam computed with new arrays,
        # signed zeros and magnitudes from 1e-30 to 1e6 included
        rng = np.random.default_rng(7)
        shapes = [(3, 1, 16), (16,), (5,)]
        params = [rng.standard_normal(s).astype(dtype) for s in shapes]
        ref = [p.copy() for p in params]
        opt, opt_ref = Adam(params, 3e-3), AdamPerArray(3e-3)
        state = opt.m, opt.v, opt.update
        for _ in range(50):
            grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-30, 7, s)).astype(dtype)
                     for s in shapes]
            grads[1][::3] = -0.0
            grads[1][1::3] = 0.0
            opt.step(grads)
            opt_ref.step(ref, grads)
            for p, r in zip(params, ref):
                assert same_bits(p, r)
        for flat, per_array in ((opt.m, opt_ref.m), (opt.v, opt_ref.v)):
            assert same_bits(flat, np.concatenate([a.ravel() for a in per_array]))
        # the moments and the update are the arrays Adam was built with
        assert all(a is b for a, b in zip((opt.m, opt.v, opt.update), state))


class TestStepStagesScript:
    def test_script_runs(self):
        script = ROOT / "scripts" / "step_stages.py"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, str(script), "--reps", "1"], env=env,
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out)
        assert result["context"]["blas_threads"] == 1
        # the ring command's set-up, stage by stage
        assert list(result["setup"]) == ["build_parser", "build_parser.train",
                                         "parse_args", "make_ring_task"]
        assert all(ms > 0 for ms in result["setup"].values()), result["setup"]
        assert result["faults"]["setup"].keys() == result["setup"].keys()
        for shape, gsls in (("ring", 2), ("grid", 1)):
            stages = result[shape]
            for name in ("soften", "sparse", "refill", "forward", "eval_forward.64",
                         "eval_forward.80", "eval_forward.256", "backward",
                         "soften_backward", "optimizer",
                         *(f"forward.gsl{i}" for i in range(gsls)),
                         *(f"eval_forward.256.gsl{i}" for i in range(gsls)),
                         *(f"backward.gsl{i}.{part}" for i in range(gsls)
                           for part in ("dW_db", "g", "probs_grad"))):
                assert stages[name] > 0, (shape, name)
            # minor page faults per call, one count for each timed stage
            faults = result["faults"][shape]
            assert faults.keys() == stages.keys()
            assert all(f >= 0 for f in faults.values()), faults
            # layer 0 needs no dh
            assert [f"backward.gsl{i}.dh" in stages for i in range(gsls)] == \
                [i > 0 for i in range(gsls)]


class TestSameOutputsScript:
    """scripts/same_outputs.py on a short command list: a train whose
    checkpoint an eval then reads."""

    COMMANDS = {
        "ring": ["train", "--dataset", "ring", "--ring-n", "8", "--ring-classes", "2",
                 "--ring-samples", "20", "--k", "2", "--layers", "4,4",
                 "--batch-size", "8", "--steps", "6", "--seed", "1"],
        "eval": ["eval", "--dataset", "ring", "--ring-n", "8", "--ring-classes", "2",
                 "--ring-samples", "20", "--seed", "1",
                 "--checkpoint", "{runs}/ring/checkpoint.npz", "--split", "val"],
    }

    @staticmethod
    def script():
        spec = importlib.util.spec_from_file_location(
            "same_outputs", ROOT / "scripts" / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_tree_against_itself(self, tmp_path):
        assert self.script().compare(ROOT, ROOT, tmp_path, self.COMMANDS) == []
        assert (tmp_path / "new" / "ring" / "checkpoint.npz").is_file()

    def test_planted_difference_reported(self, tmp_path):
        # Adam's eps doubled: every array moves by other bits, and the run
        # still exits 0 and writes the same files
        shutil.copytree(ROOT / "src", tmp_path / "planted" / "src")
        nn_py = tmp_path / "planted" / "src" / "gstrans" / "nn.py"
        text = nn_py.read_text()
        assert text.count("b1, b2, eps = 0.9, 0.999, 1e-8") == 1
        nn_py.write_text(text.replace("0.999, 1e-8", "0.999, 2e-8"))
        found = self.script().compare(ROOT, tmp_path / "planted", tmp_path / "work",
                                      {"ring": self.COMMANDS["ring"]})
        assert "ring: checkpoint.npz: array w0 differs" in found, found
        assert not [f for f in found if "exit code" in f or "only in one" in f], found

    def test_relative_paths(self, tmp_path, monkeypatch, capsys):
        # every command runs in its run directory, so a relative WORK left
        # unresolved would send this train to a data dir that is not there,
        # and both trees would exit 2 alike
        monkeypatch.chdir(tmp_path)
        tree = os.path.relpath(ROOT, tmp_path)
        cifar = ["train", "--dataset", "cifar10", "--data-dir", "{inputs}/cifar-1",
                 "--k", "2", "--layers", "4", "--max-train", "32", "--steps", "2"]
        assert self.script().main([tree, tree, "work"], {"cifar": cifar}) == 0
        assert capsys.readouterr().out.splitlines() == ["cifar: exit 0, same", "identical"]
        assert (tmp_path / "work" / "old" / "cifar" / "checkpoint.npz").is_file()


def tiny_ring_dataset(seed=0):
    ds, g = make_ring_task(8, 2, 12, 0.02, seed)
    return ds, g


class TestTrain:
    def test_one_relaxation_per_record_one_operator_per_pass(self, monkeypatch):
        # a training step softens once and refills the operator; a record
        # softens once and refills it for both splits, although the train
        # split is scored in two chunks of 256; only the first record builds
        ds, g = make_ring_task(8, 2, 200, 0.02, 0)
        assert 256 < len(ds.splits["train"]) <= 512
        calls = {"soften": 0, "build": 0, "refill": 0}
        built = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_sparse(soft, dtype=np.float64, out=None):
            calls["build" if out is None else "refill"] += 1
            built.append(sparse(soft, dtype, out=out))
            return built[-1]

        sparse = SoftTransforms.sparse
        monkeypatch.setattr(nn, "soften", counted("soften", nn.soften))
        monkeypatch.setattr(SoftTransforms, "sparse", counted_sparse)
        steps = 3
        cfg = TrainConfig(Schedule(2.0, 0.5, steps), batch_size=256, k=2,
                          hidden=(4,), seed=0)
        records = len(train(ds, g, cfg)[3])
        assert records == 3          # steps 0, 2 (an epoch of two batches) and 3
        assert calls == {"soften": steps + records, "build": 1,
                         "refill": steps + records - 1}
        assert all(m is built[0] for m in built)

    def test_smoke_and_history(self):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 12), lr=5e-3, batch_size=8,
                          k=3, hidden=(4,), seed=1)
        model, params, hard, history = train(ds, g, cfg)
        assert hard.shape == (3, 8) and hard.dtype == np.int64
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
        assert np.array_equal(r1[2], r2[2])
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

    @pytest.mark.parametrize("split,name", [("val", "validation"), ("train", "training")])
    def test_missing_split_rejected(self, split, name):
        # a dataset without a val split is not validated on its train split
        ds, g = tiny_ring_dataset()
        del ds.splits[split]
        cfg = TrainConfig(Schedule(1.0, 0.5, 5), hidden=(4,), k=2)
        with pytest.raises(ValueError, match=f"^empty {name} split$"):
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
        save_checkpoint(path, model, params, cfg.schedule)
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
        save_checkpoint(path, model, params, cfg.schedule)
        with pytest.raises(ValueError):
            load_checkpoint(path, build_ring_graph(9))

    def test_malformed_rejected(self, tmp_path):
        ds, g = tiny_ring_dataset()
        cfg = TrainConfig(Schedule(2.0, 0.5, 2), batch_size=8, k=2,
                          hidden=(4,), seed=2)
        model, params, _, _ = train(ds, g, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, params, cfg.schedule)
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
        save_checkpoint(path, model, params, Schedule(2.0, 0.5, 6))
        model2, params2, _ = load_checkpoint(path, g)
        assert all(a.dtype == np.float64 for a in model2.param_arrays())
        dtypes = []

        def recording_forward(xb, m, model, *args, **kwargs):
            probs, cache = _forward_batch(xb, m, model, *args, **kwargs)
            # no backward pass follows an evaluation, so it keeps no cache
            assert cache is None
            dtypes.append(probs.dtype)
            return probs, cache

        monkeypatch.setattr(nn, "_forward_batch", recording_forward)
        idx = ds.splits["val"]
        m2 = soften(params2, 0.5).sparse(model2.dtype)
        assert _eval_split(model2, m2, ds, idx) == \
            _eval_split(model, soften(params, 0.5).sparse(model.dtype), ds, idx)
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
        save_checkpoint(path, model, params, cfg.schedule)
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

    def test_zero_batch_size(self):
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            TrainConfig(Schedule(1.0, 0.5, 5), batch_size=0)


def dense_oracle(xb, yb, soft, model):
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
    dprobs = ds[:, soft.graph.src, soft.graph.dst]
    grads = [a for pair in zip(dws, dbs) for a in pair] + [
        dfc_w, dfc_b, soften_backward(soft, dprobs)]
    return np.array(probs), loss, grads


def set_biases(model, seed):
    """model, its graph-signal layers' zero biases replaced in place by
    nonzero ones that differ from channel to channel, so that a bias
    added to the wrong channel or sample changes z. They are float64 draws
    of a generator of their own, rounded to the model's dtype."""
    rng = np.random.default_rng(seed)
    for layer in model.gsl_layers:
        layer.b[:] = rng.uniform(-0.5, 0.5, len(layer.b))
    return model


def kernel_case(mode, dtype, hidden=(4, 3), one_hot=False, c_in=2):
    """A model in dtype on a 4x5 grid, with its batch of c_in channels; the
    weights and biases are the same draws, rounded to dtype, whatever the
    dtype. With one_hot, the transforms are one_hot_soft of random
    neighbour maps in place of a softmax at t = 0.6."""
    g = build_grid_graph(4, 5)
    rng = np.random.default_rng(20)
    model = set_biases(build_model(c_in, hidden, 3, 5, mode, rng, dtype), 22)
    params = EdgeLogits.init(g, 5, rng, scale=1.0)
    soft = soften(params, 0.6)
    if one_hot:
        pick, nbrs = np.random.default_rng(21), neighbors(g)
        soft = one_hot_soft(g, [[pick.choice(nbrs[i]) for i in range(g.n)]
                                for _ in range(5)])
    xb = rng.standard_normal((3, g.n, c_in))
    yb = (rng.integers(0, 3, size=3) if mode == "signal"
          else rng.integers(-1, 3, size=(3, g.n)))
    return model, params, soft, xb, yb


# (mode, hidden, one_hot, C_in): signal mode at one, two and three layers,
# since its last layer runs after the vertex mean, and both modes on
# one-hot rows. The last two cases have a first layer wider than OpenBLAS's
# K block (a few hundred channels), over which GEMM may sum each product in
# parts; with beta = 1 it adds those parts to z one by one, where u_k W_k
# computed apart and then added to z would add their sum. So their bits can
# differ from the unblocked oracle's (at 1703 channels they do), and only
# tolerances are checked: C_in = 600, and a 1703 -> 64 vertex-mode layer,
# WebKB's width
KERNEL_CASES = {
    "signal": ("signal", (4, 3), False, 2),
    "vertex": ("vertex", (4, 3), False, 2),
    "signal-1-layer": ("signal", (4,), False, 2),
    "signal-3-layers": ("signal", (4, 3, 2), False, 2),
    "signal-one-hot": ("signal", (4, 3), True, 2),
    "vertex-one-hot": ("vertex", (4, 3), True, 2),
    "signal-600-channels": ("signal", (4, 3), False, 600),
    "vertex-webkb-width": ("vertex", (64, 3), False, 1703),
}


class TestKernelEquivalence:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_batched_matches_dense_oracle(self, case):
        mode, hidden, one_hot, c_in = KERNEL_CASES[case]
        model, _, soft, xb, yb = kernel_case(mode, np.float64, hidden, one_hot, c_in)
        probs, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
        loss, _, grads = _backward_batch(yb, soft, model, cache)
        probs_o, loss_o, grads_o = dense_oracle(xb, yb, soft, model)
        assert np.allclose(probs, probs_o, rtol=0, atol=1e-12)
        assert loss == pytest.approx(loss_o, abs=1e-12)
        for a, b in zip(grads, grads_o, strict=True):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_float32_matches_dense_oracle(self, case):
        # a float32 model computes every activation and weight gradient in
        # float32 (a float64 operator would upcast them); the logit gradient
        # stays float64
        mode, hidden, one_hot, c_in = KERNEL_CASES[case]
        model, _, soft, xb, yb = kernel_case(mode, np.float32, hidden, one_hot, c_in)
        probs, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
        loss, _, grads = _backward_batch(yb, soft, model, cache)
        assert probs.dtype == cache["pooled"].dtype == np.float32
        # full layers cache (h, u, z); a signal-mode last layer caches (mean_n h,)
        assert [len(lc) for lc in cache["layers"]] == \
            [3] * (len(hidden) - (mode == "signal")) + [1] * (mode == "signal")
        assert all(a.dtype == np.float32 for lc in cache["layers"] for a in lc)
        assert [a.dtype for a in grads] == [np.float32] * (len(grads) - 1) + [np.float64]
        probs_o, loss_o, grads_o = dense_oracle(
            xb, yb, soft, kernel_case(mode, np.float64, hidden, one_hot, c_in)[0])
        assert np.allclose(probs, probs_o, rtol=1e-4, atol=1e-5)
        assert loss == pytest.approx(loss_o, rel=1e-4, abs=1e-5)
        for a, b in zip(grads, grads_o, strict=True):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-4, atol=1e-5)


class TestVertexMeanIdentity:
    """Each S_k is row-stochastic, so the signal-mode last layer, which has
    no ReLU, sees only the vertex mean of its input and not the translations."""

    @pytest.mark.parametrize("hidden", [(4,), (4, 3)])
    def test_last_layer_weight_gradients_equal_over_slices(self, hidden):
        model, _, soft, xb, yb = kernel_case("signal", np.float64, hidden)
        _, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
        dw = _backward_batch(yb, soft, model, cache)[2][2 * len(hidden) - 2]
        assert dw.shape == model.gsl_layers[-1].w.shape
        assert all(np.array_equal(dw_k, dw[0]) for dw_k in dw[1:])
        assert np.any(dw[0] != 0)

    def test_one_layer_logit_gradient_is_zero(self):
        model, params, soft, xb, yb = kernel_case("signal", np.float64, (4,))
        _, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
        dlogits = _backward_batch(yb, soft, model, cache)[2][-1]
        assert dlogits.shape == params.logits.shape
        assert np.array_equal(dlogits, np.zeros_like(dlogits))


# name: (graph, K, hidden, C_in, mode) of the block kernel's cases
BLOCK_SHAPES = {
    "ring": (lambda: build_ring_graph(16), 3, (16, 16, 16), 1, "signal"),
    "grid": (lambda: build_grid_graph(16, 16), 5, (32, 64), 3, "signal"),
    # 256 vertices in blocks of 10 at B = 250: the last block holds 6
    "ragged": (lambda: build_grid_graph(16, 16), 4, (24, 5), 3, "signal"),
    # three graph-signal layers, each of them blocked at B >= 64
    "signal-3-gsl": (lambda: build_grid_graph(16, 16), 5, (12, 10, 8, 6), 3, "signal"),
    # a second layer with C_in = 33 and C_out = 17, whose row blocks
    # OpenBLAS would round differently, so it is computed whole
    "wide": (lambda: build_grid_graph(16, 16), 5, (33, 17, 9), 6, "signal"),
    # 4096 vertices: blocked in vertex mode even at B = 1
    "vertex": (lambda: build_grid_graph(64, 64), 5, (32, 4), 3, "vertex"),
    # a C_out = 1 layer, computed whole: blocked at B = 17, it would be cut
    # into blocks of 65 535 rows, the last of them ragged
    "c-out-1": (lambda: build_grid_graph(64, 64), 5, (8, 1, 3), 3, "signal"),
    # C_in = 1, whose outer products GEMM adds to z; blocked at B >= 64
    "one-channel": (lambda: build_grid_graph(16, 16), 5, (32, 4), 1, "signal"),
    # a C_in = 1 layer on a ReLU'd C_out = 1 layer, whose u holds exact
    # zeros (block_case), so that GEMM's outer products run over them;
    # the last layer of a vertex-mode model, since a signal-mode last layer
    # runs after the vertex mean; blocked at B >= 64
    "c-in-1-after-relu": (lambda: build_grid_graph(16, 16), 5, (8, 1, 6), 3, "vertex"),
}
BLOCK_BATCHES = (1, 7, 32, 64, 250, 256)
BLOCK_CASES = [(s, b) for s in ("ring", "grid") for b in BLOCK_BATCHES] + [
    ("ragged", 250), ("signal-3-gsl", 7), ("signal-3-gsl", 256), ("wide", 33),
    ("vertex", 1), ("vertex", 3), ("c-out-1", 17)] + [
    (s, b) for s in ("one-channel", "c-in-1-after-relu") for b in (1, 7, 64, 256)]


def block_case(shape, batch, dtype):
    """Model, stacked operator and batch of a BLOCK_SHAPES entry, with
    nonzero biases (set_biases)."""
    make_graph, k, hidden, c_in, mode = BLOCK_SHAPES[shape]
    g, rng = make_graph(), np.random.default_rng(30)
    model = set_biases(build_model(c_in, hidden, 4, k, mode, rng, dtype), 31)
    if shape == "c-in-1-after-relu":
        # set_biases gives the C_out = 1 layer a bias of +0.48, more than
        # the magnitude of any of its sums (under 0.45), so that its ReLU
        # would zero none of them and u would hold no zero; at -0.05 it
        # zeros about 60% of them, and 14-19% of u is zero
        model.gsl_layers[1].b[:] = -0.05
    m = soften(EdgeLogits.init(g, k, rng, scale=1.0), 0.7).sparse(model.dtype)
    return model, m, rng.standard_normal((batch, g.n, c_in))


class TestBlockedKernel:
    """The block kernel against the whole-array layer of
    oracles.unblocked_forward: the same bits in float32, the training dtype."""

    @pytest.mark.parametrize("shape,batch", BLOCK_CASES)
    def test_float32_bits_equal_unblocked(self, shape, batch):
        model, m, xb = block_case(shape, batch, np.float32)
        probs_o, uz = unblocked_forward(xb, m, model)
        probs, cache = _forward_batch(xb, m, model)
        assert probs.dtype == np.float32
        assert same_bits(probs, probs_o)
        assert len(cache["layers"]) == len(model.gsl_layers)
        for (u_o, z_o), (_, u, z) in zip(uz, cache["layers"], strict=False):
            assert same_bits(u, u_o)
            assert same_bits(z, z_o)
        # evaluation's forward pools block by block and keeps no u or z
        probs_e, cache_e = _forward_batch(xb, m, model, backward=False)
        assert cache_e is None
        assert same_bits(probs_e, probs)

    @pytest.mark.parametrize("batch", [1, 7, 64, 256])
    def test_c_in_1_layer_takes_exact_zeros(self, batch):
        # what c-in-1-after-relu pins: a u with exact zeros, where a whole
        # neighbourhood of the ReLU'd layer below is zero, through GEMM
        model, m, xb = block_case("c-in-1-after-relu", batch, np.float32)
        u = _forward_batch(xb, m, model)[1]["layers"][2][1]
        assert np.count_nonzero(u == 0) > u.size // 10

    @pytest.mark.parametrize("shape,batch", BLOCK_CASES)
    def test_float64_matches_unblocked(self, shape, batch):
        model, m, xb = block_case(shape, batch, np.float64)
        probs_o, uz = unblocked_forward(xb, m, model)
        probs, cache = _forward_batch(xb, m, model)
        for (u_o, z_o), (_, u, z) in zip(uz, cache["layers"], strict=False):
            assert np.allclose(u, u_o, rtol=0, atol=1e-12)
            assert np.allclose(z, z_o, rtol=0, atol=1e-12)
        for p in (probs, _forward_batch(xb, m, model, backward=False)[0]):
            assert p.dtype == np.float64
            assert np.allclose(p, probs_o, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block_bytes", [1, 4096, 2 ** 40],
                             ids=["vertex-blocks", "small-blocks", "one-block"])
    @pytest.mark.parametrize("shape,batch", [("grid", 32), ("signal-3-gsl", 64), ("ring", 32),
                                             ("ring", 256), ("wide", 33), ("one-channel", 64),
                                             ("c-in-1-after-relu", 64)])
    def test_any_block_size_same_bits(self, monkeypatch, shape, batch, block_bytes):
        model, m, xb = block_case(shape, batch, np.float32)
        probs_o, uz = unblocked_forward(xb, m, model)
        monkeypatch.setattr(nn, "BLOCK_BYTES", block_bytes)
        probs, cache = _forward_batch(xb, m, model)
        assert same_bits(probs, probs_o)
        for (_, z_o), (_, _, z) in zip(uz, cache["layers"], strict=False):
            assert same_bits(z, z_o)
        assert same_bits(_forward_batch(xb, m, model, backward=False)[0], probs_o)

    @pytest.mark.parametrize("shape,batch", [("ring", 64), ("grid", 32), ("wide", 33),
                                             ("c-out-1", 17), ("c-in-1-after-relu", 64)])
    def test_fortran_ordered_weights_same_bits(self, tmp_path, shape, batch):
        # np.load returns a Fortran-ordered array for one saved that way,
        # and SciPy's BLAS wrappers copy an operand that is not
        # Fortran-contiguous; the kernel must still write z, not a copy
        model, m, xb = block_case(shape, batch, np.float32)
        make_graph, k = BLOCK_SHAPES[shape][:2]
        params = EdgeLogits.init(make_graph(), k, np.random.default_rng(32))
        fortran = Model([GSLayerParams(np.asfortranarray(layer.w), layer.b)
                         for layer in model.gsl_layers],
                        model.fc_weight, model.fc_bias, model.mode)
        save_checkpoint(tmp_path / "f.npz", fortran, params, Schedule(1.0, 0.1, 10))
        loaded = load_checkpoint(tmp_path / "f.npz", params.graph)[0]
        assert all(layer.w.flags.f_contiguous and not layer.w.flags.c_contiguous
                   for layer in loaded.gsl_layers)
        probs, cache = _forward_batch(xb, m, model)
        probs_f, cache_f = _forward_batch(xb, m, loaded)
        assert same_bits(probs_f, probs)
        for entry, entry_f in zip(cache["layers"], cache_f["layers"], strict=True):
            assert all(same_bits(a_f, a) for a, a_f in zip(entry, entry_f, strict=True))
        assert same_bits(_forward_batch(xb, m, loaded, backward=False)[0], probs)

    @pytest.mark.parametrize("shape", ["ring", "grid"])
    @np.errstate(invalid="ignore", over="ignore")
    def test_relu_of_non_finite_sums(self, shape):
        # the ReLU is np.maximum against a row of zeros, which must give
        # the bytes of np.maximum(z, 0.0): NaN stays NaN and -inf becomes
        # +0.0. Non-finite inputs in channel 0 of a few samples make such
        # sums, and infinite ones in output channel 0, whose weights on
        # input channel 0 are made positive in every slice
        model, m, xb = block_case(shape, 64, np.float32)
        xb[3, :5, 0], xb[10, :9, 0], xb[40, 2:7, 0] = np.inf, -np.inf, np.nan
        h = np.ascontiguousarray(xb.transpose(1, 0, 2), dtype=np.float32)
        layer = model.gsl_layers[0]
        layer.w[:, 0, 0] = np.abs(layer.w[:, 0, 0])
        u, z = nn._gsl(m, h, layer, True)
        sums = u[0] @ layer.w[0]
        for u_k, w_k in zip(u[1:], layer.w[1:]):
            sums += u_k @ w_k
        sums += layer.b
        assert np.isnan(sums).any() and (sums == -np.inf).any() and (sums == np.inf).any()
        relu = np.maximum(sums, 0.0).reshape(z.shape)
        assert same_bits(z, relu)
        # evaluation's pooled layer
        total = nn._gsl(m, h, layer, True, pool=True)[1]
        assert same_bits(total, relu.mean(axis=0))
        # GEMM and GEMV start each block at +0.0 and add products to it, so
        # no sum the kernel makes is -0.0: the identity is checked on a row with one
        row = np.tile(np.float32([-0.0, 0.0, np.nan, -np.inf, np.inf, -1.5, 2.5]), 100)
        assert same_bits(np.maximum(row, np.zeros_like(row)), np.maximum(row, 0.0))


def ring_benchmark_case():
    """The ring benchmark's shape: a 16-vertex ring, K=3, layers 16,16,16,
    640 training samples (chunks of 256, 256 and 128) and 80 for
    validation; returns the dataset, the model and its soft transforms."""
    ds, g = make_ring_task(16, 4, 200, 0.05, 0)
    rng = np.random.default_rng(0)
    model = build_model(1, (16, 16, 16), 4, 3, "signal", rng, TRAIN_DTYPE)
    return ds, model, soften(EdgeLogits.init(g, 3, rng, scale=1.0), 0.7)


class TestKeepFreedPages:
    @pytest.mark.skipif(not hasattr(ctypes.pythonapi, "mallopt"),
                        reason="libc has no mallopt")
    def test_second_eval_pass_takes_no_page_faults(self):
        # under the CLI's allocator setting a pass's arrays come from the
        # heap pages the pass before it freed; without it, the ring's train
        # split takes about 990 minor page faults per pass
        cli.keep_freed_pages()
        ds, model, soft = ring_benchmark_case()
        m, idx = soft.sparse(model.dtype), ds.splits["train"]
        first = _eval_split(model, m, ds, idx)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        second = _eval_split(model, m, ds, idx)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before == 0
        assert second == first
