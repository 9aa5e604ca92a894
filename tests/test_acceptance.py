"""End-to-end acceptance checks.

Each test prints a single PASS line when its criterion holds; dataset-bound
checks are skipped (with the reason printed) when the external data is not
available locally, since this environment has no network access.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from gstrans.cli import main as cli_main
from gstrans.data import load_cifar10, load_webkb, make_ring_task, make_splits
from gstrans.evaluate import canonical_distances, transform_distance
from gstrans.graph import build_grid_graph, build_ring_graph
from gstrans.nn import (TrainConfig, _backward_batch, _forward_batch, _loss_grad_output,
                        build_model, train)
from gstrans.transforms import (EdgeLogits, Schedule, convolve, mode3_product,
                                one_hot_soft, soften, temperature_at)
from oracles import neighbors

CIFAR_DIR = os.environ.get("CIFAR10_DIR", "data/cifar-10-batches-bin")
WEBKB_CONTENT = os.environ.get("WEBKB_CONTENT", "data/webkb/webkb.content")
WEBKB_CITES = os.environ.get("WEBKB_CITES", "data/webkb/webkb.cites")

# hyperparameters for the ring-recovery run (everything the criterion does
# not pin down: model size, learning rates, batch size)
RING_CONFIG = dict(lr=5e-4, logit_lr=0.05, batch_size=32, hidden=(16, 16, 16))


def ok(line):
    print(f"PASS: {line}")


class TestCirculantOracle:
    def test_circulant_oracle(self):
        start = time.time()
        n = 4
        g = build_ring_graph(n)
        soft = one_hot_soft(g, np.array([
            np.arange(n), (np.arange(n) - 1) % n, (np.arange(n) + 1) % n]))
        w = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(mode3_product(soft, w),
                              [[1, 3, 0, 2], [2, 1, 3, 0],
                               [0, 2, 1, 3], [3, 0, 2, 1]])
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(4, 17))
            g = build_ring_graph(n)
            soft = one_hot_soft(g, np.array([
                np.arange(n), (np.arange(n) - 1) % n, (np.arange(n) + 1) % n]))
            x = rng.standard_normal(n)
            w = rng.standard_normal(3)
            kernel = np.zeros(n)
            kernel[0], kernel[1], kernel[-1] = w[0], w[2], w[1]
            brute = np.array([sum(x[m] * kernel[(j - m) % n] for m in range(n))
                              for j in range(n)])
            worst = max(worst, float(np.max(np.abs(convolve(x, soft, w) - brute))))
        assert worst <= 1e-12
        elapsed = time.time() - start
        assert elapsed < 1.0
        ok(f"circulant oracle: exact slice-sum pattern, 100 random pairs "
           f"max abs err {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s")


class TestGradientCorrectness:
    def test_gradient_correctness(self):
        start = time.time()
        g = build_ring_graph(8)
        rng = np.random.default_rng(1)
        model = build_model(1, (6, 6), 4, 3, "signal", rng)
        params = EdgeLogits.init(g, 3, rng, scale=0.5)
        xb = rng.standard_normal((1, 8, 1))
        yb, t = np.array([2]), 0.9
        soft = soften(params, t)
        _, cache = _forward_batch(xb, soft.sparse(model.dtype), model)
        _, _, analytic = _backward_batch(yb, soft, model, cache)
        arrays = model.param_arrays() + [params.logits]

        def loss():
            m = soften(params, t).sparse(model.dtype)
            return _loss_grad_output(_forward_batch(xb, m, model)[0], yb)[0]

        h = 1e-5
        rel_errors = []
        for a, ga in zip(arrays, analytic, strict=True):
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = a[ix]
                a[ix] = orig + h
                lp = loss()
                a[ix] = orig - h
                lm = loss()
                a[ix] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num) + abs(ga[ix]), 1e-8)
                rel_errors.append(abs(num - ga[ix]) / denom)
        rel_errors = np.array(rel_errors)
        frac_tight = float(np.mean(rel_errors <= 1e-4))
        assert frac_tight >= 0.99
        assert rel_errors.max() <= 1e-3
        elapsed = time.time() - start
        assert elapsed < 10.0
        ok(f"gradient correctness: {len(rel_errors)} params, "
           f"{100 * frac_tight:.1f}% <= 1e-4, max {rel_errors.max():.2e} <= 1e-3, "
           f"{elapsed:.1f}s < 10s")


@pytest.mark.slow
class TestRingRecovery:
    def test_ring_recovery(self):
        start = time.time()
        n = 16
        ds, g = make_ring_task(n, 4, 200, 0.05, seed=0)
        nbrs = neighbors(g)
        recovered = 0
        accs = []
        for seed in range(10):
            cfg = TrainConfig(Schedule(10.0, 0.01, 2000), k=3, seed=seed,
                              **RING_CONFIG)
            _, _, hard, history = train(ds, g, cfg)
            # every hardened row must point at a neighbor (one-hot on support)
            assert all(hard[k, i] in nbrs[i] for k in range(len(hard)) for i in range(n))
            acc = history[-1].val_acc
            accs.append(acc)
            rots = {r for r in range(n)
                    if any(np.array_equal(row, (np.arange(n) + r) % n) for row in hard)}
            if acc >= 0.95 and 0 in rots and any(r != 0 for r in rots):
                recovered += 1
        assert min(accs) >= 0.95
        assert recovered >= 7
        elapsed = time.time() - start
        assert elapsed < 300.0
        ok(f"ring recovery: min val acc {min(accs):.3f} >= 0.95, rows one-hot "
           f"on support, identity+shift in {recovered}/10 seeds (>= 7), "
           f"{elapsed:.0f}s < 300s")


class TestTemperatureSchedule:
    def test_temperature_schedule(self):
        sched = Schedule(10.0, 0.01, 100)
        assert temperature_at(0, sched) == 10.0
        assert temperature_at(100, sched) == 0.01
        mid = temperature_at(50, sched)
        assert abs(mid - 10.0 * 0.001 ** 0.5) <= 1e-12
        ok("temperature schedule: exact endpoints, midpoint within 1e-12")


class TestCifar10DeskScale:
    def test_cifar10_desk_scale(self):
        if not Path(CIFAR_DIR).is_dir():
            msg = (f"CIFAR-10 binary batches not found at {CIFAR_DIR!r} "
                   "(no network access in this environment); set CIFAR10_DIR")
            print(f"SKIP: cifar10 desk scale: {msg}")
            pytest.skip(msg)
        start = time.time()
        ds = load_cifar10(CIFAR_DIR, downscale=True)
        ds.splits["train"] = ds.splits["train"][:5000]
        g = build_grid_graph(16, 16)
        steps = 10 * -(-5000 // 32)  # 10 epochs
        cfg = TrainConfig(Schedule(10.0, 0.01, steps), lr=1e-3, logit_lr=0.02,
                          batch_size=32, k=5, hidden=(32, 64), seed=0)
        _, _, hard, history = train(ds, g, cfg)
        acc = history[-1].val_acc
        mean_d = float(canonical_distances(hard, 16, 16).min(axis=1).mean())
        assert acc >= 0.40
        assert mean_d <= 0.55
        elapsed = time.time() - start
        assert elapsed < 3600.0
        ok(f"cifar10 desk scale: val acc {acc:.3f} >= 0.40, mean "
           f"nearest-canonical distance {mean_d:.3f} <= 0.55, {elapsed:.0f}s < 1h")


class TestWebKB:
    def test_webkb(self):
        if not (Path(WEBKB_CONTENT).is_file() and Path(WEBKB_CITES).is_file()):
            msg = (f"WebKB files not found at {WEBKB_CONTENT!r}/{WEBKB_CITES!r} "
                   "(no network access in this environment); set WEBKB_CONTENT "
                   "and WEBKB_CITES")
            print(f"SKIP: webkb: {msg}")
            pytest.skip(msg)
        start = time.time()
        ds, g = load_webkb(WEBKB_CONTENT, WEBKB_CITES)
        # ten splits drawn in turn from one generator seeded with 0
        rng = np.random.default_rng(0)
        test_accs = []
        for i in range(10):
            ds.splits = make_splits(ds, (0.6, 0.2, 0.2), seed=rng)
            cfg = TrainConfig(Schedule(10.0, 0.01, 200), lr=1e-2, logit_lr=0.02,
                              k=5, hidden=(64, 64), seed=i)
            model, params, _, _ = train(ds, g, cfg)
            from gstrans.evaluate import evaluate_accuracy
            test_accs.append(evaluate_accuracy(model, params, ds, "test", 0.01))
        mean_acc = float(np.mean(test_accs))
        assert mean_acc >= 0.77
        elapsed = time.time() - start
        assert elapsed < 600.0
        ok(f"webkb: mean test acc over 10 splits {mean_acc:.3f} >= 0.77, "
           f"{elapsed:.0f}s < 10min")


class TestTransformDistanceMetric:
    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        n = 30
        violations = 0
        for _ in range(1000):
            a, b, c = rng.integers(0, n, (3, n))
            dab = transform_distance(a, b)
            dba = transform_distance(b, a)
            daa = transform_distance(a, a)
            dac = transform_distance(a, c)
            dcb = transform_distance(c, b)
            if dab != dba or daa != 0.0 or dab > dac + dcb + 1e-15:
                violations += 1
        assert violations == 0
        ok("transform distance: symmetry, identity, triangle inequality on "
           "1000 random pairs, 0 violations")


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        args = ["--ring-n", "8", "--ring-classes", "2", "--ring-samples", "12",
                "--steps", "20", "--k", "2", "--layers", "8", "--seed", "7"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["train", "--out-dir", str(out)] + args) == 0
            outs.append(out)
        a, b = outs
        assert (a / "transforms.json").read_bytes() == (b / "transforms.json").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        ok("determinism: repeated cmd_train runs give byte-identical "
           "transforms.json and metrics.csv")
