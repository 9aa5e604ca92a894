import argparse
import json
import shutil
import subprocess
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gstrans import cli, nn
from gstrans.cli import main
from gstrans.data import CIFAR_RECORD_BYTES, load_cifar10
from gstrans.evaluate import evaluate_accuracy, transform_distance
from gstrans.graph import build_grid_graph, build_knn_covariance_graph, write_edge_list
from gstrans.transforms import (Schedule, temperature_at,
                                transforms_from_json, transforms_to_json)
from gstrans.viz import read_ppm
from oracles import canonical_maps

# data options, which every subcommand that loads a dataset takes...
RING = ["--ring-n", "8", "--ring-classes", "2", "--ring-samples", "10"]
# ...and with training options, for train and sweep
FAST = RING + ["--steps", "8", "--k", "2", "--layers", "4", "--batch-size", "8"]


def exit_code(argv):
    """main's return value, or the exit code of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_train(tmp_path, name="out", extra=()):
    out = tmp_path / name
    rc = main(["train", "--out-dir", str(out)] + FAST + list(extra))
    assert rc == 0
    return out


def trained_meta(tmp_path):
    """A fresh checkpoint's path and its meta record."""
    path = run_train(tmp_path) / "checkpoint.npz"
    with np.load(path) as f:
        return path, json.loads(f["meta"].tobytes())


def replace_meta(path, raw: bytes):
    with np.load(path) as f:
        arrays = dict(f)
    arrays["meta"] = np.frombuffer(raw, np.uint8)
    np.savez(path, **arrays)


class TestTrainCommand:
    def test_artifacts(self, tmp_path, capsys):
        out = run_train(tmp_path)
        assert (out / "checkpoint.npz").exists()
        assert (out / "transforms.json").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,temperature,train_loss,train_acc,val_acc"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[0] == "0" and float(first[1]) == 10.0
        assert float(last[1]) == pytest.approx(0.01)
        assert "final val accuracy:" in capsys.readouterr().out
        doc = json.loads((out / "transforms.json").read_text())
        assert doc["n"] == 8 and doc["k"] == 2

    def test_deterministic_across_runs(self, tmp_path):
        a = run_train(tmp_path, "a", ["--seed", "3"])
        b = run_train(tmp_path, "b", ["--seed", "3"])
        assert (a / "transforms.json").read_text() == (b / "transforms.json").read_text()
        assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()

    def test_seed_changes_run(self, tmp_path):
        a = run_train(tmp_path, "a", ["--seed", "0"])
        b = run_train(tmp_path, "b", ["--seed", "1"])
        assert (a / "metrics.csv").read_text() != (b / "metrics.csv").read_text()

    def test_grid_dims_produce_report(self, tmp_path, capsys):
        out = run_train(tmp_path, "out", ["--height", "2", "--width", "4"])
        report = (out / "eval_report.csv").read_text().splitlines()
        assert report[0] == "k,nearest_name,distance"
        assert report[-1].startswith("mean,,")
        assert "mean distance:" in capsys.readouterr().out

    @pytest.mark.parametrize("height,width", [(1, 8), (8, 1)])
    def test_one_row_grid_has_no_report(self, tmp_path, capsys, height, width):
        out = tmp_path / "out"
        rc = exit_code(["train", "--out-dir", str(out), "--height", str(height),
                        "--width", str(width)] + FAST)
        assert rc == 0
        assert (out / "checkpoint.npz").exists() and (out / "transforms.json").exists()
        assert not (out / "eval_report.csv").exists()
        assert "mean distance" not in capsys.readouterr().out

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# FAST's flags as a file\n"
                       "ring-n = 8\nring-classes = 2\nring-samples = 10\n\n"
                       "steps = 8\nk = 2\nlayers = 4\nbatch-size = 8\n"
                       "seed = 5  # CLI flag below wins\n")
        out1 = tmp_path / "cfgrun"
        rc = main(["train", "--config", str(cfg), "--out-dir", str(out1),
                   "--seed", "3"])
        assert rc == 0
        out2 = run_train(tmp_path, "flagrun", ["--seed", "3"])
        assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()

    def test_config_numeric_coercion(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.01\nlogit-lr = 0.05\nepochs = 1\n")
        out = tmp_path / "o"
        rc = main(["train", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[-1].split(",")[0] == "2"  # 16 samples / batch 8 per epoch

    def test_printed_accuracy_is_last_recorded_val_acc(self, tmp_path, capsys):
        # the last record's temperature is one ulp off --t-final here; the
        # printout reads that record all the same
        assert temperature_at(8, Schedule(7, 0.03, 8)) == 0.030000000000000002
        out = run_train(tmp_path, "t7", ["--t-init", "7", "--t-final", "0.03"])
        printed = capsys.readouterr().out.split("final val accuracy:")[1].split()[0]
        last = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert printed == f"{float(last[4]):.4f}"

    def test_epochs_flag(self, tmp_path):
        out = run_train(tmp_path, "ep", ["--epochs", "2"])
        lines = (out / "metrics.csv").read_text().splitlines()
        # 16 train samples, batch 8 -> 2 steps per epoch, 4 total
        assert lines[-1].split(",")[0] == "4"

    def test_ring_graph(self, tmp_path):
        out = run_train(tmp_path, "ring", ["--graph", "ring"])
        assert (out / "transforms.json").exists()

    def test_max_train_caps_the_ring_task(self, tmp_path):
        out = tmp_path / "cap"
        rc = main(["train", "--ring-n", "8", "--ring-classes", "2", "--k", "2",
                   "--layers", "4", "--max-train", "64", "--batch-size", "32",
                   "--epochs", "1", "--out-dir", str(out)])
        assert rc == 0
        # 64 of the 200 samples' train split, batch 32 -> 2 steps per epoch
        steps = [line.split(",")[0] for line in
                 (out / "metrics.csv").read_text().splitlines()[1:]]
        assert steps[-1] == "2"


class TestOneLayerWarning:
    """A one-layer signal-mode model trains, but its edge logits get no
    gradient; train and sweep say so on stderr and change nothing else."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("layers,warned", [("4", True), ("4,4", False)])
    def test_warning_on_stderr_only(self, tmp_path, capsys, command, layers, warned):
        extra = ["--sweep-axis", "t-init", "--sweep-values", "2"] if command == "sweep" else []
        rc = main([command, "--out-dir", str(tmp_path / "o")] + FAST
                  + ["--layers", layers] + extra)
        assert rc == 0
        captured = capsys.readouterr()
        expected = (["warning: a one-layer signal-mode model learns no translations: "
                     "the edge logits get no gradient and harden as initialised; "
                     "pass two or more --layers"] if warned else [])
        assert captured.err.splitlines() == expected
        assert "learns no translations" not in captured.out


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stpes = 3\n")
        out = tmp_path / "o"
        rc = exit_code(["train", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 2
        assert "stpes" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_choice_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep-axis = t_bogus\nsweep-values = 2,1\n")
        out = tmp_path / "o"
        rc = exit_code(["sweep", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep-axis" in err and "t_bogus" in err
        assert not (out / "sweep.csv").exists()

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# steps first\nsteps = 8\nlayers 4\n")
        out = tmp_path / "o"
        rc = exit_code(["train", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:3: expected 'key = value', got 'layers 4'"]
        assert not out.exists()

    def test_key_spellings_and_downscale(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ring_n = 9\nbatch-size = 4\ndownscale = false\n")
        argv = ["train", "--config", str(cfg), "--ring-n", "8"]
        args = cli.build_parser().parse_args(cli._with_config(argv, "train"))
        assert (args.ring_n, args.batch_size, args.downscale) == (8, 4, False)
        assert args.steps == 2000

    @pytest.mark.parametrize("word,downscale", [
        ("0", False), ("false", False), ("No", False), ("OFF", False),
        ("1", True), ("true", True), ("Yes", True), ("on", True)])
    def test_downscale_words(self, tmp_path, word, downscale):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"downscale = {word}\n")
        argv = ["train", "--config", str(cfg)]
        args = cli.build_parser().parse_args(cli._with_config(argv, "train"))
        assert args.downscale is downscale

    def test_splice_after_the_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\n")
        argv = ["train", "--seed", "2", f"--config={cfg}"]
        assert cli._with_config(argv, "train") == ["train", "--steps=3"] + argv[1:]
        # a command without a config file keeps its argv
        argv = ["train", "--seed", "2"]
        assert cli._with_config(argv, "train") is argv

    @pytest.mark.parametrize("command", ["eval", "viz", "export-graph", "sweep"])
    def test_config_gives_required_flags(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        if command == "eval":
            entries, argv = {"checkpoint": run_train(tmp_path) / "checkpoint.npz"}, RING
        elif command == "viz":
            tf = tmp_path / "transforms.json"
            tf.write_text(transforms_to_json(np.arange(8)[None]))
            entries = {"transforms": tf}
            argv = ["--height", "2", "--width", "4", "--out-dir", str(out)]
        elif command == "export-graph":
            entries, argv = {"out": out}, RING
        else:
            entries = {"sweep-axis": "t-init", "sweep-values": "2"}
            argv = FAST + ["--out-dir", str(out)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
        capsys.readouterr()
        assert exit_code([command, "--config", str(cfg)] + argv) == 0
        printed = {"eval": "val accuracy:", "viz": "wrote 1 files",
                   "export-graph": "wrote 8 vertices", "sweep": "(1 grid points)"}
        assert printed[command] in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "export-graph"])
    @pytest.mark.parametrize("key", ["t-final", "k", "out-dir"])
    def test_training_key_rejected(self, tmp_path, capsys, monkeypatch, command, key):
        monkeypatch.setattr(cli, "_load_dataset", lambda args: pytest.fail("loaded"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 2\n{key} = 5\n")
        required = ["--checkpoint", "c.npz"] if command == "eval" else ["--out", "g.txt"]
        assert exit_code([command, "--config", str(cfg)] + required + RING) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: unknown key {key!r} for '{command}'"]

    @pytest.mark.parametrize("word", ["ture", "flase", "", "2"])
    def test_misspelled_downscale_rejected(self, tmp_path, capsys, word):
        # a word that is no boolean is an error, not a false
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"steps = 2\ndownscale = {word}\n")
        out = tmp_path / "o"
        rc = exit_code(["train", "--config", str(cfg), "--out-dir", str(out)] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: downscale = {word!r} is not a boolean"]
        assert not out.exists()


class TestEvalCommand:
    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        out = run_train(tmp_path)
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--split", "val"] + RING)
        assert rc == 0
        assert "val accuracy:" in capsys.readouterr().out

    def test_not_a_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        rc = main(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        assert "meta" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.npz")] + RING)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_class_count_mismatch(self, tmp_path, capsys):
        out = run_train(tmp_path)                 # RING has 2 classes
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz")] + RING
                  + ["--ring-classes", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 classes" in err and "has 3" in err


    @pytest.mark.parametrize("name", ["empty", "truncated", "npy", "directory",
                                      "bytes"])
    def test_unreadable_checkpoint(self, tmp_path, capsys, name):
        good = (run_train(tmp_path) / "checkpoint.npz").read_bytes()
        path = tmp_path / f"{name}.npz"
        if name == "directory":
            path.mkdir()
        elif name == "npy":
            path = tmp_path / "weights.npy"
            np.save(path, np.zeros(3))
        else:
            path.write_bytes({"empty": b"", "truncated": good[:len(good) // 2],
                              "bytes": bytes(range(256))}[name])
        capsys.readouterr()
        rc = exit_code(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(path) in err and "allow_pickle" not in err

    @pytest.mark.parametrize("key", ["version", "graph_hash", "mode", "k", "num_layers",
                                     "t_init", "t_final", "s_total", "not-an-object"])
    def test_incomplete_meta_rejected(self, tmp_path, capsys, key):
        path, meta = trained_meta(tmp_path)
        if key == "not-an-object":
            meta = list(meta)
        else:
            del meta[key]
        replace_meta(path, json.dumps(meta).encode())
        capsys.readouterr()
        rc = exit_code(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and str(path) in err
        assert (f"lacks keys {key}\n" in err if key != "not-an-object"
                else "not a JSON object" in err)

    @pytest.mark.parametrize("key,value", [
        ("num_layers", "1"), ("num_layers", True), ("s_total", 2.5), ("k", 0),
        ("version", True), ("t_init", None), ("t_init", -1.0), ("t_final", float("inf")),
        ("mode", "foo"), ("not-json", None)])
    def test_bad_meta_value_rejected(self, tmp_path, capsys, key, value):
        path, meta = trained_meta(tmp_path)
        meta[key] = value
        replace_meta(path, json.dumps(meta).encode()[:-1] if key == "not-json"
                     else json.dumps(meta).encode())
        capsys.readouterr()
        rc = exit_code(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and str(path) in err
        assert (f"meta {key} is {value!r}, expected" in err if key != "not-json"
                else "meta is not JSON" in err)

    def test_mode_mismatch(self, tmp_path, capsys):
        path, meta = trained_meta(tmp_path)      # a signal-mode ring model
        meta["mode"] = "vertex"
        replace_meta(path, json.dumps(meta).encode())
        capsys.readouterr()
        rc = exit_code(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: checkpoint is a vertex-mode model, "
                       "dataset is in signal mode\n")

    def test_weight_dtype_mismatch(self, tmp_path, capsys):
        out = run_train(tmp_path)
        path = out / "checkpoint.npz"
        with np.load(path) as f:
            arrays = dict(f)
        arrays["fc_weight"] = arrays["fc_weight"].astype(np.float64)
        np.savez(path, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fc_weight has dtype float64" in err

    @pytest.mark.parametrize("dtype", ["U8", np.bool_, np.complex128],
                             ids=["str", "bool", "complex"])
    def test_logits_dtype_rejected(self, tmp_path, capsys, dtype):
        path = run_train(tmp_path) / "checkpoint.npz"
        with np.load(path) as f:
            arrays = dict(f)
        arrays["logits"] = arrays["logits"].astype(dtype)
        np.savez(path, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(path)] + RING)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: logits has dtype {np.dtype(dtype)}, "
                       f"expected float32 or float64\n")

    def test_unsupported_version(self, tmp_path, capsys):
        path, meta = trained_meta(tmp_path)
        meta["version"] = 2
        replace_meta(path, json.dumps(meta).encode())
        capsys.readouterr()
        assert exit_code(["eval", "--checkpoint", str(path)] + RING) == 2
        assert capsys.readouterr().err == "error: unsupported checkpoint version 2\n"

    @pytest.mark.parametrize("case,message", [
        ("nan-logits", "non-finite logits"),
        ("inf-w0", "non-finite activations after graph-signal layers"),
        ("huge-weights", "non-finite activations after graph-signal layers"),
    ], ids=["nan-logits", "inf-w0", "huge-weights"])
    def test_non_finite_checkpoint(self, tmp_path, capsys, case, message):
        # two layers, so that a GSL output feeds the weights of a second layer
        path = run_train(tmp_path, extra=["--layers", "4,4"]) / "checkpoint.npz"
        with np.load(path) as f:
            arrays = dict(f)
        if case == "nan-logits":
            arrays["logits"][0, 0] = np.nan
        elif case == "inf-w0":
            arrays["w0"][0, 0, 0] = np.inf
        else:  # finite, but their products overflow float32
            for name in ("w0", "w1"):
                arrays[name] = np.full_like(arrays[name], 1e30)
        np.savez(path, **arrays)
        capsys.readouterr()
        assert exit_code(["eval", "--checkpoint", str(path)] + RING) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestVizCommand:
    def grid_transforms(self, tmp_path, h=2, w=3):
        targets = np.stack([np.arange(h * w),
                            [min(i + w, (h - 1) * w + i % w) for i in range(h * w)]])
        path = tmp_path / "transforms.json"
        path.write_text(transforms_to_json(targets))
        return path

    def test_svg_written(self, tmp_path):
        tf = self.grid_transforms(tmp_path)
        out = tmp_path / "viz"
        rc = main(["viz", "--transforms", str(tf), "--height", "2",
                   "--width", "3", "--out-dir", str(out)])
        assert rc == 0
        for k in (0, 1):
            ET.fromstring((out / f"T{k}.svg").read_text())  # well-formed

    def test_image_translation(self, tmp_path):
        tf = self.grid_transforms(tmp_path)
        img = tmp_path / "input.ppm"
        img.write_bytes(b"P6\n3 2\n255\n" + bytes(range(18)))
        out = tmp_path / "viz"
        rc = main(["viz", "--transforms", str(tf), "--image", str(img),
                   "--height", "2", "--width", "3", "--out-dir", str(out)])
        assert rc == 0
        back, h, w = read_ppm((out / "T0.ppm").read_bytes())
        assert (h, w) == (2, 3)
        # slice 0 is the identity: bytes survive the roundtrip
        assert np.allclose(back.ravel() * 255, np.arange(18), atol=0.5)

    def test_image_size_mismatch(self, tmp_path, capsys):
        tf = self.grid_transforms(tmp_path)           # a 2x3 grid
        img = tmp_path / "input.ppm"
        img.write_bytes(b"P6\n2 3\n255\n" + bytes(18))  # 2 wide, 3 high
        rc = exit_code(["viz", "--transforms", str(tf), "--image", str(img),
                        "--height", "2", "--width", "3", "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: image is 3x2, grid is 2x3"]

    def test_missing_dims(self, tmp_path, capsys):
        tf = self.grid_transforms(tmp_path)
        rc = main(["viz", "--transforms", str(tf), "--out-dir",
                   str(tmp_path / "v")])
        assert rc == 2

    def test_vertex_count_mismatch(self, tmp_path, capsys):
        tf = self.grid_transforms(tmp_path)           # 6 vertices
        out = tmp_path / "v"
        rc = main(["viz", "--transforms", str(tf), "--height", "3",
                   "--width", "3", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: transforms cover 6 vertices, grid is 3x3\n"
        assert not out.exists()

    def test_image_mismatch_leaves_no_directory(self, tmp_path, capsys):
        tf = self.grid_transforms(tmp_path)           # a 2x3 grid
        img = tmp_path / "input.ppm"
        img.write_bytes(b"P6\n3 3\n255\n" + bytes(27))  # 3 wide, 3 high
        out = tmp_path / "v"
        rc = main(["viz", "--transforms", str(tf), "--image", str(img), "--height", "2",
                   "--width", "3", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: image is 3x3, grid is 2x3\n"
        assert not out.exists()

    @pytest.mark.parametrize("vertex,target", [(15, 19), (0, -4)])
    @pytest.mark.parametrize("image", [False, True], ids=["svg", "image"])
    def test_target_outside_the_grid(self, tmp_path, capsys, vertex, target, image):
        targets = np.arange(16)
        targets[vertex] = target
        tf = tmp_path / "transforms.json"
        tf.write_text(json.dumps({"n": 16, "k": 1, "targets": [targets.tolist()]}))
        argv = ["viz", "--transforms", str(tf), "--height", "4", "--width", "4",
                "--out-dir", str(tmp_path / "v")]
        if image:
            img = tmp_path / "input.ppm"
            img.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
            argv += ["--image", str(img)]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed transforms file") and "[0, 16)" in err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("doc", [
        {"n": 4, "k": 1, "targets": [[0, 1, 2, 3.5]]},
        {"n": 4, "k": 1, "targets": [[True, 1, 2, 3]]},
        {"n": 4.0, "k": 1, "targets": [[0, 1, 2, 3]]},
        {"n": 4, "k": "1", "targets": [[0, 1, 2, 3]]}],
        ids=["float-target", "bool-target", "float-n", "string-k"])
    def test_non_integer_transforms(self, tmp_path, capsys, doc):
        tf = tmp_path / "transforms.json"
        tf.write_text(json.dumps(doc))
        rc = exit_code(["viz", "--transforms", str(tf), "--height", "2", "--width", "2",
                        "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed transforms file") and "integers" in err
        assert len(err.splitlines()) == 1 and not (tmp_path / "v").exists()

    def test_malformed_transforms(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["viz", "--transforms", str(bad), "--height", "2",
                   "--width", "3", "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_unreadable_transforms_path(self, tmp_path, capsys):
        # an error reading the file is the OS's, not a malformed document
        rc = exit_code(["viz", "--transforms", str(tmp_path), "--height", "2",
                        "--width", "3", "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(tmp_path) in err
        assert "malformed" not in err and len(err.splitlines()) == 1


class TestSweepCommand:
    def test_grid_rows(self, tmp_path, capsys):
        grid = ["--height", "2", "--width", "4"]
        out = tmp_path / "sweep"
        rc = main(["sweep", "--sweep-axis", "t-init", "--sweep-values", "2,1",
                   "--repeats", "1", "--out-dir", str(out)] + grid + FAST)
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("t_init,t_final,accuracy,distance_identity,"
                            "distance_up,distance_down,distance_dilation,"
                            "distance_mean")
        assert len(lines) == 3
        canon = canonical_maps(2, 4)
        for line, t_init in zip(lines[1:], ("2", "1")):
            # a sweep point with one repeat is the train run at that t_init
            run = run_train(tmp_path, f"t{t_init}", grid + ["--t-init", t_init])
            acc = float(capsys.readouterr().out.split("final val accuracy:")[1].split()[0])
            hard = transforms_from_json((run / "transforms.json").read_text())
            expected = [min(transform_distance(s, canon[name]) for s in hard)
                        for name in ("identity", "up", "down", "h-dilate")]
            expected.append(np.mean([min(transform_distance(s, t) for t in canon.values())
                                     for s in hard]))
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == float(t_init)
            assert vals[2] == pytest.approx(acc, abs=5e-5)
            assert vals[3:] == pytest.approx(expected, rel=1e-9)
            report = (run / "eval_report.csv").read_text().splitlines()
            assert vals[7] == pytest.approx(float(report[-1].split(",")[2]), rel=1e-9)

    def test_one_row_grid_has_no_distance_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = exit_code(["sweep", "--sweep-axis", "t-init", "--sweep-values", "2,1",
                        "--out-dir", str(out), "--height", "1", "--width", "8"] + FAST)
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",,,,,") for line in lines[1:])

    def test_empty_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = exit_code(["sweep", "--sweep-axis", "t-init", "--sweep-values", ",",
                        "--out-dir", str(out)] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: empty sweep grid"]
        assert not out.exists()

    def test_missing_axis(self, tmp_path, capsys):
        rc = exit_code(["sweep", "--out-dir", str(tmp_path)] + FAST)
        assert rc == 2


class TestExportGraph:
    def test_edge_list_written(self, tmp_path):
        out = tmp_path / "graph.txt"
        rc = main(["export-graph", "--out", str(out)] + RING)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "0 0" in lines        # self-looped ring
        assert "0 1" in lines
        assert all(len(l.split()) == 2 for l in lines)


class TestErrors:
    @pytest.mark.parametrize("command", ["train", "export-graph"])
    @pytest.mark.parametrize("inside", [False, True], ids=["file", "below-file"])
    def test_unwritable_output_path(self, tmp_path, capsys, monkeypatch, command,
                                    inside):
        blocker = tmp_path / "f"
        blocker.write_text("")
        target = blocker / "x" if inside else blocker
        if command == "train":
            monkeypatch.setattr(cli.nn, "train", lambda *a: pytest.fail("trained"))
            argv = ["train", "--out-dir", str(target)] + FAST
        else:
            argv = ["export-graph", "--out", str(target / "graph.txt" if inside
                                                  else tmp_path)] + RING
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_bad_graph_combo(self, tmp_path, capsys):
        rc = main(["train", "--graph", "grid", "--out-dir",
                   str(tmp_path / "o")] + FAST)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", ["1 x", "1 2 3", "7"])
    def test_bad_edge_list_line_named(self, tmp_path, capsys, bad_line):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n{bad_line}\n")
        rc = exit_code(["train", "--graph", "edge-list", "--edge-list", str(edges),
                        "--out-dir", str(tmp_path / "o")] + FAST)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: edge list line 2: expected 'i j', got {bad_line!r}"]

    @pytest.mark.parametrize("flag", ["--edge-list", "--content"])
    def test_missing_input_file_named(self, tmp_path, capsys, flag):
        missing = tmp_path / "nope.txt"
        cites = tmp_path / "x.cites"
        cites.write_text("")
        extra = (["--graph", "edge-list", "--edge-list", str(missing)] if flag == "--edge-list"
                 else ["--dataset", "webkb", "--content", str(missing), "--cites", str(cites)])
        rc = exit_code(["train", "--out-dir", str(tmp_path / "o")] + FAST + extra)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].endswith(f"{str(missing)!r} not found")

    @pytest.mark.parametrize("extra,message", [
        (["--dataset", "webkb"], "--dataset webkb needs --content"),
        (["--dataset", "webkb", "--content", "x.content"], "--dataset webkb needs --cites"),
        (["--dataset", "cifar10"], "--dataset cifar10 needs --data-dir"),
        (["--graph", "edge-list"], "--graph edge-list needs --edge-list"),
    ], ids=["webkb-content", "webkb-cites", "cifar10", "edge-list"])
    def test_missing_flag_named(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.content").write_text("")
        out = tmp_path / "o"
        rc = exit_code(["train", "--out-dir", str(out)] + FAST + extra)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_blank_webkb_content(self, tmp_path, capsys):
        content, cites = tmp_path / "x.content", tmp_path / "x.cites"
        content.write_text("\n  \n\n")
        cites.write_text("")
        out = tmp_path / "o"
        rc = exit_code(["train", "--dataset", "webkb", "--content", str(content),
                        "--cites", str(cites), "--out-dir", str(out)] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {content}: no content rows"]
        assert not out.exists()

    def test_isolated_edge_list_vertex(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"                # FAST's ring has 8 vertices
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(6)))
        rc = exit_code(["train", "--graph", "edge-list", "--edge-list", str(edges),
                        "--out-dir", str(tmp_path / "o")] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: vertex 7 has no neighbors; every row needs support"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        rc = main(["train", "--ring-n", "8", "--ring-classes", "2",
                   "--ring-samples", "10", "--k", "2", "--layers", "4",
                   "--batch-size", "8", "--steps", "40", "--optimizer", "sgd",
                   "--lr", "1e6", "--logit-lr", "1e6", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        # the fc logits overflow first in a record() evaluation; stderr holds
        # that one line and no numpy RuntimeWarning
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged at step")
        assert "evaluation): non-finite logits of the fully-connected layer" in lines[0]

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_validation_split(self, tmp_path, capsys, command):
        # four records hold out round(0.1 * 4) = 0 of them for validation
        data_dir = tmp_path / "cifar"
        data_dir.mkdir()
        (data_dir / "data_batch_1.bin").write_bytes(bytes(4 * 3073))
        extra = ["--sweep-axis", "t-init", "--sweep-values", "2"] if command == "sweep" else []
        rc = exit_code([command, "--dataset", "cifar10", "--data-dir", str(data_dir),
                        "--k", "2", "--layers", "4,4", "--steps", "2",
                        "--out-dir", str(tmp_path / "o")] + extra)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: empty validation split"]

    def test_missing_cifar_dir(self, tmp_path, capsys):
        rc = main(["train", "--dataset", "cifar10", "--data-dir",
                   str(tmp_path / "nope"), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--k", "0"], ["train", "--k", "-1"], ["train", "--layers", "0"],
        ["train", "--epochs", "1", "--batch-size", "0"], ["train", "--max-train", "-1"],
        ["sweep", "--repeats", "0", "--sweep-axis", "t-init", "--sweep-values", "2"],
    ], ids=["k0", "k-1", "layers0", "batch-size0", "max-train-1", "repeats0"])
    def test_bad_count_rejected(self, tmp_path, capsys, argv):
        rc = exit_code(argv[:1] + ["--out-dir", str(tmp_path / "o")] + FAST + argv[1:])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("flag", ["--steps", "--epochs", "--batch-size",
                                      "--max-train", "--repeats", "--height", "--width"])
    def test_non_integer_count_rejected(self, tmp_path, capsys, flag):
        command = "sweep" if flag == "--repeats" else "train"
        rc = exit_code([command, "--out-dir", str(tmp_path / "o")] + FAST + [flag, "abc"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "_positive_int" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"gstrans {command}: error: argument {flag}: "
                          f"expected a positive integer, got 'abc'"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["train", "--layers", "16,abc"], "error: --layers: 'abc' is not a valid int"),
        (["train", "--layers", "16, 2.5"], "error: --layers: '2.5' is not a valid int"),
        (["sweep", "--sweep-axis", "t-init", "--sweep-values", "0.1,abc"],
         "error: --sweep-values: 'abc' is not a valid float"),
    ], ids=["layers", "layers-fraction", "sweep-values"])
    def test_bad_list_item_names_its_flag(self, tmp_path, capsys, argv, message):
        rc = exit_code(argv[:1] + ["--out-dir", str(tmp_path / "o")] + FAST + argv[1:])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--height", "0", "--width", "4"],
        ["train", "--height", "-2", "--width", "-4"],
        ["viz", "--height", "0", "--width", "4"],
        ["viz", "--height", "-2", "--width", "-4"],
    ], ids=["train-0", "train-negative", "viz-0", "viz-negative"])
    def test_nonpositive_grid_dims_rejected(self, tmp_path, capsys, argv):
        if argv[0] == "train":
            argv += FAST
        else:
            tf = tmp_path / "transforms.json"
            tf.write_text(transforms_to_json(np.arange(8)[None]))
            argv += ["--transforms", str(tf)]
        rc = exit_code(argv + ["--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--height" in errors[0] and "must be >= 1" in errors[0]
        assert not (tmp_path / "o").exists()

    def test_negative_logit_lr_rejected(self, tmp_path, capsys):
        rc = exit_code(["train", "--logit-lr", "-5", "--out-dir", str(tmp_path / "o")]
                       + FAST)
        assert rc == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "logit_lr=-5" in errors[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--t-init", "nan"), ("--t-final", "inf"), ("--lr", "nan"),
        ("--lr", "inf"), ("--logit-lr", "nan"), ("--ring-noise", "nan"),
        ("--ring-noise", "inf"),
    ], ids=["t-init-nan", "t-final-inf", "lr-nan", "lr-inf", "logit-lr-nan",
            "ring-noise-nan", "ring-noise-inf"])
    def test_non_finite_float_flag_rejected(self, tmp_path, capsys, flag, value):
        rc = exit_code(["train", "--out-dir", str(tmp_path / "o")] + FAST + [flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and value in errors[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t_init,t_final", [("1e200", "1e-200"), ("1e-200", "1e200")],
                             ids=["ratio-underflows", "ratio-overflows"])
    def test_temperature_ratio_outside_float_range_rejected(self, tmp_path, capsys,
                                                            t_init, t_final):
        rc = exit_code(["train", "--out-dir", str(tmp_path / "o")] + FAST
                       + ["--t-init", t_init, "--t-final", t_final])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"t_init={float(t_init)}" in errors[0] and f"t_final={float(t_final)}" in errors[0]
        assert not (tmp_path / "o").exists()


class TestLeanParser:
    """build_parser(command) gives options only to `command`; what a
    command parses and prints must not tell it from build_parser()."""

    TYPICAL = {
        "train": ["train", "--dataset", "ring", "--steps", "5", "--layers", "4,4",
                  "--no-downscale", "--height", "4", "--width", "4"],
        "sweep": ["sweep", "--sweep-axis", "t-init", "--sweep-values", "1,2",
                  "--repeats", "2", "--seed", "3"],
        "viz": ["viz", "--transforms", "t.json", "--height", "4", "--width", "4",
                "--image", "a.ppm"],
        "eval": ["eval", "--checkpoint", "c.npz", "--split", "test", "--dataset",
                 "cifar10", "--data-dir", "d"],
        "export-graph": ["export-graph", "--out", "g.txt", "--graph", "ring"],
    }

    @staticmethod
    def subparsers(parser):
        """The parser of each subcommand, by name."""
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    @staticmethod
    def printed(parse, argv, capsys):
        """(exit code, stdout, stderr) of a parse that exits."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code, *capsys.readouterr())

    def test_registers_every_subcommand(self):
        assert list(self.subparsers(cli.build_parser("train"))) == list(cli.SUBCOMMANDS)

    @pytest.mark.parametrize("command", list(TYPICAL))
    def test_same_namespace(self, command):
        argv = self.TYPICAL[command]
        lean = cli.build_parser(command).parse_args(argv)
        assert vars(lean) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", list(TYPICAL))
    def test_same_help_and_usage(self, command):
        lean = self.subparsers(cli.build_parser(command))[command]
        full = self.subparsers(cli.build_parser())[command]
        assert lean.format_help() == full.format_help()
        assert lean.format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["bogus", "--steps", "5"], ["--bogus", "train"],
        ["--bogus", "train", "--steps", "5"], ["train", "--bogus"],
        ["train", "--help"], ["sweep", "-h"], ["export-graph"], ["viz", "--steps", "5"],
        ["train", "--steps", "abc"], ["--", "train"],
    ])
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        # main builds the lean parser from argv; the full one must agree
        # on the exit code and on every byte of help, usage and error
        full = self.printed(cli.build_parser().parse_args, argv, capsys)
        assert self.printed(main, argv, capsys) == full

    def test_other_subcommands_get_no_options(self):
        parsers = self.subparsers(cli.build_parser("train"))
        full = self.subparsers(cli.build_parser())
        for name, p in parsers.items():
            wanted = full[name] if name == "train" else argparse.ArgumentParser()
            assert [a.option_strings for a in p._actions] == \
                [a.option_strings for a in wanted._actions], name
            assert p.get_default("func") is cli.SUBCOMMANDS[name][1]


class TestOptionTables:
    """A subcommand takes the options its code reads, each spelled in full."""

    TRAINING_FLAGS = [("--k", "3"), ("--t-init", "1"), ("--t-final", "5"), ("--steps", "5"),
                      ("--epochs", "1"), ("--lr", "0.1"), ("--logit-lr", "0.1"),
                      ("--batch-size", "4"), ("--optimizer", "sgd"), ("--layers", "4"),
                      ("--out-dir", "o")]

    @pytest.mark.parametrize("command", ["eval", "export-graph"])
    @pytest.mark.parametrize("flag,value", TRAINING_FLAGS)
    def test_training_flag_rejected(self, capsys, monkeypatch, command, flag, value):
        # eval --k 3 is no --knn 3
        monkeypatch.setattr(cli, "_load_dataset", lambda args: pytest.fail("loaded"))
        required = ["--checkpoint", "c.npz"] if command == "eval" else ["--out", "g.txt"]
        assert exit_code([command] + required + RING + [flag, value]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"gstrans: error: unrecognized arguments: {flag} {value}"]

    @pytest.mark.parametrize("command,abbrev", [
        (command, abbrev) for command, (_, _, options) in cli.SUBCOMMANDS.items()
        for abbrev, flag in (("--ring-cl", "--ring-classes"), ("--lay", "--layers"))
        if flag in dict(options)])
    def test_abbreviation_rejected(self, capsys, monkeypatch, command, abbrev):
        monkeypatch.setattr(cli, "_load_dataset", lambda args: pytest.fail("loaded"))
        argv = TestLeanParser.TYPICAL[command] + [abbrev, "2"]
        assert exit_code(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"gstrans: error: unrecognized arguments: {abbrev} 2"]

    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    def test_no_prefix_spelling(self, command):
        parser = cli.build_parser(command)
        flags = [flag for flag, _ in cli.SUBCOMMANDS[command][2]] + ["--help"]
        prefixes = {flag[:i] for flag in flags for i in range(3, len(flag))} - set(flags)
        for prefix in sorted(prefixes):
            _, unknown = parser.parse_known_args(TestLeanParser.TYPICAL[command] + [prefix])
            assert unknown == [prefix]


# records per file of the small CIFAR-10 directory: 70 train records, of
# which round(0.1 * 70) = 7 are held out for validation, and 20 test records
CIFAR_FILES = {"data_batch_1.bin": 40, "data_batch_2.bin": 30, "test_batch.bin": 20}
CIFAR_FAST = ["--dataset", "cifar10", "--max-train", "25"]


def write_cifar_dir(path):
    path.mkdir()
    rng = np.random.default_rng(0)
    for name, count in CIFAR_FILES.items():
        records = rng.integers(0, 256, (count, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        (path / name).write_bytes(records.tobytes())
    return path


def capped_full_load(data_dir):
    """Every record converted, then the train split cut to --max-train."""
    full = load_cifar10(data_dir, downscale=True)
    full.splits["train"] = full.splits["train"][:25]
    return full


def full_load_graph(full, graph):
    """The graph a command builds, from a load of every record."""
    if graph == "knn-covariance":
        return build_knn_covariance_graph(full.signals[full.splits["train"]].mean(axis=2), 5)
    return build_grid_graph(16, 16)


@pytest.fixture(scope="module")
def cifar_run(tmp_path_factory):
    """The small CIFAR-10 directory and, per graph, a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("cifar")
    data_dir = write_cifar_dir(root / "data")
    checkpoints = {}
    for graph in ("grid", "knn-covariance"):
        out = root / graph
        assert main(["train", "--data-dir", str(data_dir), "--graph", graph, "--k", "2",
                     "--layers", "4,4", "--steps", "2", "--out-dir", str(out)]
                    + CIFAR_FAST) == 0
        checkpoints[graph] = out / "checkpoint.npz"
    return data_dir, checkpoints


class TestCifarCommands:
    """Commands convert only the records they read; their results are those
    of a load of every record."""

    @pytest.mark.parametrize("graph", ["grid", "knn-covariance"])
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_eval_matches_full_load(self, cifar_run, capsys, monkeypatch, split, graph):
        data_dir, checkpoints = cifar_run
        checkpoint = checkpoints[graph]
        capsys.readouterr()
        scored = []

        def spy(model, params, ds, name, t):
            scored.append(ds.signals[ds.splits[name]])
            return evaluate_accuracy(model, params, ds, name, t)

        monkeypatch.setattr(cli.evaluate, "evaluate_accuracy", spy)
        assert main(["eval", "--data-dir", str(data_dir), "--checkpoint", str(checkpoint),
                     "--graph", graph, "--split", split] + CIFAR_FAST) == 0
        full = capped_full_load(data_dir)
        model, params, sched = nn.load_checkpoint(checkpoint, full_load_graph(full, graph))
        acc = evaluate_accuracy(model, params, full, split, sched.t_final)
        assert np.array_equal(scored[0], full.signals[full.splits[split]])
        assert capsys.readouterr().out == f"{split} accuracy: {acc:.4f}\n"

    @pytest.mark.parametrize("graph", ["grid", "knn-covariance"])
    def test_export_graph_matches_full_load(self, cifar_run, tmp_path, graph):
        data_dir, _ = cifar_run
        out = tmp_path / "graph.txt"
        assert main(["export-graph", "--data-dir", str(data_dir), "--graph", graph,
                     "--out", str(out)] + CIFAR_FAST) == 0
        assert out.read_text() == write_edge_list(
            full_load_graph(capped_full_load(data_dir), graph))

    @pytest.mark.parametrize("fault", ["test-label", "label-past-cap", "truncated-test"])
    def test_unconverted_records_still_checked(self, tmp_path, capsys, monkeypatch,
                                               fault):
        data_dir = write_cifar_dir(tmp_path / "data")
        name = "data_batch_1.bin" if fault == "label-past-cap" else "test_batch.bin"
        f = data_dir / name
        raw = bytearray(f.read_bytes())
        if fault == "truncated-test":
            del raw[-100:]
            message = f"{f}: truncated record at byte offset {19 * CIFAR_RECORD_BYTES}"
        else:
            record = 30 if fault == "label-past-cap" else 4   # the cap is 25
            raw[record * CIFAR_RECORD_BYTES] = 11
            message = f"{f}: record {record} has label byte 11 > 9"
        f.write_bytes(bytes(raw))
        monkeypatch.setattr(cli.nn, "train", lambda *a: pytest.fail("trained"))
        rc = exit_code(["train", "--data-dir", str(data_dir), "--out-dir",
                        str(tmp_path / "o")] + CIFAR_FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_empty_eval_split(self, cifar_run, tmp_path, capsys, split):
        # four records hold out none for validation, and there is no test file
        checkpoint = cifar_run[1]["grid"]
        data_dir = tmp_path / "small"
        data_dir.mkdir()
        (data_dir / "data_batch_1.bin").write_bytes(bytes(4 * CIFAR_RECORD_BYTES))
        capsys.readouterr()
        rc = exit_code(["eval", "--data-dir", str(data_dir), "--checkpoint",
                        str(checkpoint), "--split", split] + CIFAR_FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: empty evaluation split"]

    def test_auto_grid_checks_its_dims(self, cifar_run, tmp_path, capsys, monkeypatch):
        # --graph auto builds CIFAR-10's grid with the grid graph's h*w = n check
        monkeypatch.setattr(cli.nn, "train", lambda *a: pytest.fail("trained"))
        rc = exit_code(["train", "--data-dir", str(cifar_run[0]), "--height", "8",
                        "--width", "8", "--out-dir", str(tmp_path / "o")] + CIFAR_FAST)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: grid graph needs --height/--width with h*w = n"]


class TestEntryPoint:
    def test_console_script_help(self):
        exe = shutil.which("gstrans")
        assert exe, "console script not installed"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout and "sweep" in proc.stdout
