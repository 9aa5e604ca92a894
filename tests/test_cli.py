import json
import shutil
import subprocess
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gstrans import cli
from gstrans.cli import main
from gstrans.evaluate import canonical_transforms, nearest_canonical, transform_distance
from gstrans.transforms import transforms_from_json, transforms_to_json, HardTransforms
from gstrans.viz import read_ppm

FAST = ["--ring-n", "8", "--ring-classes", "2", "--ring-samples", "10",
        "--steps", "8", "--k", "2", "--layers", "4", "--batch-size", "8"]


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

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ring-n = 8\nring-classes = 2\nring-samples = 10\n"
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

    def test_epochs_flag(self, tmp_path):
        out = run_train(tmp_path, "ep", ["--epochs", "2"])
        lines = (out / "metrics.csv").read_text().splitlines()
        # 16 train samples, batch 8 -> 2 steps per epoch, 4 total
        assert lines[-1].split(",")[0] == "4"


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

    def test_key_spellings_and_downscale(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ring_n = 9\nbatch-size = 4\ndownscale = false\n")
        argv = ["train", "--config", str(cfg), "--ring-n", "8"]
        parser = cli.build_parser()
        args = parser.parse_args(cli._with_config(parser.parse_args(argv), argv))
        assert (args.ring_n, args.batch_size, args.downscale) == (8, 4, False)
        assert args.steps == 2000


class TestEvalCommand:
    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        out = run_train(tmp_path)
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--split", "val"] + FAST)
        assert rc == 0
        assert "val accuracy:" in capsys.readouterr().out

    def test_not_a_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        rc = main(["eval", "--checkpoint", str(path)] + FAST)
        assert rc == 2
        assert "meta" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.npz")] + FAST)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_class_count_mismatch(self, tmp_path, capsys):
        out = run_train(tmp_path)                 # FAST has 2 ring classes
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz")] + FAST
                  + ["--ring-classes", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 classes" in err and "has 3" in err


    def test_weight_dtype_mismatch(self, tmp_path, capsys):
        out = run_train(tmp_path)
        path = out / "checkpoint.npz"
        with np.load(path) as f:
            arrays = dict(f)
        arrays["fc_weight"] = arrays["fc_weight"].astype(np.float64)
        np.savez(path, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(path)] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fc_weight has dtype float64" in err


class TestVizCommand:
    def grid_transforms(self, tmp_path, h=2, w=3):
        targets = np.stack([np.arange(h * w),
                            [min(i + w, (h - 1) * w + i % w) for i in range(h * w)]])
        path = tmp_path / "transforms.json"
        path.write_text(transforms_to_json(HardTransforms(h * w, targets)))
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

    def test_missing_dims(self, tmp_path, capsys):
        tf = self.grid_transforms(tmp_path)
        rc = main(["viz", "--transforms", str(tf), "--out-dir",
                   str(tmp_path / "v")])
        assert rc == 2

    def test_malformed_transforms(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["viz", "--transforms", str(bad), "--height", "2",
                   "--width", "3", "--out-dir", str(tmp_path / "v")])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err


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
        canon = {c.name: c.targets for c in canonical_transforms(2, 4)}
        for line, t_init in zip(lines[1:], ("2", "1")):
            # a sweep point with one repeat is the train run at that t_init
            run = run_train(tmp_path, f"t{t_init}", grid + ["--t-init", t_init])
            acc = float(capsys.readouterr().out.split("final val accuracy:")[1].split()[0])
            hard = transforms_from_json((run / "transforms.json").read_text())
            slices = [hard.targets[k] for k in range(hard.k)]
            expected = [min(transform_distance(s, canon[name], 8) for s in slices)
                        for name in ("identity", "up", "down", "h-dilate")]
            expected.append(np.mean([nearest_canonical(s, 2, 4)[1] for s in slices]))
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == float(t_init)
            assert vals[2] == pytest.approx(acc, abs=5e-5)
            assert vals[3:] == pytest.approx(expected, rel=1e-9)
            report = (run / "eval_report.csv").read_text().splitlines()
            assert vals[7] == pytest.approx(float(report[-1].split(",")[2]), rel=1e-9)

    def test_missing_axis(self, tmp_path, capsys):
        rc = main(["sweep", "--out-dir", str(tmp_path)] + FAST)
        assert rc == 2


class TestExportGraph:
    def test_edge_list_written(self, tmp_path):
        out = tmp_path / "graph.txt"
        rc = main(["export-graph", "--out", str(out)] + FAST)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "0 0" in lines        # self-looped ring
        assert "0 1" in lines
        assert all(len(l.split()) == 2 for l in lines)


class TestErrors:
    def test_bad_graph_combo(self, tmp_path, capsys):
        rc = main(["train", "--graph", "grid", "--out-dir",
                   str(tmp_path / "o")] + FAST)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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
            tf.write_text(transforms_to_json(HardTransforms(8, np.arange(8)[None])))
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


class TestEntryPoint:
    def test_console_script_help(self):
        exe = shutil.which("gstrans")
        assert exe, "console script not installed"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout and "sweep" in proc.stdout
