"""Command-line entry point: train, sweep, viz, eval, export-graph."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data, evaluate, graph as graph_mod, nn, viz
from .errors import IngestionError, TrainingDivergedError
from .transforms import Schedule, transforms_from_json, transforms_to_json

LAYER_DEFAULTS = {"cifar10": "32,64", "webkb": "64,64", "ring": "16,16,16"}
LR_DEFAULTS = {"ring": 5e-4}
# the transform logits move on a coarser loss surface than the weights and
# need a larger step to saturate the softmax before the anneal sharpens it
LOGIT_LR_DEFAULTS = {"ring": 0.05, "cifar10": 0.02, "webkb": 0.02}
TRUE_WORDS = ("1", "true", "yes", "on")


def _read_config_file(path) -> list[tuple[int, str, str]]:
    """Flat 'key = value' format; '#' starts a comment. Returns
    (line number, key, value) in file order."""
    out = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out.append((ln, key, value))
    return out


def _with_config(args, argv: list[str]) -> list[str]:
    """argv with the config file's entries spliced in as flags right after
    the subcommand, so argparse types and checks them like flags typed on
    the command line, and a flag typed there wins over the file."""
    flags = []
    for ln, key, value in _read_config_file(args.config):
        dest = key.replace("-", "_")
        if dest in ("config", "command", "func") or not hasattr(args, dest):
            raise ValueError(f"{args.config}:{ln}: unknown key {key!r} "
                             f"for '{args.command}'")
        if dest == "downscale":
            if value.lower() not in TRUE_WORDS:
                flags.append("--no-downscale")
        else:
            flags.append(f"--{dest.replace('_', '-')}={value}")
    i = argv.index(args.command)
    return argv[:i + 1] + flags + argv[i + 1:]


def _positive_int(text: str) -> int:
    """argparse type of a count flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_layers(args) -> tuple[int, ...]:
    text = args.layers or LAYER_DEFAULTS.get(args.dataset, "16,16")
    return tuple(int(x) for x in text.split(",") if x.strip())


def _load_dataset(args):
    """Returns (dataset, graph, grid_dims or None)."""
    if args.dataset == "ring":
        ds, g = data.make_ring_task(args.ring_n, args.ring_classes,
                                    args.ring_samples, args.ring_noise, args.seed)
        grid = None
    elif args.dataset == "cifar10":
        if not args.data_dir or not Path(args.data_dir).is_dir():
            raise FileNotFoundError(
                f"--data-dir {args.data_dir!r} does not exist or is not a directory")
        ds = data.load_cifar10(args.data_dir)
        if args.downscale:
            ds = data.downscale_cifar(ds)
            grid = (16, 16)
        else:
            grid = (32, 32)
        g = None
    else:  # webkb
        for p in (args.content, args.cites):
            if not p or not Path(p).is_file():
                raise FileNotFoundError(f"WebKB input file {p!r} not found")
        ds, g = data.load_webkb(args.content, args.cites)
        grid = None

    if args.max_train is not None:
        ds.splits["train"] = ds.splits["train"][:args.max_train]

    height = args.height or (grid[0] if grid else None)
    width = args.width or (grid[1] if grid else None)
    n = ds.signals.shape[1]

    if args.graph == "auto":
        if g is None:
            g = graph_mod.build_grid_graph(height, width, True)
    elif args.graph == "grid":
        if height is None or width is None or height * width != n:
            raise ValueError("grid graph needs --height/--width with h*w = n")
        g = graph_mod.build_grid_graph(height, width, True)
    elif args.graph == "ring":
        g = graph_mod.build_ring_graph(n, True)
    elif args.graph == "knn-covariance":
        samples = ds.signals[ds.splits["train"]].mean(axis=2)
        g = graph_mod.build_knn_covariance_graph(samples, args.knn)
    else:  # edge-list
        if not args.edge_list or not Path(args.edge_list).is_file():
            raise FileNotFoundError(f"edge list file {args.edge_list!r} not found")
        g = graph_mod.read_edge_list(Path(args.edge_list).read_text(), n)
    if g.n != n:
        raise ValueError(f"graph has {g.n} vertices but signals have {n}")
    grid_dims = (height, width) if height and width and height * width == n else None
    return ds, g, grid_dims


def _train_config(args, ds) -> nn.TrainConfig:
    steps = args.steps
    if args.epochs is not None:
        per_epoch = (1 if ds.mode == "vertex" else
                     max(1, -(-len(ds.splits["train"]) // args.batch_size)))
        steps = args.epochs * per_epoch
    lr = args.lr if args.lr is not None else LR_DEFAULTS.get(args.dataset, 1e-3)
    return nn.TrainConfig(
        schedule=Schedule(args.t_init, args.t_final, steps),
        lr=lr, batch_size=args.batch_size, optimizer=args.optimizer,
        logit_lr=(args.logit_lr if args.logit_lr is not None
                  else LOGIT_LR_DEFAULTS.get(args.dataset)),
        seed=args.seed, k=args.k, hidden=_parse_layers(args))


def _write_metrics(path, history):
    with open(path, "w") as f:
        f.write("step,temperature,train_loss,train_acc,val_acc\n")
        for row in history:
            f.write(f"{row.step},{row.temperature:.10g},{row.train_loss:.10g},"
                    f"{row.train_acc:.10g},{row.val_acc:.10g}\n")


def cmd_train(args) -> int:
    ds, g, grid_dims = _load_dataset(args)
    config = _train_config(args, ds)
    model, params, hard, history = nn.train(ds, g, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(out / "checkpoint.npz", model, params, g, config.schedule)
    _write_metrics(out / "metrics.csv", history)
    (out / "transforms.json").write_text(transforms_to_json(hard))
    acc = evaluate.evaluate_accuracy(model, params, ds, "val", args.t_final)
    print(f"final val accuracy: {acc:.4f}")
    if grid_dims is not None:
        report = evaluate.transform_report(hard, *grid_dims)
        (out / "eval_report.csv").write_text(report)
        for line in report.strip().splitlines()[1:]:
            k, name, d = line.split(",")
            label = f"slice {k}" if k != "mean" else "mean distance"
            print(f"{label}: {name + ' ' if name else ''}{float(d):.4f}")
    return 0


def cmd_sweep(args) -> int:
    if not args.sweep_axis or not args.sweep_values:
        raise ValueError("sweep needs --sweep-axis and --sweep-values")
    values = [float(v) for v in args.sweep_values.split(",") if v.strip()]
    if not values:
        raise ValueError("empty sweep grid")
    ds, g, grid_dims = _load_dataset(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for v in values:
        point = argparse.Namespace(**vars(args))
        setattr(point, args.sweep_axis.replace("-", "_"), v)
        accs, reports = [], []
        for r in range(args.repeats):
            point.seed = args.seed + r
            config = _train_config(point, ds)
            model, params, hard, _ = nn.train(ds, g, config)
            accs.append(evaluate.evaluate_accuracy(model, params, ds, "val",
                                                   point.t_final))
            reports.append(hard)
        row = {"t_init": point.t_init, "t_final": point.t_final,
               "accuracy": float(np.mean(accs))}
        if grid_dims is not None:
            h, w = grid_dims
            canon = {c.name: c.targets for c in evaluate.canonical_transforms(h, w)}
            for label, name in (("identity", "identity"), ("up", "up"),
                                ("down", "down"), ("dilation", "h-dilate")):
                d = np.mean([min(evaluate.transform_distance(hd.slice(k),
                                                             canon[name], h * w)
                                 for k in range(hd.k)) for hd in reports])
                row[f"distance_{label}"] = float(d)
            mean_d = np.mean([np.mean([evaluate.nearest_canonical(hd.slice(k), h, w)[1]
                                       for k in range(hd.k)]) for hd in reports])
            row["distance_mean"] = float(mean_d)
        rows.append(row)
    cols = ["t_init", "t_final", "accuracy", "distance_identity", "distance_up",
            "distance_down", "distance_dilation", "distance_mean"]
    with open(out / "sweep.csv", "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(f"{row[c]:.10g}" if c in row else "" for c in cols) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} grid points)")
    return 0


def cmd_viz(args) -> int:
    if args.height is None or args.width is None:
        raise ValueError("viz needs --height and --width")
    try:
        hard = transforms_from_json(Path(args.transforms).read_text())
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"malformed transforms file {args.transforms}: {exc}") from exc
    if hard.n != args.height * args.width:
        raise ValueError(f"transforms cover {hard.n} vertices, "
                         f"grid is {args.height}x{args.width}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    image = None
    if args.image:
        image, h, w = viz.read_ppm(Path(args.image).read_bytes())
        if (h, w) != (args.height, args.width):
            raise ValueError(f"image is {h}x{w}, grid is {args.height}x{args.width}")
    for k in range(hard.k):
        svg = viz.arrow_field_svg(hard.slice(k), args.height, args.width)
        (out / f"T{k}.svg").write_text(svg)
        if image is not None:
            ppm = viz.translated_image_ppm(hard, k, image, args.height, args.width)
            (out / f"T{k}.ppm").write_bytes(ppm)
    n_files = hard.k * (2 if image is not None else 1)
    print(f"wrote {n_files} files to {out}")
    return 0


def cmd_eval(args) -> int:
    ds, g, _ = _load_dataset(args)
    model, params, sched = nn.load_checkpoint(args.checkpoint, g)
    if model.num_classes != ds.num_classes:
        raise ValueError(f"checkpoint has {model.num_classes} classes, "
                         f"dataset has {ds.num_classes}")
    acc = evaluate.evaluate_accuracy(model, params, ds, args.split, sched.t_final)
    print(f"{args.split} accuracy: {acc:.4f}")
    return 0


def cmd_export_graph(args) -> int:
    ds, g, _ = _load_dataset(args)
    Path(args.out).write_text(graph_mod.write_edge_list(g))
    print(f"wrote {g.n} vertices, {g.num_entries()} support entries to {args.out}")
    return 0


def _add_shared(p):
    """Options of every subcommand."""
    p.add_argument("--config", help="flat 'key = value' file of flag values; "
                                    "a key is a flag name without the dashes")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)


def _add_common(p):
    """Options of the subcommands that load a dataset."""
    _add_shared(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", choices=["ring", "cifar10", "webkb"], default="ring")
    p.add_argument("--graph", default="auto",
                   choices=["auto", "grid", "ring", "knn-covariance", "edge-list"])
    p.add_argument("--edge-list")
    p.add_argument("--data-dir", help="CIFAR-10 binary batch dir")
    p.add_argument("--content", help="WebKB content file")
    p.add_argument("--cites", help="WebKB cites file")
    p.add_argument("--k", type=int, default=5, help="number of transformation slices")
    p.add_argument("--t-init", type=float, default=10.0)
    p.add_argument("--t-final", type=float, default=0.01)
    p.add_argument("--steps", type=_positive_int, default=2000)
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--lr", type=float)
    p.add_argument("--logit-lr", type=float)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p.add_argument("--layers", help="comma-separated GSL channel widths")
    p.add_argument("--knn", type=int, default=5,
                   help="neighbors for the covariance graph")
    p.add_argument("--no-downscale", dest="downscale", action="store_false")
    p.add_argument("--max-train", type=_positive_int)
    p.add_argument("--ring-n", type=int, default=16)
    p.add_argument("--ring-classes", type=int, default=4)
    p.add_argument("--ring-samples", type=int, default=200)
    p.add_argument("--ring-noise", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstrans",
        description="Infer edge-constrained graph-signal pseudo-translations "
                    "by training an annealed weight-sharing classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train, harden, and write run artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="one training run per temperature grid point")
    _add_common(p)
    p.add_argument("--sweep-axis", choices=["t-init", "t-final"])
    p.add_argument("--sweep-values", help="comma-separated grid values")
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("viz", help="render hardened transforms as SVG/PPM")
    _add_shared(p)
    p.add_argument("--transforms", required=True, help="transforms JSON file")
    p.add_argument("--image", help="P6 PPM image to transform")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="val")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-graph", help="write the graph as an edge list")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Exit codes: 0 success, 2 bad input (argparse's
    own usage errors included), 3 training diverged."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IngestionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
