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
    text = args.layers or LAYER_DEFAULTS[args.dataset]
    return tuple(int(x) for x in text.split(",") if x.strip())


def _warn_if_one_layer(ds, args):
    """Printed once a run has trained: a signal-mode model's last layer runs
    after the vertex mean, where no translation reaches it, so with one
    layer the edge logits get no gradient at all."""
    if ds.mode == "signal" and len(_parse_layers(args)) == 1:
        print("warning: a one-layer signal-mode model learns no translations: the "
              "edge logits get no gradient and harden as initialised; pass two or "
              "more --layers", file=sys.stderr)


def _cifar_splits(args) -> tuple[str, ...]:
    """The CIFAR-10 splits whose records the command reads: the loader
    converts only those, and the vertex count needs none of them."""
    if args.command in ("train", "sweep"):
        return ("train", "val")
    # the covariance graph is built from the train split
    graph = ("train",) if args.graph == "knn-covariance" else ()
    return graph + ((args.split,) if args.command == "eval" else ())


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
        ds = data.load_cifar10(args.data_dir, downscale=args.downscale,
                               splits=_cifar_splits(args), max_train=args.max_train)
        grid = (16, 16) if args.downscale else (32, 32)
        g = None
    else:  # webkb
        for p in (args.content, args.cites):
            if not p or not Path(p).is_file():
                raise FileNotFoundError(f"WebKB input file {p!r} not found")
        ds, g = data.load_webkb(args.content, args.cites)
        grid = None

    # the CIFAR-10 loader converted no more of the train split than the cap
    if args.max_train is not None and args.dataset != "cifar10":
        ds.splits["train"] = ds.splits["train"][:args.max_train]

    height = args.height if args.height is not None else (grid[0] if grid else None)
    width = args.width if args.width is not None else (grid[1] if grid else None)
    n = ds.signals.shape[1]

    # "auto" keeps the loader's graph, and CIFAR-10's loader gives none
    if args.graph == "grid" or (args.graph == "auto" and g is None):
        if height is None or width is None or height * width != n:
            raise ValueError("grid graph needs --height/--width with h*w = n")
        g = graph_mod.build_grid_graph(height, width)
    elif args.graph == "ring":
        g = graph_mod.build_ring_graph(n)
    elif args.graph == "knn-covariance":
        if ds.mode == "vertex":
            raise ValueError(f"the knn-covariance graph needs signal-mode samples, "
                             f"and {args.dataset} is a vertex-mode dataset")
        samples = ds.signals[ds.splits["train"]].mean(axis=2)
        g = graph_mod.build_knn_covariance_graph(samples, args.knn)
    elif args.graph == "edge-list":
        if not args.edge_list or not Path(args.edge_list).is_file():
            raise FileNotFoundError(f"edge list file {args.edge_list!r} not found")
        g = graph_mod.read_edge_list(Path(args.edge_list).read_text(), n)
    grid_dims = ((height, width) if height and width and min(height, width) >= 2
                 and height * width == n else None)
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, params, hard, history = nn.train(ds, g, config)
    _warn_if_one_layer(ds, args)
    nn.save_checkpoint(out / "checkpoint.npz", model, params, config.schedule)
    _write_metrics(out / "metrics.csv", history)
    (out / "transforms.json").write_text(transforms_to_json(hard))
    print(f"final val accuracy: {history[-1].val_acc:.4f}")
    if grid_dims is not None:
        dist = evaluate.canonical_distances(hard, *grid_dims)
        (out / "eval_report.csv").write_text(evaluate.transform_report(dist))
        for k, row in enumerate(dist):
            i = row.argmin()
            print(f"slice {k}: {evaluate.CANONICAL_NAMES[i]} {row[i]:.4f}")
        print(f"mean distance: {dist.min(axis=1).mean():.4f}")
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
        accs, dists = [], []
        for r in range(args.repeats):
            point.seed = args.seed + r
            _, _, hard, history = nn.train(ds, g, _train_config(point, ds))
            accs.append(history[-1].val_acc)
            if grid_dims is not None:
                dists.append(evaluate.canonical_distances(hard, *grid_dims))
        row = {"t_init": point.t_init, "t_final": point.t_final,
               "accuracy": float(np.mean(accs))}
        if dists:
            dist = np.stack(dists)                    # (repeats, K, 9)
            for label, name in (("identity", "identity"), ("up", "up"),
                                ("down", "down"), ("dilation", "h-dilate")):
                j = evaluate.CANONICAL_NAMES.index(name)
                row[f"distance_{label}"] = float(dist[:, :, j].min(axis=1).mean())
            row["distance_mean"] = float(dist.min(axis=2).mean(axis=1).mean())
        rows.append(row)
    _warn_if_one_layer(ds, args)
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
    except ValueError as exc:
        raise ValueError(f"malformed transforms file {args.transforms}: {exc}") from exc
    if hard.shape[1] != args.height * args.width:
        raise ValueError(f"transforms cover {hard.shape[1]} vertices, "
                         f"grid is {args.height}x{args.width}")
    image = None
    if args.image:
        image, h, w = viz.read_ppm(Path(args.image).read_bytes())
        if (h, w) != (args.height, args.width):
            raise ValueError(f"image is {h}x{w}, grid is {args.height}x{args.width}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, row in enumerate(hard):
        svg = viz.arrow_field_svg(row, args.height, args.width)
        (out / f"T{k}.svg").write_text(svg)
        if image is not None:
            ppm = viz.translated_image_ppm(row, image, args.height, args.width)
            (out / f"T{k}.ppm").write_bytes(ppm)
    n_files = len(hard) * (2 if image is not None else 1)
    print(f"wrote {n_files} files to {out}")
    return 0


def cmd_eval(args) -> int:
    ds, g, _ = _load_dataset(args)
    model, params, sched = nn.load_checkpoint(args.checkpoint, g)
    if model.num_classes != ds.num_classes:
        raise ValueError(f"checkpoint has {model.num_classes} classes, "
                         f"dataset has {ds.num_classes}")
    if model.mode != ds.mode:
        raise ValueError(f"checkpoint is a {model.mode}-mode model, "
                         f"dataset is in {ds.mode} mode")
    # a checkpoint's weights can turn the forward pass non-finite, which it
    # raises; numpy's warnings would only repeat that
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            acc = evaluate.evaluate_accuracy(model, params, ds, args.split, sched.t_final)
    except FloatingPointError as exc:
        raise ValueError(f"{args.checkpoint}: {exc}") from None
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
    p.add_argument("--height", type=_positive_int)
    p.add_argument("--width", type=_positive_int)


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
    """Run one subcommand. Exit codes: 0 success, 2 bad input or an output
    path that cannot be written (argparse's own usage errors included), 3
    training diverged."""
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
    except (OSError, IngestionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
