"""Command-line entry point: train, sweep, viz, eval, export-graph."""
from __future__ import annotations

import argparse
import ctypes
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
FALSE_WORDS = ("0", "false", "no", "off")


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
            if value.lower() not in TRUE_WORDS + FALSE_WORDS:
                raise ValueError(f"{args.config}:{ln}: {key} = {value!r} is not a boolean")
            if value.lower() in FALSE_WORDS:
                flags.append("--no-downscale")
        else:
            flags.append(f"--{dest.replace('_', '-')}={value}")
    i = argv.index(args.command)
    return argv[:i + 1] + flags + argv[i + 1:]


def _positive_int(text: str) -> int:
    """argparse type of a count flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _comma_list(text: str, kind, flag: str) -> list:
    """The non-blank items of a comma-separated flag value, each as kind; a
    bad item is a ValueError that names the flag and the item."""
    out = []
    for item in filter(str.strip, text.split(",")):
        try:
            out.append(kind(item))
        except ValueError:
            raise ValueError(f"{flag}: {item.strip()!r} is not a valid "
                             f"{kind.__name__}") from None
    return out


def _parse_layers(args) -> tuple[int, ...]:
    return tuple(_comma_list(args.layers or LAYER_DEFAULTS[args.dataset], int, "--layers"))


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
    lr = args.lr if args.lr is not None else LR_DEFAULTS.get(args.dataset, nn.TrainConfig.lr)
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
    values = _comma_list(args.sweep_values, float, "--sweep-values")
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


# options as (flag, add_argument keywords): those of every subcommand...
SHARED = (
    ("--config", dict(help="flat 'key = value' file of flag values; "
                           "a key is a flag name without the dashes")),
    ("--out-dir", dict(default="out")),
    ("--height", dict(type=_positive_int)),
    ("--width", dict(type=_positive_int)),
)
# ...and those of the subcommands that load a dataset
COMMON = SHARED + (
    ("--seed", dict(type=int, default=nn.TrainConfig.seed)),
    ("--dataset", dict(choices=["ring", "cifar10", "webkb"], default="ring")),
    ("--graph", dict(default="auto",
                     choices=["auto", "grid", "ring", "knn-covariance", "edge-list"])),
    ("--edge-list", {}),
    ("--data-dir", dict(help="CIFAR-10 binary batch dir")),
    ("--content", dict(help="WebKB content file")),
    ("--cites", dict(help="WebKB cites file")),
    ("--k", dict(type=int, default=nn.TrainConfig.k,
                  help="number of transformation slices")),
    ("--t-init", dict(type=float, default=10.0)),
    ("--t-final", dict(type=float, default=0.01)),
    ("--steps", dict(type=_positive_int, default=2000)),
    ("--epochs", dict(type=_positive_int)),
    ("--lr", dict(type=float)),
    ("--logit-lr", dict(type=float)),
    ("--batch-size", dict(type=_positive_int, default=nn.TrainConfig.batch_size)),
    ("--optimizer", dict(choices=["adam", "sgd"], default=nn.TrainConfig.optimizer)),
    ("--layers", dict(help="comma-separated GSL channel widths")),
    ("--knn", dict(type=int, default=5, help="neighbors for the covariance graph")),
    ("--no-downscale", dict(dest="downscale", action="store_false")),
    ("--max-train", dict(type=_positive_int)),
    ("--ring-n", dict(type=int, default=16)),
    ("--ring-classes", dict(type=int, default=4)),
    ("--ring-samples", dict(type=int, default=200)),
    ("--ring-noise", dict(type=float, default=0.05)),
)
# subcommand: (help, handler, options), in the order --help lists them
SUBCOMMANDS = {
    "train": ("train, harden, and write run artifacts", cmd_train, COMMON),
    "sweep": ("one training run per temperature grid point", cmd_sweep, COMMON + (
        ("--sweep-axis", dict(choices=["t-init", "t-final"])),
        ("--sweep-values", dict(help="comma-separated grid values")),
        ("--repeats", dict(type=_positive_int, default=1)))),
    "viz": ("render hardened transforms as SVG/PPM", cmd_viz, SHARED + (
        ("--transforms", dict(required=True, help="transforms JSON file")),
        ("--image", dict(help="P6 PPM image to transform")))),
    "eval": ("evaluate a checkpoint on a dataset split", cmd_eval, COMMON + (
        ("--checkpoint", dict(required=True)),
        ("--split", dict(choices=["train", "val", "test"], default="val")))),
    "export-graph": ("write the graph as an edge list", cmd_export_graph,
                     COMMON + (("--out", dict(required=True)),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Registers every subcommand, so help and usage errors stay the same,
    but gives options only to `command` when one is named."""
    parser = argparse.ArgumentParser(
        prog="gstrans",
        description="Infer edge-constrained graph-signal pseudo-translations "
                    "by training an annealed weight-sharing classifier.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


# glibc's mallopt(3) parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_pages():
    """Keep the pages of freed arrays mapped for reuse: glibc would give an
    array of 128 KiB or more an mmap of its own, unmapped when freed, and
    trim a free heap top past 128 KiB, so that every forward pass faulted
    its pages in anew. Raises the mmap threshold to 32 MiB, the ceiling
    mallopt(3) documents for 64-bit systems, and the trim threshold to
    1 GiB; does nothing where libc has no mallopt."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    """Run one subcommand. Exit codes: 0 success, 2 bad input or an output
    path that cannot be written (argparse's own usage errors included), 3
    training diverged."""
    keep_freed_pages()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so its first
    # token that is no option is the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
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
