"""Run one command set in two source trees and report every output that differs.

    python3 scripts/same_outputs.py OLD NEW WORK

OLD and NEW are source trees (each holds ``src/gstrans``); WORK is a
directory for the inputs and the runs, created if missing. Relative paths
are taken from the current directory. Every command runs as
``gstrans.cli.main`` in a fresh process of this Python, with the tree's
``src`` on PYTHONPATH and one BLAS thread. The inputs are written
once and shared: synthetic CIFAR-10 batches from ``bench/inputs.py``, one
set per seed as the benchmark writes them, and a hub-heavy WebKB-shaped
content/cites pair (877 pages, 1703 binary features at 2% density, a few
pages cited by hundreds of others).

Besides runs, the commands cover the CLI's own texts: the top-level and
every subcommand's ``--help``, an unknown subcommand, an unknown flag and
a non-integer ``--steps``.

For each command it compares, between the trees:

- the exit code, stdout and stderr, with the command's own out-dir and
  the tree's run directory replaced by placeholders;
- every file the command wrote; a ``.npz`` archive (its zip entries carry
  their write time) is compared array by array, by name, dtype, shape and
  bytes.

It prints one line per command and exits 0 only if every command gave the
same outputs in both trees, 1 otherwise.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402  (bench/inputs.py)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WEBKB_CLASSES = ("course", "faculty", "project", "staff", "student")

# the benchmark's command lines (bench/run.py) and more, with their inputs
# under {inputs}; {runs} is the tree's run directory, each command's out-dir
# is {runs}/<name>, made before the command runs
RING = ["train", "--dataset", "ring", "--ring-n", "16", "--ring-classes", "4",
        "--ring-samples", "200", "--k", "3", "--layers", "16,16,16",
        "--batch-size", "32", "--steps", "400"]
GRID = ["train", "--dataset", "cifar10", "--k", "5", "--layers", "32,64",
        "--batch-size", "32", "--max-train", "320", "--steps", "10", "--lr", "0.01"]
CIFAR = "{inputs}/cifar-%d"
WEBKB = ["--dataset", "webkb", "--content", "{inputs}/webkb.content",
         "--cites", "{inputs}/webkb.cites"]
COMMANDS = {
    "ring-1": RING + ["--seed", "1"],
    "ring-3": RING + ["--seed", "3"],
    "grid-1": GRID + ["--data-dir", CIFAR % 1, "--seed", "1"],
    "grid-3": GRID + ["--data-dir", CIFAR % 3, "--seed", "3"],
    "grid-sgd": ["train", "--dataset", "cifar10", "--data-dir", CIFAR % 1,
                 "--k", "4", "--layers", "16,16,16", "--batch-size", "17",
                 "--max-train", "400", "--steps", "40", "--optimizer", "sgd"],
    "eval-val": ["eval", "--dataset", "cifar10", "--data-dir", CIFAR % 1,
                 "--checkpoint", "{runs}/grid-1/checkpoint.npz", "--split", "val"],
    "eval-test": ["eval", "--dataset", "cifar10", "--data-dir", CIFAR % 1,
                  "--checkpoint", "{runs}/grid-1/checkpoint.npz", "--split", "test"],
    "grid-full": ["train", "--dataset", "cifar10", "--data-dir", CIFAR % 3,
                  "--no-downscale", "--k", "3", "--layers", "8", "--max-train", "100",
                  "--steps", "3"],
    "export-knn": ["export-graph", "--dataset", "cifar10", "--data-dir", CIFAR % 1,
                   "--graph", "knn-covariance", "--max-train", "600",
                   "--out", "{runs}/export-knn/graph.txt"],
    "ring-sweep": ["sweep", "--dataset", "ring", "--ring-n", "16", "--ring-classes", "4",
                   "--ring-samples", "200", "--k", "3", "--layers", "16,16,16",
                   "--steps", "400", "--sweep-axis", "t-final",
                   "--sweep-values", "0.05,0.01", "--repeats", "2"],
    "webkb": ["train", *WEBKB, "--k", "3", "--layers", "32,16", "--steps", "40"],
    "eval-webkb": ["eval", *WEBKB, "--checkpoint", "{runs}/webkb/checkpoint.npz",
                   "--split", "test"],
    # the CLI's own texts: help, usage and argparse's errors
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"]
       for name in ("train", "sweep", "viz", "eval", "export-graph")},
    "unknown-command": ["bogus"],
    "unknown-flag": ["train", "--bogus"],
    "steps-not-int": ["train", "--steps", "abc"],
}


def write_webkb(content: Path, cites: Path, rng: np.random.Generator,
                n: int = 877, features: int = 1703, links: int = 2400) -> None:
    """A WebKB-shaped content/cites pair with a class signal in the words:
    each class raises the rate of its own 30 words from 2% to 30%. A
    citation's source is uniform and its target drawn with weight 1/rank,
    so that a few pages collect hundreds of links."""
    labels = rng.choice(len(WEBKB_CLASSES), n, p=[0.2, 0.15, 0.1, 0.05, 0.5])
    rate = np.full((len(WEBKB_CLASSES), features), 0.02)
    for c in range(len(WEBKB_CLASSES)):
        rate[c, rng.choice(features, 30, replace=False)] = 0.3
    words = (rng.random((n, features)) < rate[labels]).astype(int)
    pages = [f"http://site{i % 4}.edu/page{i}" for i in range(n)]
    content.write_text("".join(
        f"{page} {' '.join(map(str, row))} {WEBKB_CLASSES[c]}\n"
        for page, row, c in zip(pages, words.tolist(), labels)))
    weight = 1.0 / np.arange(1, n + 1)
    targets = rng.permutation(n)[rng.choice(n, links, p=weight / weight.sum())]
    cites.write_text("".join(f"{pages[t]} {pages[s]}\n"
                             for t, s in zip(targets, rng.integers(0, n, links))))


def write_inputs(where: Path, commands: dict[str, list[str]]) -> None:
    """The inputs the commands name, each written once."""
    where.mkdir(parents=True, exist_ok=True)
    text = " ".join(" ".join(argv) for argv in commands.values())
    for seed in (1, 3):
        data_dir = where / f"cifar-{seed}"
        if "{inputs}/" + data_dir.name in text and not data_dir.is_dir():
            inputs.write_cifar10(data_dir, np.random.default_rng(seed), 5, 500)
    if "{inputs}/webkb" in text and not (where / "webkb.cites").is_file():
        write_webkb(where / "webkb.content", where / "webkb.cites",
                    np.random.default_rng(0))


def run_tree(tree: Path, runs: Path, work_inputs: Path,
             commands: dict[str, list[str]]) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr), in order, run in the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               **{var: "1" for var in THREAD_VARS})
    results = {}
    for name, argv in commands.items():
        out = runs / name
        out.mkdir()     # for a command that writes a file it is given, not an out-dir
        argv = [a.format(inputs=work_inputs, runs=runs) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from gstrans.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--out-dir", str(out)],
            env=env, cwd=runs, capture_output=True, text=True)
        results[name] = (proc.returncode, *(
            text.replace(str(out), "<out>").replace(str(runs), "<runs>")
            for text in (proc.stdout, proc.stderr)))
    return results


def npz_arrays(path: Path) -> dict[str, tuple]:
    with np.load(path) as data:
        return {key: (data[key].dtype.str, data[key].shape, data[key].tobytes())
                for key in data.files}


def file_differences(old: Path, new: Path) -> list[str]:
    """What differs between two out-dirs: missing files, bytes, npz arrays."""
    def listing(d):
        return {p.relative_to(d) for p in d.rglob("*") if p.is_file()} if d.is_dir() else set()
    a, b = listing(old), listing(new)
    found = [f"only in one tree: {p}" for p in sorted(a ^ b)]
    for rel in sorted(a & b):
        if rel.suffix == ".npz":
            x, y = npz_arrays(old / rel), npz_arrays(new / rel)
            found += [f"{rel}: array {key} differs" for key in sorted(x.keys() | y.keys())
                      if x.get(key) != y.get(key)]
        elif (old / rel).read_bytes() != (new / rel).read_bytes():
            found.append(f"{rel}: bytes differ")
    return found


def compare(old: Path, new: Path, work: Path,
            commands: dict[str, list[str]] = COMMANDS) -> list[str]:
    """Run the commands in both trees; one report line per difference."""
    work_inputs = work / "inputs"
    write_inputs(work_inputs, commands)
    runs = {"old": work / "old", "new": work / "new"}
    for d in runs.values():
        d.mkdir(parents=True)   # a run directory left by an earlier run is an error
    results = {label: run_tree(tree, runs[label], work_inputs, commands)
               for label, tree in (("old", old), ("new", new))}
    found = []
    for name in commands:
        here = [f"{name}: {what} differs" for what, x, y in
                zip(("exit code", "stdout", "stderr"), results["old"][name],
                    results["new"][name]) if x != y]
        here += [f"{name}: {line}" for line in
                 file_differences(runs["old"] / name, runs["new"] / name)]
        print(f"{name}: exit {results['new'][name][0]}, "
              f"{'DIFFERENT' if here else 'same'}")
        found += here
    return found


def main(argv: list[str], commands: dict[str, list[str]] = COMMANDS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("work", type=Path)
    args = parser.parse_args(argv)
    # absolute, since every command runs in its run directory
    found = compare(args.old.resolve(), args.new.resolve(), args.work.resolve(), commands)
    for line in found:
        print(line)
    print("identical" if not found else f"{len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
