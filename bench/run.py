"""gstrans benchmark: one workload, run as real CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/gstrans`` must exist). The seed
makes the inputs; every command of one run gets the same inputs and runs in
a fresh process, one at a time, until ``--seconds`` are used (at least two
commands). Each command is one operation and fails if it exits non-zero,
prints a traceback, hardens a target off its vertex's neighbour list, scores
no better than guessing a class at random, or writes results that
differ from the run's first command. The last line of stdout is the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. README.md says why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORK = ROOT / ".bench_work"
# a run must end within 180 s, report included
HARD_LIMIT_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GRID_TRAIN = ["--k", "5", "--layers", "32,64", "--batch-size", "32",
              "--max-train", "320", "--steps", "10", "--lr", "0.01"]
CIFAR_BATCHES, CIFAR_RECORDS = 5, 500


@dataclass
class Workload:
    argv: list[str]                 # the measured command
    neighbours: list[set[int]]      # each hardened target must be in its row
    chance: float                   # accuracy of guessing a class at random
    bytes_in: int = 0               # size of the input files


def _grid_neighbours(side: int) -> list[set[int]]:
    out = []
    for r in range(side):
        for c in range(side):
            nb = {r * side + c}
            nb.update(r2 * side + c2 for r2, c2 in
                      ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                      if 0 <= r2 < side and 0 <= c2 < side)
            out.append(nb)
    return out


def prepare(name: str, seed: int, inputs_dir: Path) -> Workload:
    """Write the workload's inputs for this seed; returns what the checks need."""
    rng = np.random.default_rng(seed)
    common = ["--seed", str(seed)]
    if name == "ring":
        n = 16
        return Workload(
            ["train", "--dataset", "ring", "--ring-n", str(n), "--ring-classes", "4",
             "--ring-samples", "200", "--k", "3", "--layers", "16,16,16",
             "--batch-size", "32", "--steps", "400", *common],
            [{(i - 1) % n, i, (i + 1) % n} for i in range(n)], chance=1 / 4)
    if name == "grid":
        data_dir = inputs_dir / "cifar"
        inputs.write_cifar10(data_dir, rng, CIFAR_BATCHES, CIFAR_RECORDS)
        return Workload(
            ["train", "--dataset", "cifar10", "--data-dir", str(data_dir),
             *GRID_TRAIN, *common],
            _grid_neighbours(inputs.CIFAR_SIDE // 2), 1 / inputs.CIFAR_CLASSES,
            sum(f.stat().st_size for f in data_dir.iterdir()))
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Op:
    """One CLI command run in its own process."""

    argv: list[str]
    out_dir: Path
    traced: bool
    code: int | None = None
    stderr: str = ""
    wall: float = 0.0
    probe: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def stdout(self) -> str:
        return self.probe["stdout"] if self.probe else ""

    def accuracy(self) -> float | None:
        found = re.findall(r"accuracy: ([0-9.]+)", self.stdout)
        return float(found[-1]) if found else None

    def outputs(self) -> dict[str, bytes]:
        return {name: (self.out_dir / name).read_bytes()
                for name in ("transforms.json", "metrics.csv")
                if (self.out_dir / name).is_file()}


def thread_env() -> dict[str, str]:
    """The process environment with one BLAS thread. A second thread does not
    speed these shapes up on two cores, and idle BLAS threads that spin would
    inflate the process CPU time that setup_s is taken from."""
    return dict(os.environ, **{var: "1" for var in THREAD_VARS})


def run_op(argv: list[str], op_dir: Path, traced: bool, deadline: float,
           env: dict[str, str]) -> Op:
    op_dir.mkdir(parents=True)
    out_dir = op_dir / "out"
    if "--out-dir" not in argv:
        argv = argv + ["--out-dir", str(out_dir)]
    else:
        out_dir = Path(argv[argv.index("--out-dir") + 1])
    op = Op(argv, out_dir, traced)
    result = op_dir / "probe.json"
    cmd = [sys.executable, str(HERE / "probe.py"), str(result),
           "1" if traced else "0", "--", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=op_dir, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        op.code, op.stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        op.stderr = "timed out"
    op.wall = time.perf_counter() - start
    if result.is_file():
        op.probe = json.loads(result.read_text())
    return op


def check(op: Op, wl: Workload, reference: Op | None) -> None:
    """Record in op.problems every way the command failed."""
    if op.code != 0:
        op.problems.append(f"exit code {op.code}")
    if "Traceback" in op.stderr or "Traceback" in op.stdout:
        op.problems.append("printed a traceback")
    if op.probe is None:
        op.problems.append("no probe result")
        return
    path = op.out_dir / "transforms.json"
    try:
        targets = json.loads(path.read_text())["targets"]
        off = sum(t not in wl.neighbours[i]
                  for row in targets for i, t in enumerate(row))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        op.problems.append(f"unreadable transforms.json: {exc}")
    else:
        if off:
            op.problems.append(f"hardened targets off the support: {off}")
    acc = op.accuracy()
    if acc is None or acc <= wl.chance:
        op.problems.append(f"accuracy {acc} not above chance {wl.chance:.4f}")
    if reference is not None and op.outputs() != reference.outputs():
        op.problems.append("outputs differ from the first same-seed command")


def e2e(op: Op) -> dict[str, float]:
    """End-to-end numbers of one command from its untraced spans.

    A name ending in ``_min`` or ``_max`` is the fastest unit of work in the
    command (a training step, an evaluation forward chunk); _fastest() keeps
    the fastest over the run's commands and the median of the other names.
    """
    t = spans.Trace(op.probe["spans"])
    main = t.named("cli.main")[0]
    out = {"peak_rss_mb": op.probe["peak_rss_mb"], "cli.run_s": t.dur(main)}
    trains = t.named("nn.train")
    if trains:
        train = t.spans[trains[0]]
        out["setup_s"] = (train[6] - t.spans[main][6]) / 1e9
        if train[5]:
            out["nn.train_steps_per_s"] = train[5]["steps"] / t.dur(trains[0])
    steps = t.steps()
    if steps:
        out["train_step_ms_min"] = min(steps)
    rates = []
    for i in t.named("nn._eval_split"):
        # a pass scores its samples in forward chunks; a chunk's share of the
        # samples is its share of the rows
        chunks = [c for c in t.children[i] if t.spans[c][0] == "nn._forward_batch"]
        rows = sum(t.spans[c][5]["rows"] for c in chunks)
        rates.extend(t.spans[i][5]["samples"] * t.spans[c][5]["rows"] / rows / t.dur(c)
                     for c in chunks)
    if rates:
        out["eval_samples_per_s_max"] = max(rates)
    return out


def _fastest(numbers: list[dict[str, float]]) -> dict[str, float]:
    """Fastest unit over commands for _min/_max names, median for the rest."""
    out = {}
    for key in {k for n in numbers for k in n}:
        values = [n[key] for n in numbers if key in n]
        pick = (min if key.endswith("_min") else max if key.endswith("_max")
                else statistics.median)
        out[key] = pick(values)
    return out


def measure(wl: Workload, seconds: float, trace: bool, run_dir: Path,
            env: dict[str, str], deadline: float) -> list[Op]:
    """Run the command until the seconds are used, at least twice."""
    start = time.monotonic()
    ops: list[Op] = []
    while True:
        traced = trace and len(ops) % 2 == 1
        op = run_op(wl.argv, run_dir / f"op{len(ops)}", traced, deadline, env)
        check(op, wl, ops[0] if ops else None)
        ops.append(op)
        now = time.monotonic()
        typical = statistics.median(o.wall for o in ops)
        if len(ops) >= 2 and (now - start + typical > seconds or now + typical > deadline):
            return ops


def context(env: dict[str, str]) -> dict:
    """Versions, BLAS build, thread settings and machine size of this run."""
    ctx = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
           "threads": {v: env[v] for v in THREAD_VARS}}
    try:
        ctx["scipy"] = version("scipy")
    except PackageNotFoundError:
        ctx["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ctx["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        ctx["blas"] = None
    try:
        ctx["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        ctx["git_sha"] = None
    return ctx


def summarise(wl: Workload, ops: list[Op], trace: bool) -> dict[str, float | None]:
    """The run's metric values by name; None where the workload has none."""
    ok = [o for o in ops if not o.problems]
    plain = [o for o in ok if not o.traced]
    values = _fastest([e2e(o) for o in plain])
    if not trace:
        return values
    traced = [o for o in ok if o.traced]
    overhead = None
    if plain and traced:
        mark = _fastest([e2e(o) for o in traced])
        overhead = mark["train_step_ms_min"] / values["train_step_ms_min"] - 1
    extra = {"data.bytes_in": wl.bytes_in,
             "evaluate.accuracy": statistics.median(
                 [o.accuracy() for o in ok]) if ok else None,
             "cli.run_s": values.get("cli.run_s"),
             "nn.train_steps_per_s": values.get("nn.train_steps_per_s"),
             "trace.overhead": overhead}
    return spans.per_layer([spans.Trace(o.probe["spans"]) for o in traced], extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ring", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (ROOT / "src" / "gstrans" / "cli.py").is_file():
        print(f"error: no gstrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = thread_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    try:
        wl = prepare(args.workload, args.seed, run_dir / "inputs")
        ops = measure(wl, args.seconds, bool(args.trace), run_dir, env, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = [o for o in ops if o.problems]
    values = summarise(wl, ops, bool(args.trace))
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
               for m in declared}
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    ctx = context(env)
    for o in failed:
        print(f"failed: {' '.join(o.argv)}: {'; '.join(o.problems)}", file=sys.stderr)
        print(o.stderr[-2000:], file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": ctx, "not_reached": missing,
              "absent": sorted({a for o in ops if o.probe
                                for a in o.probe["absent"]}),
              "ops": [{"traced": o.traced, "wall_s": round(o.wall, 3),
                       "problems": o.problems,
                       "e2e": e2e(o) if o.probe and not o.problems else None}
                      for o in ops]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(
        dict(report, metrics=metrics), indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
