"""Minimum time of each stage of one training step and of the ring
command's set-up, printed as JSON.

    PYTHONPATH=src python3 scripts/step_stages.py [--reps R]

The ``setup`` object times what the ring benchmark's command runs before
training: ``cli.build_parser()`` with every subcommand's options
(``build_parser``), ``cli.build_parser("train")`` as ``cli.main`` builds it
(``build_parser.train``), the parse of the ring benchmark's argv
(``parse_args``) and ``data.make_ring_task(16, 4, 200, 0.05, 1)``
(``make_ring_task``). These are warm minima in one process, after the
modules are imported and their caches filled; the benchmark's ``setup_s``
is the CPU time of a fresh process from ``cli.main`` to ``nn.train``, and
so is larger than their sum.

Builds the classifier of two benchmark shapes on random inputs, batch 32:

- ``ring``: N=16 ring, K=3, layers 16,16,16, one channel, 4 classes;
- ``grid``: 16x16 grid, K=5, layers 32,64, three channels, 10 classes.

Then it times each stage of one step of ``nn.train``: ``soften``, the
stacked operator's build (``sparse``) and its refill in place
(``refill``, as ``nn.train`` runs it), the forward pass of each
graph-signal layer (GSL) and the whole forward pass, each GSL's backward
split into dW/db, g = dz W^T, ``probs_grad`` and dh = M^T g (by
``transforms.matmul_t``, as ``nn._backward_batch`` runs it), the
whole backward pass, ``soften_backward`` and the optimizer (Adam on the
model, then on the edge logits). In signal mode the last layer runs after
the vertex mean and is no GSL; it is timed only inside the whole passes.
``eval_forward.64``, ``eval_forward.80`` and ``eval_forward.256`` time the
forward pass of an evaluation chunk of that many rows, called as
``nn._eval_split`` calls it, with no backward pass to follow.
``eval_forward.256.gsl{i}`` times GSL i's share of the 256-row chunk:
``nn._gsl`` as that forward calls it, the GSL below the last pooling its
vertex mean, on the input the chunk gives it. The backward stages and
the GSL stages read a step's cache and a chunk's layer inputs. A stage's
number is its milliseconds per call, the minimum over R rounds (default
100) of ten calls each, in one BLAS thread. The top-level ``faults``
object gives each stage's minor page faults per call over all of its
rounds, from ``resource.getrusage``. The stages run under
``cli.keep_freed_pages()``, the allocator setting of every ``gstrans``
command, so that their times and faults are those of the CLI's process.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read once, when numpy loads its BLAS

import argparse
import json
import resource
import sys
import timeit

import numpy as np
import scipy

from gstrans import cli, nn
from gstrans.data import make_ring_task
from gstrans.graph import build_grid_graph, build_ring_graph
from gstrans.transforms import EdgeLogits, matmul_t, soften, soften_backward

SHAPES = {
    "ring": (lambda: build_ring_graph(16), 3, (16, 16, 16), 1, 4),
    "grid": (lambda: build_grid_graph(16, 16), 5, (32, 64), 3, 10),
}
BATCH, CALLS = 32, 10
EVAL_ROWS = (64, 80, 256)
# the ring benchmark's command line (bench/run.py), seed 1
RING_ARGV = ["train", "--dataset", "ring", "--ring-n", "16", "--ring-classes", "4",
             "--ring-samples", "200", "--k", "3", "--layers", "16,16,16",
             "--batch-size", "32", "--steps", "400", "--seed", "1", "--out-dir", "out"]


def setup_stages() -> dict:
    """The set-up stages of the ring benchmark's command, in call order."""
    parser = cli.build_parser("train")
    return {"build_parser": cli.build_parser,
            "build_parser.train": lambda: cli.build_parser("train"),
            "parse_args": lambda: parser.parse_args(RING_ARGV),
            "make_ring_task": lambda: make_ring_task(16, 4, 200, 0.05, 1)}


def stages(name: str) -> dict:
    """The stage functions of one step on the named shape, in step order."""
    make_graph, k, hidden, c_in, classes = SHAPES[name]
    graph, rng = make_graph(), np.random.default_rng(0)
    model = nn.build_model(c_in, hidden, classes, k, "signal", rng, nn.TRAIN_DTYPE)
    params = EdgeLogits.init(graph, k, rng)
    xb = rng.standard_normal((BATCH, graph.n, c_in))
    yb = rng.integers(0, classes, BATCH)
    t = 1.0
    soft = soften(params, t)
    m = soft.sparse(model.dtype)
    # the cache that the backward stages and the GSL stages read
    _, cache = nn._forward_batch(xb, m, model)
    out = {"soften": lambda: soften(params, t),
           "sparse": lambda: soft.sparse(model.dtype),
           "refill": lambda: soft.sparse(model.dtype, out=m)}   # the same values
    gsls = range(len(hidden) - 1)  # the last layer runs after the vertex mean
    for li in gsls:
        h, _, _ = cache["layers"][li]
        out[f"forward.gsl{li}"] = \
            lambda h=h, li=li: nn._gsl(m, h, model.gsl_layers[li], True)
    out["forward"] = lambda: nn._forward_batch(xb, m, model)
    eval_rng = np.random.default_rng(1)
    for rows in EVAL_ROWS:
        xe = eval_rng.standard_normal((rows, graph.n, c_in))
        out[f"eval_forward.{rows}"] = \
            lambda xe=xe: nn._forward_batch(xe, m, model, backward=False)
    # each GSL of the last, 256-row chunk, on the inputs that chunk gives it
    eval_layers = nn._forward_batch(xe, m, model)[1]["layers"]
    for li in gsls:
        out[f"eval_forward.{rows}.gsl{li}"] = \
            lambda h=eval_layers[li][0], li=li: nn._gsl(
                m, h, model.gsl_layers[li], True, li == gsls[-1])
    for li in reversed(gsls):
        h, u, _ = cache["layers"][li]
        w = model.gsl_layers[li].w
        n, b, c = h.shape
        dz = rng.standard_normal((n * b, w.shape[2])).astype(model.dtype)
        g = (dz @ w.transpose(0, 2, 1)).reshape(-1, b * c)
        hs = h.reshape(n, b * c)
        out[f"backward.gsl{li}.dW_db"] = \
            lambda u=u, dz=dz: (u.transpose(0, 2, 1) @ dz, dz.sum(axis=0))
        out[f"backward.gsl{li}.g"] = \
            lambda dz=dz, w=w, b=b, c=c: (dz @ w.transpose(0, 2, 1)).reshape(-1, b * c)
        out[f"backward.gsl{li}.probs_grad"] = lambda hs=hs, g=g: soft.probs_grad(hs, g)
        if li > 0:
            out[f"backward.gsl{li}.dh"] = \
                lambda g=g: matmul_t(m, g)
    out["backward"] = lambda: nn._backward_batch(yb, soft, model, cache)
    dprobs = rng.standard_normal(soft.probs.shape)
    out["soften_backward"] = lambda: soften_backward(soft, dprobs)
    grads = nn._backward_batch(yb, soft, model, cache)[2]
    opt = nn.Adam(model.param_arrays(), 1e-3)
    opt_logits = nn.Adam([params.logits], 1e-3)

    def optimizer():
        opt.step(grads[:-1])
        opt_logits.step(grads[-1:])
    out["optimizer"] = optimizer
    return out


def measure(fn, reps: int) -> tuple[float, float]:
    """fn's milliseconds per call, the minimum over reps rounds of CALLS
    calls, and its minor page faults per call over all of those rounds."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    best = min(timeit.repeat(fn, number=CALLS, repeat=reps))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return round(best / CALLS * 1e3, 4), round(faults / (reps * CALLS), 2)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=100, help="rounds of ten calls")
    reps = parser.parse_args(argv).reps
    cli.keep_freed_pages()
    result = {"context": {"reps": reps, "calls_per_rep": CALLS, "batch": BATCH,
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "blas_threads": 1}, "faults": {}}
    for name in ("setup", *SHAPES):
        fns = setup_stages() if name == "setup" else stages(name)
        timed = {stage: measure(fn, reps) for stage, fn in fns.items()}
        result[name] = {stage: ms for stage, (ms, _) in timed.items()}
        result["faults"][name] = {stage: faults for stage, (_, faults) in timed.items()}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
