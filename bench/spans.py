"""Per-layer metrics from the spans of traced runs.

A span is [name, parent_id, start_ns, end_ns, error, note, cpu_start_ns,
cpu_end_ns]; names are ``<layer>.<attribute>`` as wrapped by probe.py, and
the process CPU times are there only for the spans that set-up time is
taken from. A span's self time is its wall-clock duration minus the time
its child spans cover.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

LOADERS = ("data.load_cifar10", "data.load_webkb", "data.make_ring_task")
GRAPH_BUILDERS = ("graph.build_ring_graph", "graph.build_grid_graph",
                  "graph.build_knn_covariance_graph", "graph.read_edge_list",
                  "graph.Graph.__init__")
OPTIMIZER_STEPS = ("nn.Adam.step", "nn.SGD.step")
DIVERGED = ("TrainingDivergedError", "FloatingPointError")


class Trace:
    """Index over the spans of one traced command."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span[1] >= 0:
                self.children[span[1]].append(i)

    def dur(self, i: int) -> float:
        return (self.spans[i][3] - self.spans[i][2]) / 1e9

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def ancestors(self, i: int):
        p = self.spans[i][1]
        while p >= 0:
            yield p
            p = self.spans[p][1]

    def under(self, i: int, *names: str) -> bool:
        return any(self.spans[a][0] in names for a in self.ancestors(i))

    def outermost(self, *names: str) -> list[int]:
        return [i for i in self.named(*names) if not self.under(i, *names)]

    def total(self, *names: str) -> float | None:
        """Time inside the named calls, nested ones counted once; None if
        there were no such calls."""
        found = self.outermost(*names)
        return sum(self.dur(i) for i in found) if found else None

    def note(self, key: str):
        for span in self.spans:
            if span[5] and key in span[5]:
                return span[5][key]
        return None

    def steps(self) -> list[float]:
        """Training step times: a soften under nn.train (not under the
        evaluation) opens a step; the last optimizer step before the next
        opening, evaluation or the end of training closes it."""
        out = []
        for train in self.named("nn.train"):
            start = end = None
            for i in self._descendants(train):
                name = self.spans[i][0]
                if name == "nn._eval_split" or (
                        name == "transforms.soften" and not self.under(i, "nn._eval_split")):
                    if start is not None and end is not None:
                        out.append((end - start) / 1e6)
                    start = self.spans[i][2] if name == "transforms.soften" else None
                    end = None
                elif name in OPTIMIZER_STEPS and start is not None:
                    end = self.spans[i][3]
            if start is not None and end is not None:
                out.append((end - start) / 1e6)
        return out

    def _descendants(self, i: int) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(self.children[j])
        return sorted(out)


def _pct(values: list[float], p: int) -> float | None:
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def per_op(trace: Trace) -> dict[str, float | None]:
    """Metrics that are summed within one command; None where not reached."""
    out: dict[str, float | None] = {
        "data.ingest_s": trace.total(*LOADERS),
        "data.downscale_s": trace.total("data.downscale_cifar"),
        "graph.build_s": trace.total(*GRAPH_BUILDERS),
        "nn.checkpoint_save_s": trace.total("nn.save_checkpoint"),
        "evaluate.accuracy_s": trace.total("evaluate.evaluate_accuracy"),
        "evaluate.transform_report_s": trace.total("evaluate.transform_report"),
    }
    out["graph.entries"] = trace.note("entries")
    out["transforms.soften.calls"] = len(trace.named("transforms.soften")) or None
    trains = trace.named("nn.train")
    steps = sum((trace.spans[i][5] or {}).get("steps", 0) for i in trains)
    sparse = [i for i in trace.named("transforms.SoftTransforms.sparse")
              if trace.under(i, "nn.train")]
    out["transforms.csr_builds_per_step"] = len(sparse) / steps if steps else None
    harden = trace.total("transforms.harden")
    out["transforms.harden_ms"] = 1e3 * harden if harden is not None else None
    if trains:
        wall = sum(trace.dur(i) for i in trains)
        record = sum(trace.dur(c) for i in trains for c in trace.children[i]
                     if trace.spans[c][0] == "nn._eval_split")
        out["nn.record.share"] = record / wall
        out["nn.train.self_share"] = sum(trace.self_time(i) for i in trains) / wall
    cli = [i for i, s in enumerate(trace.spans) if s[0].startswith("cli.")]
    out["cli.self_s"] = sum(trace.self_time(i) for i in cli) if cli else None
    return out


def per_layer(traces: list[Trace], extra: dict[str, float | None]
              ) -> dict[str, float | None]:
    """Per-layer metrics over the traced commands of one run; None where a
    workload does not reach the layer.

    Durations of repeated calls are pooled over the commands before taking
    percentiles; per-command sums are reduced by their median.
    """
    pooled: dict[str, list[float]] = defaultdict(list)
    sums: dict[str, list] = defaultdict(list)
    diverged = 0
    for t in traces:
        for key, value in per_op(t).items():
            sums[key].append(value)
        for i, span in enumerate(t.spans):
            name = span[0]
            ms = 1e3 * t.dur(i)
            if name == "transforms.soften":
                pooled["soften"].append(ms)
            elif name == "transforms.soften_backward":
                pooled["soften_backward"].append(ms)
            elif name == "nn._forward_batch":
                key = "eval_forward" if t.under(i, "nn._eval_split") else "forward"
                pooled[key].append(ms)
            elif name == "nn._backward_batch":
                pooled["backward"].append(ms)
                pooled["backward_self"].append(1e3 * t.self_time(i))
            elif name in OPTIMIZER_STEPS:
                pooled["optimizer"].append(ms)
            elif name == "nn.train" and span[4] in DIVERGED:
                diverged += 1
        pooled["step"].extend(t.steps())

    values: dict[str, float | None] = {k: _median(v) for k, v in sums.items()}
    values.update({
        "transforms.soften.ms_p50": _pct(pooled["soften"], 50),
        "transforms.soften.ms_p90": _pct(pooled["soften"], 90),
        "transforms.soften_backward.ms_p50": _pct(pooled["soften_backward"], 50),
        "transforms.soften_backward.ms_p90": _pct(pooled["soften_backward"], 90),
        "nn.step_ms.p50": _pct(pooled["step"], 50),
        "nn.step_ms.p99": _pct(pooled["step"], 99),
        "nn.forward.ms_p50": _pct(pooled["forward"], 50),
        "nn.forward.ms_p90": _pct(pooled["forward"], 90),
        "nn.eval_forward.ms_p50": _pct(pooled["eval_forward"], 50),
        "nn.eval_forward.ms_p90": _pct(pooled["eval_forward"], 90),
        "nn.backward.ms_p50": _pct(pooled["backward"], 50),
        "nn.backward.ms_p90": _pct(pooled["backward"], 90),
        "nn.backward.self_ms_p50": _pct(pooled["backward_self"], 50),
        "nn.optimizer.ms_p50": _pct(pooled["optimizer"], 50),
        "nn.diverged": diverged,
    })
    values.update(extra)
    return values
