"""Run one gstrans CLI command in this process and time it from outside.

    python3 bench/probe.py RESULT_JSON TRACE -- gstrans-args...

Wrappers go on module attributes of the package; nothing under ``src/`` is
edited. With TRACE=0 only the boundaries the end-to-end metrics need are
wrapped (see UNTRACED_NAMES): the command, training, each training step's
``soften`` and optimizer steps, each evaluation pass and each forward pass.
With TRACE=1 every layer boundary is wrapped. Spans are kept in memory and
RESULT_JSON is written once, when the command returns.

Every span has wall-clock times. The spans of CPU_NAMES also have the
process CPU time at entry and exit; set-up time is computed from it, so it
leaves out the time the process waits for a core.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("data", "graph", "transforms", "nn", "evaluate", "cli")
# private or method boundaries traced besides each layer's public functions;
# a name missing at the commit under test is listed as absent
EXTRA_NAMES = {
    "graph": ("Graph.__init__",),
    "transforms": ("SoftTransforms.sparse",),
    "nn": ("_forward_batch", "_backward_batch", "_eval_split",
           "Adam.step", "SGD.step"),
}
UNTRACED_NAMES = {"cli": ("main",), "transforms": ("soften",),
                  "nn": ("train", "_eval_split", "_forward_batch", "Adam.step",
                         "SGD.step")}
CPU_NAMES = ("cli.main", "nn.train")


# what a span records about its call, read from the arguments before the clock
# starts: the schedule length, the graph's support entries, the samples scored
# and the rows of a forward batch
NOTES = {
    "nn.train": lambda a: {"steps": a[2].schedule.s_total,
                           "entries": a[1].num_entries()},
    "nn._eval_split": lambda a: {"samples": len(a[3])},
    "nn._forward_batch": lambda a: {"rows": len(a[0])},
}


class Tracer:
    """Spans as [name, parent_id, start_ns, end_ns, error, note, cpu_start_ns,
    cpu_end_ns], in call order; the CPU times are None outside CPU_NAMES."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = NOTES.get(name)
        cpu = time.process_time_ns if name in CPU_NAMES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                info = note(args) if note else None
            except (AttributeError, IndexError, KeyError, TypeError):
                info = None
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, None, info,
                    cpu() if cpu else None, None]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                if cpu:
                    span[7] = cpu()
                stack.pop()
        return wrapper


def _public_functions(module) -> list[str]:
    return sorted(n for n, v in vars(module).items()
                  if not n.startswith("_") and callable(v) and not isinstance(v, type)
                  and getattr(v, "__module__", None) == module.__name__)


def install(tracer: Tracer, traced: bool) -> list[str]:
    """Wrap the boundaries; returns the qualified names that were absent."""
    import gstrans.cli  # the package imports every layer module first
    package = [m for n, m in sys.modules.items()
               if n == "gstrans" or n.startswith("gstrans.")]
    absent = []
    for layer in LAYERS:
        module = sys.modules.get(f"gstrans.{layer}")
        if module is None:
            absent.append(layer)
            continue
        if traced:
            names = _public_functions(module) + list(EXTRA_NAMES.get(layer, ()))
        else:
            names = list(UNTRACED_NAMES.get(layer, ()))
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(f"{layer}.{name}")
                continue
            wrapped = tracer.wrap(f"{layer}.{name}", original)
            setattr(owner, attr, wrapped)
            if owner is module:
                # modules that imported the name hold their own reference
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    result_path, traced = Path(argv[0]), argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: probe.py RESULT_JSON TRACE -- gstrans-args...")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    absent = install(tracer, traced)
    import gstrans.cli
    out = io.StringIO()
    code = 1
    try:
        with contextlib.redirect_stdout(out):
            code = gstrans.cli.main(argv[3:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
    sys.stdout.write(out.getvalue())
    result = {
        "exit": code,
        "stdout": out.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "absent": absent,
        "spans": tracer.spans,
    }
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
