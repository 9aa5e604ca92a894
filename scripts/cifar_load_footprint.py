"""CPU time, page faults and peak memory of loading CIFAR-10 at paper scale.

    PYTHONPATH=src python3 scripts/cifar_load_footprint.py [RECORDS]

Writes RECORDS random records (default 60000, the size of CIFAR-10) in the
binary batch format, as five data_batch files and a test_batch, to a
temporary directory. Then it loads them with downscale=True twice and
prints, for each load, its process CPU seconds, the minor page faults the
process took during it (ru_minflt before and after) and the process's peak
resident set size (ru_maxrss), which includes the writing before the loads:

- first the records a `train --max-train 320` run converts, the first 320
  of the train split and the val split (every file is still read and
  checked);
- then every record, as a load of all three splits does.

The smaller load runs first, so that the peak read after it is its own.
"""
from __future__ import annotations

import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from gstrans.data import CIFAR_RECORD_BYTES, load_cifar10

FILES = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]


def write_records(out_dir: Path, total: int, seed: int = 0) -> None:
    """total records split as evenly as possible over FILES, one file in
    memory at a time."""
    rng = np.random.default_rng(seed)
    for i, name in enumerate(FILES):
        count = total * (i + 1) // len(FILES) - total * i // len(FILES)
        records = rng.integers(0, 256, (count, CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        (out_dir / name).write_bytes(records.tobytes())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str]) -> int:
    total = int(argv[0]) if argv else 60000
    with tempfile.TemporaryDirectory() as tmp:
        write_records(Path(tmp), total)
        print(f"{total} records written; peak RSS before the loads: "
              f"{peak_rss_mb():.0f} MB")
        for name, kwargs in (("train --max-train 320",
                              {"splits": ("train", "val"), "max_train": 320}),
                             ("all splits", {})):
            faults, cpu = minor_faults(), time.process_time()
            ds = load_cifar10(tmp, downscale=True, **kwargs)
            cpu = time.process_time() - cpu
            faults = minor_faults() - faults
            print(f"{name}: {len(ds.labels)} records converted, signals "
                  f"{ds.signals.shape} {ds.signals.dtype}")
            print(f"  load_cifar10(downscale=True) CPU: {cpu:.3f} s, "
                  f"minor faults: {faults}, peak RSS: {peak_rss_mb():.0f} MB")
            del ds
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
