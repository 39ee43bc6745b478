"""Cross-process record spill: how pool workers report into one trace.

``perf_counter`` clocks are per-process and worker recorders die with
their process, so the pool path works by *spilling*: each worker
appends its records as JSON lines to a private
``<spill_dir>/obs-<pid>.jsonl`` file after every task
(:func:`flush_current`), and the parent folds every spill file into
its own recorder once the sweep returns (:func:`merge_spills`).
Records keep their origin pid and per-process-relative timestamps, so
merged traces show each worker on its own timeline.

The spill directory travels to workers through the pool initializer
(:mod:`repro.perf.backends` keys its persistent pool on it, so toggling
tracing rebuilds the pool); a worker with no spill directory keeps
tracing disabled and pays nothing.  A sweep that fails before its merge
deletes the spill files unread (:func:`discard_spills`), so they never
leak into a later sweep's trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs

_spill_dir: str | None = None


def set_spill_dir(directory: str | None) -> None:
    """Worker-side: start (or stop) spilling under *directory*.

    Installs a recorder when spilling begins so the worker's hooks
    record; uninstalls when spilling is turned off.
    """
    global _spill_dir
    _spill_dir = directory
    if directory is not None:
        obs.install()
    else:
        obs.uninstall()


def spill_dir() -> str | None:
    return _spill_dir


def flush_current() -> None:
    """Append the current recorder's records to this pid's spill file.

    Called by the pool task wrapper after each work item; the recorder
    is cleared so every flush ships only new records.  Best-effort by
    design: a worker that cannot write its spill file must not fail
    the sweep, so errors drop the records, never the results.
    """
    recorder = obs.current()
    if recorder is None or _spill_dir is None:
        return
    if recorder.record_count == 0:
        return
    from repro.obs.export import jsonl_records
    records = jsonl_records(recorder)[1:]       # spills carry no header
    try:
        path = Path(_spill_dir) / f"obs-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for record in records:
                if record["type"] in ("counter", "gauge"):
                    record = dict(record, pid=recorder.pid)
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        pass
    recorder.clear()


def merge_spills(recorder: obs.Recorder, directory: str | Path) -> int:
    """Parent-side: fold every spill file under *directory* into
    *recorder* and delete it.  Returns the number of records merged.

    Worker counters arrive pid-tagged; they are merged as
    ``name[pid=N]`` would be noise, so instead counters sum into the
    parent's (the total is what ``repro stats`` reports) while spans
    and events keep their origin pid.
    """
    directory = Path(directory)
    merged = 0
    for path in sorted(directory.glob("obs-*.jsonl")):
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        recorder.merge(records)
        merged += len(records)
        path.unlink(missing_ok=True)
    return merged


def discard_spills(directory: str | Path) -> None:
    """Parent-side: delete every spill file under *directory* unread."""
    for path in Path(directory).glob("obs-*.jsonl"):
        path.unlink(missing_ok=True)
