#!/usr/bin/env python3
"""Trace smoke: record a faulted, durable workload and check what it exports.

    python3 check_trace_smoke.py <path to sp_trace>

Runs `sp_trace record --requests 12 --threads 2 --faults 0.25 --durable DIR`
in a fresh temporary directory. The Chrome export must be valid trace-event
JSON with a complete event for every span the run always emits, and at least
one retry attempt must carry a fault attr. The binary dump must then
round-trip through `report` and `folded`. Exits 1 on the first failed check.

The asserted spans exist whatever the fault schedule and the thread
interleaving do: the shares run unfaulted under their own root, every
run_all job is its own pool.task, and a durable session's group commits are
traced. c2.keygen is not asserted: at a 25% fault rate a run can end with no
C2 attempt reaching KeyGen.
"""
import json
import os
import subprocess
import sys
import tempfile

EXPECTED_SPANS = (
    "sp.request", "sp.attempt", "sp.access", "sp.verify", "pool.task",
    "c1.upload", "c1.sign", "c2.upload", "wal.group_commit", "wal.fsync",
)


def run(*cmd, stdout=None):
    done = subprocess.run(cmd, stdout=stdout)
    if done.returncode != 0:
        sys.exit(f"trace smoke: {' '.join(cmd)} exited {done.returncode}")


def check_chrome_export(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert events, "no trace events exported"
    for e in events:
        assert e["ph"] in ("X", "s", "f"), e
        if e["ph"] == "X":
            for key in ("name", "ts", "dur", "pid", "tid", "args"):
                assert key in e, f"missing {key}: {e}"
    names = {e["name"] for e in events if e["ph"] == "X"}
    for expected in EXPECTED_SPANS:
        assert expected in names, f"missing span: {expected}"
    attempts = [e for e in events if e["ph"] == "X" and e["name"] == "sp.attempt"]
    assert any("fault" in e["args"] for e in attempts), \
        "no attempt carries a fault attr at 25% fault rate"
    print(f"chrome export OK: {len(events)} events, {len(names)} span names")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sp_trace = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="sp-trace-smoke-") as tmp:
        dump = os.path.join(tmp, "trace_smoke.sptrace")
        chrome = os.path.join(tmp, "trace_smoke.json")
        run(sp_trace, "record", "--out", dump, "--chrome", chrome, "--requests", "12",
            "--threads", "2", "--faults", "0.25", "--durable", os.path.join(tmp, "state"))
        try:
            check_chrome_export(chrome)
        except AssertionError as e:
            sys.exit(f"trace smoke: {e}")
        run(sp_trace, "report", dump, "--top", "2")
        folded = os.path.join(tmp, "trace_smoke.folded")
        with open(folded, "w") as out:
            run(sp_trace, "folded", dump, stdout=out)
        if os.path.getsize(folded) == 0:
            sys.exit("trace smoke: folded output is empty")
    return 0


if __name__ == "__main__":
    sys.exit(main())
