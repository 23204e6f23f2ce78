#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark itself.

Run from the repository root (about a minute; builds first if needed):

    python3 perfbench/selftest.py

It checks that
  1. every workload, untraced and traced, emits exactly the metrics
     BENCHMARK.json declares, each with its declared unit, and passes
     its own correctness gate at the default seed;
  2. the traced runs replay the `prune2` / `prune` cells through the
     probe and match the journal (`trace.replay_verified` > 0 and no
     mismatch);
  3. a deliberately wrong reference digest makes the correctness gate
     fail;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]
WORK = Path(".perfbench-out/selftest")


def run(args, cwd=None):
    r = subprocess.run(RUN + args, capture_output=True, text=True, cwd=cwd, timeout=900)
    return r.returncode, r.stdout, r.stderr


def result(args):
    code, out, err = run(args)
    if code != 0:
        raise AssertionError(f"{' '.join(args)} exited {code}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), out


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            res, out = result(args)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(units == declared[trace], f"{w['name']} trace={trace}: every declared metric with its unit")
            expect(res["correct"] and res["failed"] == 0, f"{w['name']} trace={trace}: correctness gate passes")
            if trace and w["name"] in ("paper-random", "paper-adversarial"):
                m = re.search(r"replay verified: (\d+) prune/prune2 cells bit for bit", out)
                full = int(m.group(1)) if m else 0
                expect(full > 0, f"{w['name']}: prune2/prune replay matches the journal ({full} cells)")

    WORK.mkdir(parents=True, exist_ok=True)
    ref = json.loads(Path("perfbench/reference.json").read_text())
    entry = ref["specs/churn_curves.toml#smoke"]["groups"]
    group = sorted(g for g in entry if g != "*")[0]
    entry[group] = "0" * 16
    bad = WORK / "bad-reference.json"
    bad.write_text(json.dumps(ref))
    res, _ = result(["--workload", "overlay-churn", "--seed", "0", "--seconds", "1", "--smoke", "--reference", str(bad)])
    expect(not res["correct"] and res["failed"] > 0, f"a wrong reference digest fails the gate ({res['failed']} failed)")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("target", "Cargo.lock"))
    code, out, _ = run(["--workload", "overlay-churn", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(code != 0 and '"correct"' not in out, f"a bare checkout exits non-zero without a result (exit {code})")
    shutil.rmtree(WORK, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
