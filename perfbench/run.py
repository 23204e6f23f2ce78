#!/usr/bin/env python3
"""The repository benchmark: four workloads against the release `fxnet`.

Run from the repository root:

    python3 perfbench/run.py --workload paper-random --seed 0 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
is the separate traced run that yields the per-layer metrics (spans
recorded by `fxprobe` around the calls into each layer, plus the
counters `fxnet` exports). Both check that every output is correct.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
are the human-readable tables and the machine fingerprint. See
perfbench/README.md for what every metric means.
"""

import argparse
import bisect
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

BENCH_DIR = Path("perfbench")
WORK_ROOT = Path(".perfbench-out")

# Workload → the spec files it runs (paths from the repository root).
WORKLOADS = {
    "paper-random": ["specs/random_faults.toml"],
    "paper-adversarial": ["specs/adversarial.toml", "specs/structure.toml"],
    "overlay-churn": ["specs/churn_curves.toml", "specs/overlay_scale.toml"],
    "serve-zipf": ["perfbench/serve_catalog.toml"],
}

SETUP_ROUNDS = 61  # `campaign check` repetitions behind setup_s
SERVE_SETUP_ROUNDS = 31  # serve spawns behind setup_s
SERVE_REF_ROUNDS = 40  # catalog campaign repetitions behind wall_s
SERVE_RATE = 15.0  # requests per second, open loop (Poisson)
ZIPF_S = 1.0  # Zipf exponent of the key draws


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found wrong output)."""


# ---------------------------------------------------------------------------
# Build, fingerprint, inputs
# ---------------------------------------------------------------------------


def build():
    """Builds `fxnet` and `fxprobe` (release) and returns their paths."""
    if not Path("Cargo.toml").is_file() or not Path("crates").is_dir():
        raise BenchError("run from the repository root: Cargo.toml and crates/ are missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "fx-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    target = Path(env["CARGO_TARGET_DIR"]) / "release"
    return str(target / "fxnet"), str(target / "fxprobe")


def nproc():
    return len(os.sched_getaffinity(0))


def fingerprint(seed, threads):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    # The source digest identifies the code when the checkout is not a
    # git repository.
    digest = hashlib.sha256()
    files = [Path("Cargo.toml")] + sorted(
        p for d in ("crates", "src", "vendor") for p in Path(d).rglob("*") if p.is_file()
    )
    for p in files:
        digest.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    return {
        "hostname": socket.gethostname(),
        "cpu": cpu,
        "nproc": nproc(),
        "rustc": out(["rustc", "-V"]),
        "git_commit": out(["git", "rev-parse", "HEAD"]) if Path(".git").exists() else None,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "threads": threads,
    }


def derive_seed(committed, seed, variant):
    """The campaign master seed of pass pair `variant` under benchmark
    seed `seed`. Seed 0, variant 0 keeps the committed value, so the
    default run starts with the committed spec itself."""
    if seed == 0 and variant == 0:
        return committed
    h = hashlib.sha256(f"{committed}/{seed}/{variant}".encode()).digest()
    return int.from_bytes(h[:4], "big") & 0x7FFFFFFF


def prepare_spec(src, seed, work, smoke, variant=0, store=None):
    """Writes the workload's copy of spec `src`: only `seed` changes
    (plus `replicates = 1` at smoke size, and the store directory)."""
    text = Path(src).read_text()
    m = re.search(r"(?m)^seed\s*=\s*(\d+)", text)
    if not m:
        raise BenchError(f"{src}: no top-level seed")
    text = text[: m.start(1)] + str(derive_seed(int(m.group(1)), seed, variant)) + text[m.end(1) :]
    if smoke:
        text = re.sub(r"(?m)^replicates\s*=\s*\d+", "replicates = 1", text)
    name = f"{Path(src).stem}-v{variant}"
    if store is not None:
        text = re.sub(r"(?m)^\[params\]\s*$", f'[params]\nstore = "{store}"', text, count=1)
        name += "-store"
    out = work / f"{name}.toml"
    out.write_text(text)
    return str(out)


def reference_key(src, smoke):
    return f"{src}{'#smoke' if smoke else ''}"


# ---------------------------------------------------------------------------
# Running fxnet and checking its output
# ---------------------------------------------------------------------------


def fxnet_env():
    """The environment `fxnet` runs in: the caller's, minus every
    FXNET_* knob (tracing, chaos, thread and lane overrides)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FXNET_")}


def run_campaign(fxnet, spec, threads, out, env_extra=None):
    """One `fxnet campaign run` from a cold output directory, store off.
    Returns (wall seconds, peak RSS MiB, exit code)."""
    shutil.rmtree(out, ignore_errors=True)
    env = fxnet_env()
    env.update(env_extra or {})
    with open(f"{out}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [fxnet, "campaign", "run", "--spec", spec, "--threads", str(threads), "--out", out, "--quiet"],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def load_journal(out):
    records = {}
    path = Path(out) / "journal.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                cell = json.loads(line)["cell"]
            except (ValueError, KeyError):
                continue
            records[cell["key"]] = cell
    return records


FILE_DIGEST = "*"  # group_digests key of the whole aggregates.json


def group_digests(out):
    """Aggregation group → digest of its rows in aggregates.json, plus
    the digest of the file's bytes under FILE_DIGEST."""
    path = Path(out) / "aggregates.json"
    if not path.exists():
        return None
    raw = path.read_bytes()
    rows = {}
    for row in json.loads(raw):
        rows.setdefault(row["cell"], []).append(row)
    digests = {g: hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()[:16] for g, r in rows.items()}
    digests[FILE_DIGEST] = hashlib.sha256(raw).hexdigest()[:16]
    return digests


class Checker:
    """Counts attempted and failed operations for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, count, note):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def campaign_pass(self, out, exit_code, expected, want_groups):
        """Checks one campaign pass: every expected cell journaled, none
        failed or timed out, and every aggregate group equal to
        `want_groups` (reference digests or an earlier pass).
        Returns (journal records, group digests)."""
        records = load_journal(out)
        groups = group_digests(out) or {}
        self.attempted += expected
        bad = set()
        for key, rec in records.items():
            if rec.get("failed", 0) or any(name == "timed_out" for name, _ in rec["metrics"]):
                bad.add(key)
        for group, digest in (want_groups or {}).items():
            if groups.get(group) != digest:
                bad |= {
                    k
                    for k, r in records.items()
                    if group in (FILE_DIGEST, f"{r['graph']}|{r['fault']}|{r['algo']}")
                }
                self.notes.append(f"{out}: aggregates of {'the file' if group == FILE_DIGEST else group} differ")
        missing = max(0, expected - len(records))
        if exit_code != 0:
            self.notes.append(f"{out}: fxnet exited {exit_code}")
        if bad or missing:
            self.fail(len(bad) + missing, f"{out}: {len(bad)} bad and {missing} missing cells")
        return records, groups


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


class CampaignRun:
    """Runs the specs of one workload and checks every pass.

    Pass pairs are numbered by `variant`: every pass of a variant runs
    the same spec copies (one master seed per variant, derived from the
    benchmark seed), so its 1-thread and N-thread aggregates must be
    byte-identical, and variant 0 of the default seed must match the
    reference digests."""

    def __init__(self, fxnet, sources, seed, work, reference, smoke, check):
        self.fxnet = fxnet
        self.sources = sources
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.check = check
        self.ref = {}
        for s in sources:
            self.ref[s] = reference.get(reference_key(s, smoke))
            if self.ref[s] is None:
                raise BenchError(f"no reference entry for {reference_key(s, smoke)}")
        self.specs = {}
        self.first_groups = {}
        self.passes = 0

    def specs_for(self, variant):
        if variant not in self.specs:
            self.specs[variant] = [
                prepare_spec(s, self.seed, self.work, self.smoke, variant) for s in self.sources
            ]
        return self.specs[variant]

    def run_pass(self, threads, variant=0, env_extra=None):
        """Runs every spec of the workload once at `threads`. Returns
        (wall seconds, peak RSS MiB, per-spec (out dir, records))."""
        self.passes += 1
        wall, rss, outs = 0.0, 0.0, []
        for spec, src in zip(self.specs_for(variant), self.sources):
            out = str(self.work / f"{Path(spec).stem}-t{threads}-p{self.passes}")
            w, r, code = run_campaign(self.fxnet, spec, threads, out, env_extra)
            wall += w
            rss = max(rss, r)
            if variant == 0 and self.seed == self.ref[src]["seed"]:
                want = self.ref[src]["groups"]
            else:
                want = self.first_groups.get((src, variant))
            records, groups = self.check.campaign_pass(out, code, self.ref[src]["cells"], want)
            self.first_groups.setdefault((src, variant), groups)
            outs.append((out, records))
        return wall, rss, outs


def setup_time(fxnet, specs, rounds):
    """Median over `rounds` of the summed `fxnet campaign check` time."""
    times = []
    for _ in range(rounds):
        t = 0.0
        for spec in specs:
            t0 = time.perf_counter()
            r = subprocess.run([fxnet, "campaign", "check", "--spec", spec], capture_output=True, env=fxnet_env())
            t += time.perf_counter() - t0
            if r.returncode != 0:
                raise BenchError(f"campaign check {spec}: {r.stderr.decode(errors='replace')}")
        times.append(t)
    return statistics.median(times)


def per_cell_medians(passes):
    """Median journaled wall_ms of each cell key over several passes."""
    by_key = {}
    for outs in passes:
        for _, records in outs:
            for key, rec in records.items():
                by_key.setdefault(key, []).append(rec["wall_ms"])
    return [statistics.median(v) for v in by_key.values()]


def campaign_e2e(cr, seconds, threads):
    """Alternates N-thread and 1-thread passes, one seed variant per
    pair, until `seconds` have been measured (at least one pair). When
    only one pair fits, one more N-thread pass of the same input
    follows: the N-thread pass is the shorter and the noisier one."""
    setup_s = setup_time(cr.fxnet, cr.specs_for(0), SETUP_ROUNDS)
    walls = {threads: [], 1: []}
    rss, passes_1t = 0.0, []
    start = time.perf_counter()
    i = 0
    while True:
        t_iter = time.perf_counter()
        order = (threads, 1) if i % 2 == 0 else (1, threads)
        for t in order:
            wall, r, outs = cr.run_pass(t, variant=i)
            walls[t].append(wall)
            rss = max(rss, r)
            if t == 1:
                passes_1t.append(outs)
        i += 1
        now = time.perf_counter()
        if now - start + (now - t_iter) > seconds:
            break
    if i == 1:
        wall, r, _ = cr.run_pass(threads, variant=0)
        walls[threads].append(wall)
        rss = max(rss, r)
    lat = per_cell_medians(passes_1t)
    log(f"passes: {i} at {threads} and 1 thread(s); walls {walls}")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls[threads]),
        "wall_s_1t": statistics.median(walls[1]),
        "peak_rss_mb": rss,
        "lat_p50_ms": statistics.median(lat),
        "lat_p90_ms": percentile(lat, 90),
    }, len(lat)


def trace_counters(outs):
    """Sums the `fxnet` trace counters and histogram sums of a traced pass."""
    counters = {}
    for out, _ in outs:
        path = Path(out) / "trace.jsonl"
        if not path.exists():
            continue
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("type") == "counter":
                key = f"{rec['target']}.{rec['name']}"
                counters[key] = counters.get(key, 0) + rec["value"]
            elif rec.get("type") == "hist":
                key = f"{rec['target']}.{rec['name']}.sum"
                counters[key] = counters.get(key, 0) + rec["sum"]
    return counters


def replay(probe, cr, outs_1t, work, check):
    """Runs `fxprobe replay` over the 1-thread journals; returns its summary."""
    args = [probe, "replay"]
    for spec, (out, _) in zip(cr.specs_for(0), outs_1t):
        args += ["--spec", spec, "--journal", str(Path(out) / "journal.jsonl")]
    # the spans outlive the work directory: one file per workload, seed
    # and trace flag (the work directory's name without its pid)
    spans, summary = WORK_ROOT / f"spans-{work.name.rsplit('-', 1)[0]}.jsonl", work / "replay.json"
    args += ["--spans", str(spans), "--summary", str(summary)]
    r = subprocess.run(args, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"fxprobe replay failed: {r.stderr.strip()}")
    s = json.loads(summary.read_text())
    for m in s["mismatches"]:
        check.fail(1, f"replay mismatch: {m}")
    return s


def layer_table(s):
    """Prints the self-time table of a replay summary."""
    cell_ms = s["spans"]["cell"]["total_ms"] - s["probe_side_ms"]
    layers = {}
    for name, t in s["spans"].items():
        layer = name.split(".")[0]
        agg = layers.setdefault(layer, [0, 0.0])
        agg[0] += t["calls"]
        agg[1] += t["self_ms"]
    print(f"self time by layer (replay of {s['cells']} cells, {cell_ms:.1f} ms of cell time):")
    print(f"  {'layer':<14}{'calls':>9}{'self ms':>12}{'share':>8}")
    for layer, (calls, self_ms) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        if layer == "probe":
            continue
        print(f"  {layer:<14}{calls:>9}{self_ms:>12.2f}{self_ms / max(cell_ms, 1e-9):>8.1%}")
    print(f"  {'span':<22}{'calls':>9}{'total ms':>12}{'self ms':>12}")
    for name, t in sorted(s["spans"].items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:<22}{t['calls']:>9}{t['total_ms']:>12.2f}{t['self_ms']:>12.2f}")
    print(
        f"replay verified: {s['verified_full']} prune/prune2 cells bit for bit, "
        f"{s['verified_partial']} other cells on their replayed metrics, {len(s['mismatches'])} mismatches"
    )
    print("  probe time vs journaled wall time, per algorithm:")
    for algo, a in s["algos"].items():
        print(f"    {algo:<16} probe {a['probe_ms']:>10.1f} ms   journal {a['journal_ms']:>10.1f} ms")


def layer_metrics(s, journal_records):
    """Per-layer metrics from a replay summary and the 1-thread journal."""
    sp, c = s["spans"], s["counts"]

    def self_ms(*names):
        return sum(sp.get(n, {}).get("self_ms", 0.0) for n in names)

    cell_ms = sp["cell"]["total_ms"] - s["probe_side_ms"]
    named = sum(t["self_ms"] for n, t in sp.items() if n.split(".")[0] not in ("cell", "probe"))
    adj = sum(v for r in journal_records for name, v in r["metrics"] if name == "adj_updates")
    return {
        "scenario.build_ms": self_ms("scenario.build"),
        "scenario.builds": c["builds"],
        "overlay.build_ms": self_ms("overlay.build"),
        "overlay.adj_updates": adj,
        "faults.sample_ms": self_ms("faults.build", "faults.sample", "faults.order"),
        "faults.samples": c["fault_samples"],
        "expansion.cert_ms": self_ms("expansion.cert"),
        "expansion.cert_calls": c["cert_calls"],
        "expansion.cert_repeat_frac": c["cert_repeats"] / c["cert_calls"] if c["cert_calls"] else 0.0,
        "expansion.lanczos_iters": c["lanczos_iters"] / c["lanczos_solves"] if c["lanczos_solves"] else 0.0,
        "prune.prune2_ms": self_ms("prune.prune2"),
        "prune.prune_ms": self_ms("prune.prune"),
        "prune.dissect_ms": self_ms("prune.dissect"),
        "prune.compact_ms": self_ms("prune.compact"),
        "prune.iterations": c["prune_iterations"],
        "percolation.ms": self_ms("percolation.site", "percolation.sweep"),
        "percolation.trials": c["percolation_trials"],
        "dyncon.solve_ms": self_ms("dyncon.solve"),
        "graph.traverse_ms": self_ms("graph.traverse"),
        "campaign.aggregate_ms": s["aggregate_ms"],
        "campaign.journal_load_ms": s["journal_load_ms"],
        "trace.overhead_frac": cell_ms / s["journal_wall_ms"] - 1.0,
        "trace.coverage": named / cell_ms,
        "trace.replay_verified": s["verified_full"] + s["verified_partial"],
    }


def traced_campaign_layers(cr, probe, work, threads, check):
    """The traced run of a campaign workload: a 1-thread pass (the
    journal the probe replays), an N-thread pass with `fxnet`'s own
    `par` and `dyncon` counters on, and the probe replay."""
    wall_1t, _, outs_1t = cr.run_pass(1)
    wall_n, _, outs_n = cr.run_pass(threads, env_extra={"FXNET_TRACE": "par,dyncon"})
    s = replay(probe, cr, outs_1t, work, check)
    layer_table(s)
    records_1t = [r for _, recs in outs_1t for r in recs.values()]
    counters = trace_counters(outs_n)
    busy_ms = sum(rec["wall_ms"] for _, records in outs_n for rec in records.values())
    m = layer_metrics(s, records_1t)
    m.update(
        {
            "dyncon.unions": counters.get("dyncon.unions", 0),
            "dyncon.rollbacks": counters.get("dyncon.rollbacks", 0),
            "par.busy_frac": busy_ms / (threads * wall_n * 1e3),
            "par.speedup": wall_1t / wall_n,
            "par.park_ms": counters.get("par.park_ns.sum", 0) / 1e6,
        }
    )
    return m, outs_1t


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------


def http_get(addr, path, timeout=10):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def spawn_serve(fxnet, spec, errlog):
    """Starts `fxnet serve`; returns (process, address, seconds from
    spawn to the first 200 on /v1/health)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [fxnet, "serve", "--spec", spec, "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=errlog,
        text=True,
        env=fxnet_env(),
    )
    try:
        m = re.search(r"http://([0-9.]+):(\d+)", proc.stdout.readline())
        if not m:
            raise BenchError("fxnet serve did not report its address")
        addr = (m.group(1), int(m.group(2)))
        while True:
            try:
                if http_get(addr, "/v1/health")[0] == 200:
                    return proc, addr, time.perf_counter() - t0
            except OSError:
                pass
            if proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise BenchError("fxnet serve did not become healthy")
            time.sleep(0.0005)
    except BaseException:
        stop_serve(proc)
        raise


def stop_serve(proc):
    """Stops a serve process and waits for it; returns its peak RSS (MiB)."""
    hwm = 0.0
    try:
        for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()
    return hwm


def cell_path(rec):
    q = urllib.parse.urlencode(
        {"scenario": rec["graph"], "fault": rec["fault"], "algo": rec["algo"], "replicate": rec["replicate"]},
        safe=":,",
    )
    return f"/v1/cell?{q}"


def schedule(paths, seed, seconds, rate):
    """Seeded open-loop schedule: Poisson arrivals at `rate`, keys drawn
    Zipf(ZIPF_S) over a seeded ranking of the catalog."""
    rng = random.Random(f"serve-zipf/{seed}")
    ranked = sorted(paths)
    rng.shuffle(ranked)
    cum, total = [], 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    plan, t = [], rng.expovariate(rate)
    while t < seconds:
        plan.append((int(t * 1e6), ranked[min(bisect.bisect_left(cum, rng.random() * total), len(ranked) - 1)]))
        t += rng.expovariate(rate)
    return plan


def serve_run(fxnet, probe, spec, work, seed, seconds, threads, reference, check, poll_stats):
    """One open-loop run against a fresh store. Returns the loadgen rows,
    the final /v1/stats, the serve peak RSS and the sampled queue-depth
    maximum (when `poll_stats`)."""
    plan = schedule(reference, seed, seconds, SERVE_RATE)
    sched = work / "schedule.txt"
    sched.write_text("".join(f"{due} {path}\n" for due, path in plan))
    with open(work / "serve.stderr", "w") as err:
        proc, addr, _ = spawn_serve(fxnet, spec, err)
        depth = [0]
        stop = threading.Event()

        def poll():
            while not stop.wait(0.01):
                try:
                    depth[0] = max(depth[0], json.loads(http_get(addr, "/v1/stats")[1])["queue_depth"])
                except (OSError, ValueError, KeyError):
                    pass

        poller = threading.Thread(target=poll) if poll_stats else None
        try:
            if poller:
                poller.start()
            out = work / "loadgen.json"
            r = subprocess.run(
                [probe, "loadgen", "--addr", f"{addr[0]}:{addr[1]}", "--schedule", str(sched),
                 "--conns", str(threads), "--out", str(out)],
                capture_output=True, text=True, timeout=seconds + 120,
            )
            if r.returncode != 0:
                raise BenchError(f"fxprobe loadgen failed: {r.stderr.strip()}")
            stats = json.loads(http_get(addr, "/v1/stats")[1])
        finally:
            stop.set()
            if poller:
                poller.join()
            rss = stop_serve(proc)
    doc = json.loads(out.read_text())
    # Correctness: every answer is a 200 whose metrics equal the cell's
    # journaled metrics, and every answer for a key (hit or miss) is
    # byte-identical to the first (the loadgen compares the bytes).
    good = set()
    for path, body in doc["bodies"].items():
        rec = reference.get(path)
        try:
            got = json.loads(body)
            if rec is not None and got["metrics"] == rec["metrics"] and got["seed"] == rec["seed"]:
                good.add(path)
        except (ValueError, KeyError):
            pass
        if path not in good:
            check.notes.append(f"serve body for {path} differs from the journal")
    rows = doc["requests"]
    check.attempted += len(rows)
    bad = sum(1 for path, status, _, _, _, _, same in rows if status != 200 or not same or path not in good)
    if bad:
        check.fail(bad, f"serve: {bad} of {len(rows)} requests failed or answered wrongly")
    return rows, stats, rss, depth[0]


def serve_workload(fxnet, probe, work, seed, seconds, threads, trace, reference_file, smoke, check):
    src = WORKLOADS["serve-zipf"][0]
    cr = CampaignRun(fxnet, [src], seed, work, reference_file, smoke, check)
    # The catalog's campaign, outside the timed window: the reference
    # every served body is checked against, and wall_s / wall_s_1t.
    walls = {threads: [], 1: []}
    layers, outs_1t = {}, None
    if trace:
        layers, outs_1t = traced_campaign_layers(cr, probe, work, threads, check)
    else:
        for i in range(SERVE_REF_ROUNDS):
            for t in (threads, 1) if i % 2 == 0 else (1, threads):
                wall, _, outs = cr.run_pass(t)
                walls[t].append(wall)
                if t == 1 and outs_1t is None:
                    outs_1t = outs
    journal_1t, records_1t = outs_1t[0][0], list(outs_1t[0][1].values())
    reference = {cell_path(r): r for r in records_1t}

    setups = []
    if not trace:
        with open(work / "setup.stderr", "w") as err:
            for i in range(SERVE_SETUP_ROUNDS):
                store = work / f"store-setup-{i}"
                proc, _, t = spawn_serve(fxnet, prepare_spec(src, seed, work, smoke, store=store), err)
                stop_serve(proc)
                setups.append(t)
    store_spec = prepare_spec(src, seed, work, smoke, store=work / "store")
    rows, stats, rss, depth_max = serve_run(
        fxnet, probe, store_spec, work, seed, seconds, threads, reference, check, poll_stats=trace
    )
    lat = [(done - due) / 1e3 for _, _, _, due, _, done, _ in rows]
    late = [(sent - due) / 1e3 for _, _, _, due, sent, _, _ in rows]
    print(f"serve-zipf: {len(rows)} requests at {SERVE_RATE:g}/s over {seconds} s, "
          f"{len(lat) - int(len(lat) * 0.9)} samples beyond p90; stats {json.dumps(stats, sort_keys=True)}")
    if not trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls[threads]),
            "wall_s_1t": statistics.median(walls[1]),
            "peak_rss_mb": rss,
            "lat_p50_ms": statistics.median(lat),
            "lat_p90_ms": percentile(lat, 90),
        }
    compute_ms = {cell_path(r): r["wall_ms"] for r in records_1t}
    hits = [(done - sent) / 1e3 for _, _, c, _, sent, done, _ in rows if c == "hit"]
    misses = [(p, (done - sent) / 1e3) for p, _, c, _, sent, done, _ in rows if c == "miss"]
    store_out = work / "store-bench.json"
    r = subprocess.run(
        [probe, "store", "--dir", str(work / "store-bench"), "--journal",
         str(Path(journal_1t) / "journal.jsonl"), "--out", str(store_out)],
        capture_output=True, text=True, timeout=120,
    )
    if r.returncode != 0:
        raise BenchError(f"fxprobe store failed: {r.stderr.strip()}")
    sb = json.loads(store_out.read_text())
    lookups = stats["hits"] + stats["misses"]
    layers.update(
        {
            "store.get_us": statistics.median(sb["get_us"]),
            "store.put_us": statistics.median(sb["put_us"]),
            "store.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "serve.hit_ms_p50": statistics.median(hits) if hits else 0.0,
            "serve.miss_ms_p50": statistics.median([m for _, m in misses]) if misses else 0.0,
            "serve.queue_wait_ms_p50": statistics.median([m - compute_ms[p] for p, m in misses]) if misses else 0.0,
            "serve.coalesced": stats["coalesced"],
            "serve.rejected": stats["rejected"],
            "serve.queue_depth_max": depth_max,
            "loadgen.late_p99_ms": percentile(late, 99),
        }
    )
    return layers


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def declared_metrics():
    doc = json.loads(Path("BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def run_workload(args, fxnet, probe, work, threads, check):
    reference = json.loads(Path(args.reference).read_text())
    if args.workload == "serve-zipf":
        return serve_workload(
            fxnet, probe, work, args.seed, args.seconds, threads, args.trace, reference, args.smoke, check
        )
    cr = CampaignRun(fxnet, WORKLOADS[args.workload], args.seed, work, reference, args.smoke, check)
    if not args.trace:
        metrics, samples = campaign_e2e(cr, args.seconds, threads)
        print(f"{args.workload}: lat_p50_ms / lat_p90_ms over the per-cell medians of {samples} cells")
        return metrics
    return traced_campaign_layers(cr, probe, work, threads, check)[0]


def write_reference(fxnet, path):
    """Regenerates the reference digests: every workload spec at seed 0,
    full and smoke size."""
    ref = {}
    work = WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for src in sorted({s for specs in WORKLOADS.values() for s in specs}):
        for smoke in (False, True):
            spec = prepare_spec(src, 0, work, smoke)
            out = str(work / f"{Path(src).stem}{'-smoke' if smoke else ''}")
            _, _, code = run_campaign(fxnet, spec, nproc(), out)
            records = load_journal(out)
            if code != 0 or any(r.get("failed", 0) for r in records.values()):
                raise BenchError(f"reference run of {src} failed")
            ref[reference_key(src, smoke)] = {"seed": 0, "cells": len(records), "groups": group_digests(out)}
            log(f"reference {reference_key(src, smoke)}: {len(records)} cells")
    Path(path).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one replicate per grid point (self-test size)")
    ap.add_argument("--reference", default=str(BENCH_DIR / "reference.json"))
    ap.add_argument("--write-reference", action="store_true", help="regenerate the reference digests and exit")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        declared_e2e, declared_layers = declared_metrics()
        fxnet, probe = build()
        if args.write_reference:
            write_reference(fxnet, args.reference)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        threads = nproc()
        fp = fingerprint(args.seed, threads)
        print("fingerprint: " + json.dumps(fp, sort_keys=True))
        work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        check = Checker()
        try:
            values = run_workload(args, fxnet, probe, work, threads, check)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    declared = declared_layers if args.trace else declared_e2e
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in declared.items()}
    extra = sorted(set(values) - set(declared))
    if extra:
        log(f"perfbench: metrics not declared in BENCHMARK.json: {extra}")
        return 2
    for note in check.notes:
        print(f"check: {note}")
    fail_frac = check.failed / max(check.attempted, 1)
    print(f"{'metric':<28}{'value':>16}  unit")
    for name, m in metrics.items():
        print(f"{name:<28}{m['value']:>16.6g}  {m['unit']}")
    print(f"{'fail_frac':<28}{fail_frac:>16.6g}  ratio   ({check.failed} of {check.attempted} operations)")
    result = {
        "correct": check.failed == 0 and not check.notes,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": metrics,
    }
    with open(WORK_ROOT / "results.jsonl", "a") as f:
        f.write(json.dumps({"fingerprint": fp, "workload": args.workload, "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
