#!/usr/bin/env python3
"""The repository benchmark: dnscupd / dnscached under open-loop load.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload auth_zipf --seed 1 --seconds 10 --trace 0

It builds the daemons and the benchmark's own programs (perfbench/
CMakeLists.txt) into .bench_build/, starts the daemons on loopback pinned
to CPUs 0-1, drives them with perfbench/loadgen pinned to CPUs 2-3, checks
every answer against the generator's versioned model of the zone, and
prints one line per metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
makes a separate traced pass and reports the per-layer metrics.  See
perfbench/README.md for the workloads, the metrics and the trace files.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

DAEMON_CPUS = (0, 1)
GEN_CPUS = (2, 3)
# The ladder's tail limit.  Below saturation the p99 on a 4-vCPU VM
# wanders between 0.5 and 1.5 ms at any rate, so a 1 ms limit measures
# host noise; 10 ms still fails every step that builds a backlog.
CAPACITY_P99_MS = 10.0
# Latency percentiles are taken per sub-window of this many seconds and
# reported as the median over sub-windows (stats.windowed_tail).
SUBWINDOW_S = 0.1
# Set-ups per run; each gets one slice of the reference window, so
# latency and set-up time are medians over five daemon instances.  A
# daemon instance keeps its own latency level (within a run, instances of
# one workload differ by up to a third), so more instances, not longer
# slices, steady the median.
SLICES = 5
FAIL_LIMIT = 0.001
CLK_TCK = os.sysconf("SC_CLK_TCK")

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    # 20k q/s: at 40k the p99 sits at the 1 ms knee and varies 0.5-1.3 ms
    # between repeats of one seed.
    "auth_zipf": {"names": 10000, "zipf": 1.0, "ext": 0.2, "rate": 20000},
    "cache_hit": {"names": 50000, "zipf": 0.9, "ext": 0.0, "rate": 20000},
    # Plus 10 UPDATEs/s (loadgen.cc kUpdateRate) to the authority.
    "update_churn": {"names": 10000, "zipf": 1.0, "ext": 0.0, "rate": 10000,
                     "updates": True},
}


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- build ---

def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        raise BenchError("no dnscup sources (src/, tools/) next to perfbench/")
    out = ROOT / ".bench_build"
    bdir = out / "perfbench"
    out.mkdir(exist_ok=True)
    with open(out / "perfbench-build.log", "w") as logf:
        if not (bdir / "CMakeCache.txt").exists():
            rc = subprocess.call(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=logf,
                stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed, see "
                                 ".bench_build/perfbench-build.log")
        rc = subprocess.call(
            ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 2),
             "--target", "dnscupd", "dnscached", "loadgen", "layers"],
            stdout=logf, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError("build failed, see .bench_build/perfbench-build.log")
    return {"dnscupd": bdir / "tools" / "dnscupd",
            "dnscached": bdir / "tools" / "dnscached",
            "loadgen": bdir / "loadgen", "layers": bdir / "layers"}


def provenance():
    sources = hashlib.sha1()
    for base in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                sources.update(path.relative_to(ROOT).as_posix().encode())
                sources.update(path.read_bytes())
    commit = "none (not a git checkout)"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    allowed = sorted(os.sched_getaffinity(0))
    return {"nproc": os.cpu_count(), "cpus_allowed": allowed,
            "kernel": platform.release(), "commit": commit,
            "source_sha1": sources.hexdigest(),
            "pinning": {"daemons": list(DAEMON_CPUS),
                        "generator": list(GEN_CPUS)}}


# -------------------------------------------------------------- daemons ---

def pin(cpus):
    def apply():
        os.sched_setaffinity(0, cpus)
    return apply


def free_port(count=1):
    """A base port with `count` consecutive free UDP+TCP ports."""
    rng = random.Random()
    for _ in range(200):
        base = rng.randrange(20000, 60000 - count)
        ok = True
        for port in range(base, base + count):
            for kind in (socket.SOCK_DGRAM, socket.SOCK_STREAM):
                with socket.socket(socket.AF_INET, kind) as s:
                    try:
                        s.bind(("127.0.0.1", port))
                    except OSError:
                        ok = False
        if ok:
            return base
    raise BenchError("no free loopback ports")


class Daemon:
    """One daemon process: log file, metrics dumps, /proc readings."""

    def __init__(self, name, argv, workdir, cpus):
        self.name = name
        self.log_path = workdir / (name + ".log")
        self.metrics_path = workdir / (name + "-metrics.json")
        if self.metrics_path.exists():
            self.metrics_path.unlink()
        self.logf = open(self.log_path, "w")
        argv = [str(a) for a in argv] + [
            "--metrics-out", str(self.metrics_path), "--metrics-interval", "1"]
        self.proc = subprocess.Popen(argv, stdout=self.logf,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pin(cpus))

    def wait_for(self, pattern, timeout=30.0):
        regex = re.compile(pattern, re.M)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            match = regex.search(text)
            if match:
                return match
            if self.proc.poll() is not None:
                raise BenchError("%s exited (%s):\n%s" % (
                    self.name, self.proc.returncode, text[-2000:]))
            time.sleep(0.002)
        raise BenchError("%s: timed out waiting for /%s/" % (self.name,
                                                             pattern))

    def snapshot(self, since=None, timeout=5.0):
        """The first metrics dump written after `since` (default: now)."""
        since = time.time() if since is None else since
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.metrics_path.stat().st_mtime > since:
                    return json.loads(self.metrics_path.read_text())["metrics"]
            except (OSError, ValueError, KeyError):
                pass  # not written yet, or caught mid-write
            time.sleep(0.01)
        raise BenchError("%s: no metrics dump" % self.name)

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.logf.close()


def value(snap, name, **labels):
    """Sum of counters/gauges named `name` whose labels include `labels`."""
    total = 0.0
    for e in snap:
        if e["name"] != name or e["type"] == "histogram":
            continue
        if all(e["labels"].get(k) == v for k, v in labels.items()):
            total += e["value"]
    return total


def hist(snap, name, **labels):
    count = total = 0.0
    for e in snap:
        if e["name"] == name and e["type"] == "histogram" and all(
                e["labels"].get(k) == v for k, v in labels.items()):
            count += e["count"]
            total += e["sum"]
    return count, total


def delta(before, after, name, **labels):
    return value(after, name, **labels) - value(before, name, **labels)


def hist_mean(before, after, name, **labels):
    c0, s0 = hist(before, name, **labels)
    c1, s1 = hist(after, name, **labels)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------- workload ---

class Run:
    def __init__(self, args, bins):
        self.args = args
        self.bins = bins
        self.cfg = WORKLOADS[args.workload]
        self.work = ROOT / ".bench_out" / ("%s-%d" % (args.workload, args.seed))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        self.zone = self.work / "zone.txt"
        self.daemons = []
        self.banner_io = {}
        self.update_base = 0
        self.invocation = 0
        self.checks = []   # (ok, description)

    # -- processes ----------------------------------------------------------

    def start(self, name, argv, cpus):
        d = Daemon(name, argv, self.work, cpus)
        self.daemons.append(d)
        return d

    def stop(self, d):
        d.stop()
        self.daemons.remove(d)

    def stop_all(self):
        for d in list(self.daemons):
            self.stop(d)

    def check_io(self, d, match):
        io = match.group("io")
        self.banner_io[d.name] = io
        if io != "uring":
            raise BenchError("%s serves io=%s, not the requested uring "
                             "(silent fallback)" % (d.name, io))

    def start_auth(self, workers, durable=False, planner=False):
        port = free_port(workers)
        argv = [self.bins["dnscupd"], "--port", port,
                "--zone", "example.com=%s" % self.zone,
                "--workers", workers, "--io-backend", "uring",
                "--pin-cpus", ",".join(str(c) for c in DAEMON_CPUS[:workers])]
        if workers > 1:
            # Per-worker ports: the generator's sockets split evenly over
            # the workers instead of wherever SO_REUSEPORT hashes them.
            argv.append("--no-reuseport")
        if planner:
            argv += ["--lease-storage-budget", "5000"]
        if durable:
            state = self.work / "state"
            shutil.rmtree(state, ignore_errors=True)
            argv += ["--state-dir", state]
        push = not planner
        if push:
            argv += ["--push-plane"]
        cpus = DAEMON_CPUS if workers > 1 else DAEMON_CPUS[:1]
        d = self.start("dnscupd", argv, cpus)
        m = d.wait_for(r"dnscupd(?: listening on \S+,|:) \d+ workers .*"
                       r"io=(?P<io>\w+)")
        self.check_io(d, m)
        if workers > 1:
            d.endpoints = re.findall(r"^  (127\.0\.0\.1:\d+)$",
                                     d.wait_for(r"(?s)io=\w+\):\n(  \S+\n){%d}"
                                                % workers).group(0), re.M)
        else:
            d.endpoints = ["127.0.0.1:%d" % port]
        if planner:
            d.wait_for(r"^dnscup planner: mode=storage")
        if push:
            d.push = d.wait_for(r"push plane listening on (\S+) \(TCP\)"
                                ).group(1)
        return d

    def start_cache(self, auth, cache_dir=None):
        port = free_port()
        argv = [self.bins["dnscached"], "--port", port,
                "--upstream", auth.endpoints[0], "--workers", 1,
                "--io-backend", "uring", "--pin-cpus", DAEMON_CPUS[1],
                "--push-authority", auth.push]
        if cache_dir is not None:
            # 512 B slots in a power-of-two table: 256 MiB holds the 50k
            # names with room; the 64 MiB default tops out at 32768.
            argv += ["--cache-dir", cache_dir,
                     "--cache-file-size", 256 << 20]
        d = self.start("dnscached", argv, DAEMON_CPUS[1:])
        m = d.wait_for(r"dnscached listening on \S+, \d+ workers .*"
                       r"io=(?P<io>\w+)")
        self.check_io(d, m)
        d.endpoints = ["127.0.0.1:%d" % port]
        return d

    # -- generator ----------------------------------------------------------

    def loadgen(self, targets, phases, warm=False, updates=False, trace=None):
        self.invocation += 1
        tag = "gen%d" % self.invocation
        out = self.work / (tag + ".json")
        samples = self.work / (tag + ".bin")
        cfg = self.cfg
        argv = [str(self.bins["loadgen"]), "run", "--seed", str(self.args.seed),
                "--names", str(cfg["names"]), "--zipf", str(cfg["zipf"]),
                "--ext-fraction", str(cfg["ext"]),
                "--update-base", str(self.update_base),
                "--out", str(out), "--samples", str(samples)]
        for t in targets:
            argv += ["--target", t]
        for rate, seconds in phases:
            argv += ["--phase", "%s:%s" % (rate, seconds)]
        if warm:
            argv.append("--warm")
        if updates:
            argv += ["--update-target", self.auth.endpoints[0]]
        if trace is not None:
            argv += ["--trace", str(trace)]
        total = sum(s for _, s in phases)
        rc = subprocess.call(argv, preexec_fn=pin(GEN_CPUS),
                             timeout=total + 120)
        if rc != 0:
            raise BenchError("loadgen failed (exit %d)" % rc)
        summary = json.loads(out.read_text())
        self.update_base += summary["updates"]["attempted"]
        if summary["rollbacks"]:
            raise BenchError("%d answers rolled back to an older address"
                             % summary["rollbacks"])
        return summary, stats.read_series(samples)

    def warm(self, target):
        """Every name once, in order and closed loop, until one pass
        answers them all: a host stall can time out a few misses, which
        the next pass (mostly hits) resolves.  Closed loop, so the time it
        takes is the cache's, not a schedule's."""
        for _ in range(3):
            summary, _ = self.loadgen([target], [], warm=True)
            phase = summary["phases"][0]
            if phase["ok"] == phase["attempted"]:
                return
        raise BenchError("warm-up: %d of %d names answered" %
                         (phase["ok"], phase["attempted"]))

    # -- set-up -------------------------------------------------------------

    def setup_once(self):
        w = self.args.workload
        t0 = time.perf_counter()
        if w == "auth_zipf":
            self.auth = self.start_auth(2, planner=True)
            self.targets = self.auth.endpoints
        elif w == "cache_hit":
            self.auth = self.start_auth(1)
            cache_dir = self.work / "cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir.mkdir()
            cache = self.start_cache(self.auth, cache_dir)
            self.warm(cache.endpoints[0])
            self.stop(cache)
            self.cache = self.start_cache(self.auth, cache_dir)
            m = self.cache.wait_for(r"warm restart: (\d+) entries reloaded")
            reloaded = int(m.group(1))
            if reloaded < self.cfg["names"]:
                raise BenchError("warm restart reloaded %d of %d names" %
                                 (reloaded, self.cfg["names"]))
            # Ready once every name is reloaded.  Lease re-adoption runs
            # behind it over the push channel; results report how many
            # leases it resumed ("readopted_leases").
            self.targets = self.cache.endpoints
        else:
            self.auth = self.start_auth(1, durable=True)
            self.cache = self.start_cache(self.auth)
            self.warm(self.cache.endpoints[0])
            self.targets = self.cache.endpoints
        return time.perf_counter() - t0

    # -- measurement --------------------------------------------------------

    def measured(self, rate, seconds, trace=None, counters=True):
        """One reference-rate window with /proc and, when `counters`, the
        daemons' metrics dumps around it (waiting for a fresh dump costs up
        to a second each side)."""
        updates = self.cfg.get("updates", False)
        since = time.time()
        before = ({d.name: d.snapshot(since) for d in self.daemons}
                  if counters else None)
        cpu0 = {d.name: d.cpu_seconds() for d in self.daemons}
        t0 = time.monotonic()
        summary, series = self.loadgen(self.targets, [(rate, seconds)],
                                       updates=updates, trace=trace)
        wall = time.monotonic() - t0
        cpu = {d.name: d.cpu_seconds() - cpu0[d.name] for d in self.daemons}
        since = time.time()
        after = ({d.name: d.snapshot(since) for d in self.daemons}
                 if counters else None)
        return {"summary": summary, "series": series, "before": before,
                "after": after, "cpu": cpu, "wall": wall,
                "hwm": {d.name: d.hwm_mb() for d in self.daemons}}

    def step_ok(self, rate, seconds):
        """One ladder step; a failed step is run once more, so a single
        host stall does not end the ladder."""
        return self.step_once(rate, seconds) or self.step_once(rate, seconds)

    def step_once(self, rate, seconds):
        summary, series = self.loadgen(self.targets, [(rate, seconds)])
        phase = summary["phases"][0]
        lat = series["read_ns.0"]
        failed = phase["attempted"] - phase["ok"]
        p99 = stats.windowed_tail(lat, 0.99,
                                  max(1, round(seconds / SUBWINDOW_S)))
        thirds = len(lat) // 3
        growing = thirds >= 20 and (
            stats.median(lat[-thirds:]) > 2 * stats.median(lat[:thirds])
            + 100000)
        time.sleep(0.2)  # let any backlog drain
        return (p99 is not None and p99["value"] / 1e6 <= CAPACITY_P99_MS
                and ratio(failed, phase["attempted"]) <= FAIL_LIMIT
                and abs(phase["offered_qps"] - rate) <= 0.01 * rate
                and not growing)

    def capacity(self, seconds):
        """Highest ladder rate that meets the limits: steps of x1.5 from the
        reference rate until one fails, then three bisections (~5 %)."""
        rate = float(self.cfg["rate"])
        good, bad = None, None
        for _ in range(10):
            ok = self.step_ok(rate, seconds)
            if ok:
                good = rate
                if bad is not None:
                    break
                rate *= 1.5
            else:
                bad = rate
                if good is not None:
                    break
                rate /= 1.5
        if good is None or bad is None:
            return good or 0.0
        for _ in range(3):
            mid = (good * bad) ** 0.5
            if self.step_ok(mid, seconds):
                good = mid
            else:
                bad = mid
        return good


# -------------------------------------------------------------- metrics ---

def read_latency(windows, p):
    """Read latency percentile p in us over reference windows: per
    SUBWINDOW_S chunk, median over the chunks of every window."""
    lat, seconds = [], 0.0
    for w in windows:
        lat += w["series"]["read_ns.0"]
        seconds += w["summary"]["phases"][0]["seconds"]
    t = stats.windowed_tail(lat, p, max(1, round(seconds / SUBWINDOW_S)))
    if t is None:
        raise BenchError("too few answered reads (%d)" % len(lat))
    return t["value"] / 1000.0


def tail_note(t):
    if t is None:
        return "no samples"
    return "p%g of n=%d" % (round(100 * t["percentile"], 1), t["count"])


def read_metrics(run, windows):
    """Workload results pooled over the reference windows, by name:
    {name: (value, unit, note)}."""
    rate = run.cfg["rate"]
    out = {}
    phases = [w["summary"]["phases"][0] for w in windows]
    updates = [w["summary"]["updates"] for w in windows]
    out["read_p50_us"] = (read_latency(windows, 0.5), "us", "")
    out["read_p99_us"] = (read_latency(windows, 0.99), "us", "")
    attempted = sum(p["attempted"] for p in phases) + sum(
        u["attempted"] for u in updates)
    failed = sum(p["attempted"] - p["ok"] for p in phases) + sum(
        u["failed"] for u in updates)
    out["fail_ratio"] = (ratio(failed, attempted), "ratio", "")
    out["offered_qps"] = (min(p["offered_qps"] for p in phases), "1/s",
                          "lowest window")
    lag = stats.tail(sum((w["series"]["lag_ns.0"] for w in windows), []),
                     0.99)
    out["gen_lag_p99_us"] = (lag["value"] / 1000.0, "us", tail_note(lag))
    # CPU of the daemon that answers the reads, per read or consistency
    # probe it answered: the authority's UPDATE work varies with the
    # Poisson update count and would swamp the per-read cost.
    reader = "dnscached" if "dnscached" in windows[0]["cpu"] else "dnscupd"
    answered = sum(p["ok"] for p in phases) + sum(u["probes"] for u in updates)
    cpu = sum(w["cpu"][reader] for w in windows)
    out["cpu_us_per_query"] = (1e6 * ratio(cpu, answered), "us", reader)
    out["rss_mb"] = (statistics.median(sum(w["hwm"].values())
                                       for w in windows), "MB", "")
    out["auth_rss_mb"] = (statistics.median(w["hwm"]["dnscupd"]
                                            for w in windows), "MB", "")

    counted = [w for w in windows if w["before"] is not None]

    def total(daemon, name, **labels):
        return sum(delta(w["before"][daemon], w["after"][daemon], name,
                         **labels) for w in counted)

    if "dnscached" in windows[0]["hwm"]:
        out["cache_rss_mb"] = (statistics.median(
            w["hwm"]["dnscached"] for w in windows), "MB", "")
        out["hit_ratio"] = (ratio(
            total("dnscached", "resolver_cache_lookups", result="hit"),
            total("dnscached", "resolver_cache_lookups")), "ratio", "")
        upstream = (total("dnscached", "resolver_queries", side="upstream")
                    + total("dnscached", "lease_client_acks_sent"))
        out["upstream_msgs_per_kquery"] = (1000 * ratio(
            upstream, total("dnscached", "resolver_queries", side="client")),
            "count", "")
        out["readopted_leases"] = (statistics.median(value(
            w["after"]["dnscached"], "lease_readoption_total",
            result="resumed") for w in counted), "count", "")
    else:
        out["upstream_msgs_per_kquery"] = (1000.0, "count",
                                           "every query is authority-bound")
    if run.cfg.get("updates", False):
        stale = sum((w["series"]["stale_ns"] for w in windows), [])
        for p, name in ((0.5, "stale_p50_ms"), (0.99, "stale_p99_ms")):
            t = stats.tail(stale, p)
            out[name] = (t["value"] / 1e6 if t else 0.0, "ms", tail_note(t))
        t = stats.tail(sum((w["series"]["update_ns"] for w in windows), []),
                       0.99)
        out["update_p99_us"] = (t["value"] / 1000.0 if t else 0.0, "us",
                                tail_note(t))
        msgs = (total("dnscupd", "push_frames", role="server", dir="tx")
                + total("dnscupd", "cache_update_messages", result="sent")
                + total("dnscupd", "cache_update_messages",
                        result="retransmit"))
        out["push_msgs_per_change"] = (ratio(
            msgs, total("dnscupd", "detection_rrsets_changed")), "count", "")
        never = sum(u["never_consistent"] for u in updates)
        if never:
            raise BenchError("%d changes never reached the cache" % never)
    for p in phases:
        if abs(p["offered_qps"] - rate) > 0.01 * rate:
            raise BenchError("offered %.1f q/s, not within 1%% of %d" %
                             (p["offered_qps"], rate))
    bad = answer_errors(phases, updates)
    run.checks.append((bad == 0, "%d wrong or malformed answers" % bad))
    return out, attempted, failed


def answer_errors(phases, updates):
    """Wrong or malformed answers, to reads and to consistency probes:
    each makes the run incorrect (they also count as failures)."""
    return (sum(p["wrong"] + p["malformed"] for p in phases)
            + sum(u["probe_wrong"] + u["probe_malformed"] for u in updates))


def layer_metrics(run, window, untraced_p50_us, replay, lseries):
    """The per-layer metrics (BENCHMARK.json per_layer)."""
    m = {}

    def q(name, p, scale=1.0):
        t = stats.tail(lseries.get(name, []), p)
        return t["value"] / scale if t else 0.0

    for key, series, scale, unit in (
            ("dns.decode_ns", "dns.decode", 1, "ns"),
            ("dns.encode_ns", "dns.encode", 1, "ns"),
            ("dns.zone_lookup_ns", "dns.zone_lookup", 1, "ns"),
            ("server.auth_query_plain_ns", "server.auth_query_plain", 1, "ns"),
            ("server.auth_query_ext_ns", "server.auth_query_ext", 1, "ns"),
            ("server.update_apply_us", "server.update_apply", 1000, "us"),
            ("server.cache_peek_ns", "server.cache_peek", 1, "ns"),
            ("core.lease_decide_ns", "core.lease_decide", 1, "ns"),
            ("core.notify_fanout_us", "core.notify_fanout", 1000, "us"),
            ("planner.observe_ns", "planner.observe", 1, "ns"),
            ("cachestore.commit_ns", "cachestore.commit", 1, "ns")):
        m[key + "_p50"] = (q(series, 0.5, scale), unit)
        m[key + "_p99"] = (q(series, 0.99, scale), unit)
    for key, series, unit in (
            ("server.cache_apply_update_ns_p50", "server.cache_apply_update",
             "ns"),
            ("core.listener_observe_ns_p50", "core.listener_observe", "ns"),
            ("core.lease_client_apply_ns_p50", "core.lease_client_apply",
             "ns"),
            ("planner.assignment_ns_p50", "planner.assignment", "ns"),
            ("push.frame_decode_ns_p50", "push.frame_decode", "ns"),
            ("cachestore.touch_ns_p50", "cachestore.touch", "ns")):
        m[key] = (q(series, 0.5), unit)
    m["dns.allocs_per_query"] = (replay["allocs_per_query"], "count")
    m["core.cache_update_ack_latency_us_mean"] = (
        replay["ack_latency_us_mean"], "us")
    m["planner.update_latency_us_mean"] = (
        replay["planner_update_latency_us_mean"], "us")
    m["planner.observations_dropped_ratio"] = (
        replay["planner_observations_dropped_ratio"], "ratio")
    m["planner.pairs"] = (replay["planner_pairs"], "count")
    m["store.append_latency_us_mean"] = (replay["store_append_us_mean"], "us")
    m["store.fsync_latency_us_mean"] = (replay["store_fsync_us_mean"], "us")
    m["store.wal_bytes_per_update"] = (replay["wal_bytes_per_update"],
                                       "bytes")
    opens = lseries.get("cachestore.open", [])
    m["cachestore.open_ms"] = (opens[0] / 1e6 if opens else 0.0, "ms")
    m["cachestore.warm_entries"] = (replay["cachestore_warm_entries"],
                                    "count")

    # Daemon counters over the traced window (0 where a layer is idle).
    b, a = window["before"], window["after"]
    ab, aa = b["dnscupd"], a["dnscupd"]
    granted = delta(ab, aa, "listener_lease_decisions", result="granted")
    decisions = delta(ab, aa, "listener_lease_decisions")
    m["core.lease_grant_ratio"] = (ratio(granted, decisions), "ratio")
    sent = delta(ab, aa, "cache_update_messages", result="sent")
    m["core.retransmit_ratio"] = (ratio(delta(
        ab, aa, "cache_update_messages", result="retransmit"), sent), "ratio")
    m["core.live_leases"] = (value(aa, "authority_live_leases"), "count")
    changes = delta(ab, aa, "detection_rrsets_changed")
    frames = delta(ab, aa, "push_frames", role="server", dir="tx")
    channel = delta(ab, aa, "cache_update_messages", result="sent_channel")
    m["push.frames_per_change"] = (ratio(frames, changes), "count")
    m["push.coalesced_ratio"] = (ratio(delta(
        ab, aa, "cache_update_messages", result="coalesced"),
        channel), "ratio")
    m["push.fallback_ratio"] = (ratio(delta(
        ab, aa, "cache_update_messages", result="fallback"),
        channel), "ratio")
    m["push.queue_depth_max"] = (max(value(ab, "push_queue_depth"),
                                     value(aa, "push_queue_depth")), "count")
    m["runtime.inbox_dropped"] = (delta(ab, aa, "runtime_inbox_dropped"),
                                  "count")
    # The datagram layer of whichever daemon answers the reads.
    nb, na = (b["dnscached"], a["dnscached"]) if "dnscached" in a else (ab, aa)
    m["net.rx_overflow"] = (delta(nb, na, "udp_rx_overflow"), "count")
    m["net.rx_batch_mean"] = (hist_mean(nb, na, "udp_rx_batch_size"),
                              "count")
    m["net.tx_batch_mean"] = (hist_mean(nb, na, "udp_tx_batch_size"),
                              "count")
    m["net.tx_flush_us_mean"] = (hist_mean(nb, na, "udp_tx_flush_us"), "us")
    wall = window["wall"]
    auth_cpus = 2 if run.args.workload == "auth_zipf" else 1
    m["runtime.auth_cpu_util"] = (
        window["cpu"]["dnscupd"] / (wall * auth_cpus), "ratio")
    if "dnscached" in a:
        cb, ca = b["dnscached"], a["dnscached"]
        hits = delta(cb, ca, "resolver_cache_lookups", result="hit")
        m["server.resolver_hit_ratio"] = (ratio(hits, delta(
            cb, ca, "resolver_cache_lookups")), "ratio")
        m["server.resolver_timeouts"] = (delta(cb, ca, "resolver_timeouts"),
                                         "count")
        m["server.resolver_retransmissions"] = (delta(
            cb, ca, "resolver_retransmissions"), "count")
        m["cachert.inbox_dropped"] = (delta(cb, ca, "cachert_inbox_dropped"),
                                      "count")
        m["cachestore.compactions"] = (delta(cb, ca,
                                             "cache_store_compactions"),
                                       "count")
        m["cachert.cache_cpu_util"] = (window["cpu"]["dnscached"] / wall,
                                       "ratio")
    else:
        for key in ("server.resolver_hit_ratio", "cachert.cache_cpu_util"):
            m[key] = (0.0, "ratio")
        for key in ("server.resolver_timeouts",
                    "server.resolver_retransmissions",
                    "cachert.inbox_dropped", "cachestore.compactions"):
            m[key] = (0.0, "count")

    # Harness health.
    lag = stats.tail(window["series"]["lag_ns.0"], 0.99)
    m["bench.gen_lag_p99_us"] = (lag["value"] / 1000.0, "us")
    traced = read_latency([window], 0.5)
    m["bench.trace_overhead_ratio"] = (traced / untraced_p50_us, "ratio")
    ext = replay["ext_reads"] / replay["reads"]
    stage_sum = (q("dns.decode", 0.5) + q("dns.zone_lookup", 0.5)
                 + (1 - ext) * q("core.listener_observe", 0.5)
                 + ext * q("core.lease_decide", 0.5) + q("dns.encode", 0.5))
    whole = stats.tail(lseries["server.auth_query_plain"]
                       + lseries["server.auth_query_ext"], 0.5)["value"]
    m["bench.stage_sum_ratio"] = (stage_sum / whole, "ratio")
    return m


def self_times(paths):
    """Self time per layer (span duration minus its children), in ms."""
    spans = {}
    for path in paths:
        with open(path) as f:
            next(f)
            for line in f:
                sid, parent, _req, name, start, end = line.rstrip().split(",")
                spans[(path, sid)] = [name, parent, int(end) - int(start)]
    for (path, _sid), (_name, parent, dur) in list(spans.items()):
        if parent != "0":
            spans[(path, parent)][2] -= dur
    layers = {}
    for name, _parent, dur in spans.values():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0) + dur
    return {k: v / 1e6 for k, v in sorted(layers.items())}


# ----------------------------------------------------------------- main ---

def emit(metrics_by_name, attempted, failed, correct):
    for name, (val, unit) in metrics_by_name.items():
        log("metric %-42s %14.6f %s" % (name, val, unit))
    print(json.dumps({
        "correct": correct, "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics_by_name.items()}}), flush=True)


def bench(args):
    bins = build()
    prov = provenance()
    if not set(DAEMON_CPUS + GEN_CPUS) <= set(prov["cpus_allowed"]):
        raise BenchError("needs CPUs 0-3, have %s" % prov["cpus_allowed"])
    run = Run(args, bins)
    subprocess.check_call([str(bins["loadgen"]), "zone", "--seed",
                           str(args.seed), "--names",
                           str(run.cfg["names"]), "--out", str(run.zone)])
    try:
        rate = run.cfg["rate"]
        updates = run.cfg.get("updates", False)
        if not args.trace:
            setups, windows = [], []
            for i in range(SLICES):
                if i:
                    run.stop_all()
                    run.update_base = 0  # a fresh authority reloads the zone
                setups.append(run.setup_once())
                run.loadgen(run.targets, [(rate, 0.5)], updates=updates)
                windows.append(run.measured(rate, args.seconds / SLICES,
                                            counters=i == SLICES - 1))
            results, attempted, failed = read_metrics(run, windows)
            if not updates:
                results["capacity_qps"] = (
                    run.capacity(max(0.5, args.seconds / 20)), "1/s",
                    "p99 <= %g ms" % CAPACITY_P99_MS)
            prov["io_backend"] = run.banner_io
            log("provenance " + json.dumps(prov, sort_keys=True))
            for name, (val, unit, note) in sorted(results.items()):
                log("result %-26s %14.6f %-6s %s" % (name, val, unit, note))
            ok = all(c for c, _ in run.checks)
            for c, what in run.checks:
                if not c:
                    log("FAILED check: " + what)
            emit({"setup_s": (statistics.median(setups), "s"),
                  "read_p50_us": results["read_p50_us"][:2],
                  "cpu_us_per_query": results["cpu_us_per_query"][:2],
                  "rss_mb": results["rss_mb"][:2]}, attempted, failed, ok)
            return 0
        run.setup_once()
        prov["io_backend"] = run.banner_io
        log("provenance " + json.dumps(prov, sort_keys=True))
        run.loadgen(run.targets, [(rate, 0.5)], updates=updates)
        untraced = read_latency([run.measured(rate, args.seconds / 4)], 0.5)
        gen_trace = run.work / "trace-loadgen.csv"
        window = run.measured(rate, args.seconds / 4, trace=gen_trace)
        _, attempted, failed = read_metrics(run, [window])
        run.stop_all()
        replay_trace = run.work / "trace-layers.csv"
        cfg = run.cfg
        rc = subprocess.call(
            [str(bins["layers"]), "--seed", str(args.seed), "--names",
             str(cfg["names"]), "--zipf", str(cfg["zipf"]), "--ext-fraction",
             str(cfg["ext"]),
             "--workdir", str(run.work), "--samples",
             str(run.work / "layers.bin"), "--trace", str(replay_trace),
             "--out", str(run.work / "layers.json")],
            preexec_fn=pin(GEN_CPUS), timeout=120)
        if rc != 0:
            raise BenchError("layer replay failed (exit %d)" % rc)
        replay = json.loads((run.work / "layers.json").read_text())
        lseries = stats.read_series(run.work / "layers.bin")
        m = layer_metrics(run, window, untraced, replay, lseries)
        for layer, ms in self_times([gen_trace, replay_trace]).items():
            log("trace self_ms %-12s %12.3f" % (layer, ms))
        log("trace files: %s %s" % (gen_trace.relative_to(ROOT),
                                    replay_trace.relative_to(ROOT)))
        ok = all(c for c, _ in run.checks)
        emit(dict(sorted(m.items())), attempted, failed, ok)
        return 0
    finally:
        run.stop_all()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return bench(args)
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr, flush=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
