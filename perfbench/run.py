#!/usr/bin/env python3
"""End-to-end benchmark of the BerkMin solver through its shipped binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the CLI, the daemon and
the benchmark's helper (perfbench/pb.exe) with dune, generates the
workload's inputs from --seed, then repeats timed passes for about --seconds
seconds.  Every timed stretch is scaled by a reference load run around it
(README, "Host-speed scaling").  Every answer is checked; failures go to
stderr by name.  The last
line of stdout is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced pass (see
perfbench/README.md).
"""

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = os.path.join("_build", "default")
CLI = os.path.join(BUILD_DIR, "bin", "berkmin_cli.exe")
SERVERD = os.path.join(BUILD_DIR, "bin", "serverd.exe")
PB = os.path.join(BUILD_DIR, "perfbench", "pb.exe")
WORK_ROOT = ".bench_work"
SETUPS = 3  # least set-up repetitions; setup_s is their median
MIN_PASSES = 2  # the determinism guard compares passes
INSTANCE_DEADLINE_S = 60.0  # a solve past this is killed and counted failed
# Times are scaled to a host on which the reference load (pb.exe ref,
# perfbench/reference.ml) takes this long; see README, "Host-speed scaling"
REF_NOMINAL_S = 0.075
WORKLOADS = ("search", "serve", "certify")
RUNNING = set()  # CLI children not yet reaped


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./bin/berkmin_cli.exe", "./bin/serverd.exe", "./perfbench/pb.exe"]
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if proc.returncode != 0:
        log("run.py: build failed")
        sys.exit(1)


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def pb(*args):
    out = subprocess.run([PB] + list(args), check=True, capture_output=True, text=True)
    return out.stdout


def spawn_and_wait(argv, stdout_path, deadline_s):
    """Runs one child to completion.  Returns (seconds, peak RSS in MiB,
    exit status or None on timeout).  The parent blocks in wait4, so no
    polling interval is added to the measured time; a timer thread kills
    the child at the deadline."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        RUNNING.add(proc)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(deadline_s, kill)
        timer.daemon = True
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        timer.cancel()
        RUNNING.discard(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, usage.ru_maxrss / 1024.0, (None if killed else proc.returncode)


def ref_time():
    """Wall time of one reference load in a fresh process."""
    secs, _, code = spawn_and_wait([PB, "ref"], os.devnull, INSTANCE_DEADLINE_S)
    if code != 0:
        raise RuntimeError("reference load failed")
    return secs


def geomean(xs):
    return math.exp(sum(math.log(max(x, 1e-9)) for x in xs) / len(xs))


def percentile(xs, p):
    """Nearest-rank percentile; needs at least 10 samples beyond it."""
    xs = sorted(xs)
    if len(xs) * (1 - p / 100.0) < 10:
        raise ValueError("too few samples for p%g: %d" % (p, len(xs)))
    return xs[min(len(xs) - 1, int(math.ceil(p / 100.0 * len(xs))) - 1)]


class Tally:
    """Attempts, failures and the determinism guard of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures that make the run incorrect
        self.counts = {}

    def ok(self):
        self.attempted += 1

    def fail(self, instance, reason, wrong=True):
        self.attempted += 1
        self.failed += 1
        if wrong:
            self.wrong += 1
        log("FAIL %s %s: %s" % (self.workload, instance, reason))

    def counts_seen(self, instance, counts):
        """Deterministic per-instance counts must repeat in every pass."""
        first = self.counts.setdefault(instance, counts)
        if first != counts:
            self.wrong += 1
            log(
                "FAIL %s %s: counts changed between passes: %s then %s"
                % (self.workload, instance, first, counts)
            )


# ---------------------------------------------------------------------------
# Set-up


def setup_once(workload, seed, wdir):
    """Generates the inputs (and starts the daemon for serve); returns the
    daemon handle or None."""
    if os.path.exists(wdir):
        shutil.rmtree(wdir)
    os.makedirs(wdir)
    pb("gen", workload, str(seed), wdir)
    if workload != "serve":
        return None
    return Daemon(wdir)


class Daemon:
    def __init__(self, wdir):
        self.path = os.path.join(wdir, "s.sock")
        self.proc = subprocess.Popen(
            [os.path.abspath(SERVERD), "--socket", "s.sock"],
            cwd=wdir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.time() + 30
        while True:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.path)
                s.close()
                return
            except OSError:
                s.close()
                if time.time() > deadline or self.proc.poll() is not None:
                    self.proc.kill()
                    raise RuntimeError("serverd did not start")
                time.sleep(0.002)

    def stop(self):
        """Asks the daemon to shut down; returns its peak RSS in MiB."""
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(self.path)
            s.sendall(b'{"op":"shutdown"}\n')
            s.recv(4096)
            s.close()
        except OSError:
            self.proc.kill()
        timer = threading.Timer(30, self.proc.kill)
        timer.daemon = True
        timer.start()
        _, _, usage = os.wait4(self.proc.pid, 0)
        timer.cancel()
        self.proc.returncode = 0
        return usage.ru_maxrss / 1024.0


def setup(workload, seed, wdir):
    """Sets up at least SETUPS times, and more (up to 15) while the set-ups
    so far took under 1.5 s, so a cheap set-up still gets a steady median.
    Each set-up is scaled by the reference times around it.  Returns the
    median scaled time and the daemon of the last set-up."""
    times, raw = [], []
    daemon = None
    refs = [ref_time()]
    while len(times) < SETUPS or (len(times) < 15 and sum(raw) < 1.5):
        if daemon is not None:
            daemon.stop()
        t0 = time.perf_counter()
        daemon = setup_once(workload, seed, wdir)
        raw.append(time.perf_counter() - t0)
        refs.append(ref_time())
        times.append(raw[-1] * REF_NOMINAL_S * 2 / (refs[-2] + refs[-1]))
    return statistics.median(times), daemon


# ---------------------------------------------------------------------------
# Batch workloads: one CLI process per instance


def batch_pass(workload, wdir, tally):
    """One timed pass over the manifest.  The reference load runs before
    the first instance and after each one, and each instance's time is
    scaled by the mean of the two reference times around it.  Returns
    (scaled pass time, scaled per-instance seconds, peak RSS MiB, raw
    pass time).  Answers are checked after the clock stops."""
    outdir = os.path.join(wdir, "out")
    if os.path.exists(outdir):
        shutil.rmtree(outdir)
    os.makedirs(outdir)
    rows = read_tsv(os.path.join(wdir, "manifest.tsv"))
    results = []
    refs = [ref_time()]
    for name, cnf, _expected, strategy in rows:
        stem = os.path.join(outdir, name)
        argv = [CLI, cnf, "-q", "-s", strategy, "--json", stem + ".json"]
        if workload == "certify":
            argv += ["--proof", stem + ".drup", "--check"]
        secs, rss, code = spawn_and_wait(argv, stem + ".out", INSTANCE_DEADLINE_S)
        refs.append(ref_time())
        results.append((name, secs, rss, code))
    scaled = [
        r[1] * REF_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, r in enumerate(results)
    ]

    verdicts = {}
    for line in pb("check-batch", wdir, outdir).splitlines():
        name, status, detail = line.split("\t")
        verdicts[name] = (status, detail)
    for name, secs, rss, code in results:
        stem = os.path.join(outdir, name)
        if code is None:
            tally.fail(name, "timeout after %.0f s" % INSTANCE_DEADLINE_S)
            continue
        if code not in (10, 20):
            tally.fail(name, "exit code %d" % code)
            continue
        status, detail = verdicts.get(name, ("fail", "no answer checked"))
        if status != "ok":
            tally.fail(name, detail)
            continue
        with open(stem + ".json") as f:
            st = json.load(f)["stats"]
        counts = [st["conflicts"], st["decisions"], st["propagations"]]
        if workload == "certify":
            with open(stem + ".drup", "rb") as f:
                counts.append(sum(1 for _ in f))
        tally.counts_seen(name, counts)
        if workload != "certify":
            tally.ok()
            continue
        with open(stem + ".out") as f:
            line = next((l.strip() for l in f if l.startswith("c proof checked:")), None)
        if line is None:
            tally.fail(name, "no proof check line")
        elif line == "c proof checked: VALID":
            tally.ok()
        else:
            # "c proof checked: INVALID at step N (reason)"; the verdict
            # was right, the certificate is what failed
            step = line.split("at step", 1)[-1].split("(")[0].strip()
            reason = line.split("(", 1)[-1].rstrip(")")
            tally.fail(name, "step %s: %s" % (step, reason), wrong=False)
    return sum(scaled), scaled, max(r[2] for r in results), sum(r[1] for r in results)


# ---------------------------------------------------------------------------
# Serve: two closed-loop connections to berkmin-serverd


def serve_pass(wdir, daemon, tally, latencies):
    """One timed pass of both connection scripts.  The connections run
    their i-th sessions side by side and wait for each other after the
    close; the reference load runs at each of those points, and each
    segment between two of them is scaled by the mean of the reference
    times around it.  Returns (scaled pass time, number of requests,
    each session's scaled seconds from sending its open to receiving its
    close reply, unscaled pass time).  Replies are checked after the
    clock stops."""
    scripts = []
    for c in range(2):
        with open(os.path.join(wdir, "conn%d.jsonl" % c), "rb") as f:
            scripts.append([l for l in f.read().split(b"\n") if l])
    sel = selectors.DefaultSelector()
    conns = []
    for c in range(2):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(daemon.path)
        conns.append({"sock": s, "next": 0, "buf": b"", "replies": [], "sent": 0.0})
        sel.register(s, selectors.EVENT_READ, c)

    def send(c):
        st = conns[c]
        st["sent"] = time.perf_counter()
        st["sock"].sendall(scripts[c][st["next"]] + b"\n")
        st["next"] += 1

    wall = unscaled = 0.0
    sessions = []
    refs = [ref_time()]
    # every script ends with a close, so both end on the same segment
    while conns[0]["next"] < len(scripts[0]) or conns[1]["next"] < len(scripts[1]):
        segment = []
        t0 = time.perf_counter()
        live = 0
        for c in range(2):
            if conns[c]["next"] < len(scripts[c]):
                send(c)
                live += 1
        while live:
            for key, _ in sel.select():
                c = key.data
                st = conns[c]
                chunk = st["sock"].recv(1 << 20)
                if not chunk:
                    raise RuntimeError("daemon closed connection %d" % c)
                st["buf"] += chunk
                while b"\n" in st["buf"]:
                    line, st["buf"] = st["buf"].split(b"\n", 1)
                    t = time.perf_counter()
                    latencies.append((t - st["sent"]) * 1000.0)
                    st["replies"].append(line)
                    request = scripts[c][st["next"] - 1]
                    if request.startswith(b'{"op":"open"'):
                        st["opened"] = st["sent"]
                    if request.startswith(b'{"op":"close"'):
                        segment.append(t - st["opened"])
                        live -= 1
                    else:
                        send(c)
        seg = time.perf_counter() - t0
        refs.append(ref_time())
        scale = REF_NOMINAL_S * 2 / (refs[-2] + refs[-1])
        unscaled += seg
        wall += seg * scale
        sessions += [x * scale for x in segment]
    sel.close()
    replydir = os.path.join(wdir, "replies")
    os.makedirs(replydir, exist_ok=True)
    for c, st in enumerate(conns):
        st["sock"].close()
        with open(os.path.join(replydir, "conn%d.replies" % c), "wb") as f:
            f.write(b"\n".join(st["replies"]) + b"\n")

    checked = 0
    failures = []
    for line in pb("check-serve", wdir, replydir).splitlines():
        parts = line.split("\t")
        if parts[0] == "checked":
            checked += int(parts[1])
        elif parts[0] == "fail":
            failures.append(parts[1:])
        elif parts[0] == "count":
            tally.counts_seen(parts[1], parts[2:])
    for f in failures:
        tally.fail(f[0], " ".join(f[1:]))
    for _ in range(checked - len(failures)):
        tally.ok()
    return wall, sum(len(s) for s in scripts), sessions, unscaled


# ---------------------------------------------------------------------------
# Runs


def measure(workload, wdir, daemon, seconds, tally):
    """Starts timed passes until the time budget is spent.  A unit
    of work is one CLI process (batch) or one request (serve); an
    "instance" is one CLI process or one daemon session.  Returns the
    metrics, the serve latencies and the unscaled pass times."""
    walls, raw, per_pass, rss, rates, latencies = [], [], [], [], [], []
    started = time.perf_counter()
    while True:
        if workload == "serve":
            wall, units, per_instance, unscaled = serve_pass(
                wdir, daemon, tally, latencies
            )
        else:
            wall, per_instance, peak, unscaled = batch_pass(workload, wdir, tally)
            units = len(per_instance)
            rss.append(peak)
        raw.append(unscaled)
        walls.append(wall)
        rates.append(units / wall)
        per_pass.append(per_instance)
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_PASSES and elapsed >= seconds:
            break
    log(
        "%s: %d passes, unscaled wall_s %s, scaled %s"
        % (
            workload,
            len(walls),
            " ".join("%.3f" % w for w in raw),
            " ".join("%.3f" % w for w in walls),
        )
    )
    # Passes and instances are summarised by their median over passes
    # (see perfbench/README.md, "Estimators").
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "inst_geomean_ms": (
            geomean([statistics.median(t) * 1000.0 for t in zip(*per_pass)]),
            "ms",
        ),
        "req_per_s": (statistics.median(rates), "1/s"),
    }
    if rss:
        metrics["peak_rss_mb"] = (max(rss), "MiB")
    return metrics, latencies, raw


def result_line(tally, metrics):
    return json.dumps(
        {
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, copy the spans (JSONL) here")
    args = ap.parse_args()
    # a terminated run still stops its daemon and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # dune and every child keep their temporary files inside the checkout
    tmpdir = os.path.join(WORK_ROOT, "tmp-%d" % os.getpid())
    os.makedirs(tmpdir, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(tmpdir)
    wdir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    tally = Tally(args.workload)
    daemon = None
    try:
        build()
        setup_s, daemon = setup(args.workload, args.seed, wdir)
        seconds = args.seconds
        if args.trace:
            # two untraced passes for trace.path_delta_s and the serve
            # latencies, then the traced run
            seconds = 0
        metrics, latencies, raw = measure(args.workload, wdir, daemon, seconds, tally)
        if daemon is not None:
            rss = daemon.stop()
            daemon = None
            if not args.trace:
                metrics["peak_rss_mb"] = (rss, "MiB")
        if args.trace:
            metrics = trace(args, statistics.median(raw), tally)
            serve = args.workload == "serve"
            for p in (50, 99):
                value = percentile(latencies, p) if serve else 0.0
                metrics["serve.req_p%d_ms" % p] = (value, "ms")
        else:
            metrics["setup_s"] = (setup_s, "s")
            metrics["ok_frac"] = (
                (tally.attempted - tally.failed) / max(1, tally.attempted),
                "ratio",
            )
    finally:
        for proc in RUNNING:
            proc.kill()
            proc.wait()
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(wdir, ignore_errors=True)
        shutil.rmtree(tmpdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(result_line(tally, metrics), flush=True)


def trace(args, untraced_wall, tally):
    """Runs pb.exe's traced pass in a fresh directory.  Adds the cost of
    its spans (span count times the cost of one span) and the traced
    pass's wall time minus the median unscaled untraced pass time."""
    workload = args.workload
    tdir = os.path.join(WORK_ROOT, "%s-%d-trace" % (workload, os.getpid()))
    os.makedirs(tdir, exist_ok=True)
    try:
        out = pb("trace", workload, tdir, str(args.seed))
        if args.spans:
            shutil.copyfile(os.path.join(tdir, "spans.jsonl"), args.spans)
    finally:
        shutil.rmtree(tdir, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])
    for f in report["failures"]:
        tally.fail(f["instance"], "traced: " + f["reason"], wrong=f["wrong"])
    for _ in range(report["checked"] - len(report["failures"])):
        tally.ok()
    metrics = {k: (v["value"], v["unit"]) for k, v in report["metrics"].items()}
    metrics["trace.overhead_s"] = (report["span_overhead_s"], "s")
    metrics["trace.path_delta_s"] = (report["wall_s"] - untraced_wall, "s")
    for name, share in report["shares"].items():
        log("%s share of %s wall: %.3f" % (name, workload, share))
    for check in report["share_checks"]:
        log("share check: %s" % check)
    return metrics


if __name__ == "__main__":
    main()
