"""The four benchmark workloads.

Each workload is a closed loop with one client: one call (or one
subprocess) at a time, the next sent when the previous one returns.  A
workload builds its inputs from the seed in ``setup`` (a generator that
yields between steps of work and returns the inputs, so that set-up can be
calibrated step by step), warms up, then ``run`` measures items until
their wall time adds up to a fixed number of seconds, and checks every
output.  Between items, ``run`` lets the ``SpeedClock`` open a new speed
window, and at the end scales each item's wall time by the probes around
its window (see speed.py); the raw wall total is kept as well.  With a tracer,
``run`` also records spans around the layer calls, and ``layers`` turns
them into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import twoomega.cli as cli
from twoomega.cli import RunConfig, emit_records, sample_class, scan_stream
from twoomega.colorer import (
    ColorerError,
    certificate_to_json,
    check_certificate,
    color_bounded,
    execute_part,
    find_branch,
)
from twoomega.graphs import Graph, graph6_decode, graph6_encode
from twoomega.oracles import chromatic_number, clique_number
from twoomega.patterns import class_membership, is_class_member
from twoomega.witnesses import groetzsch, schlafli_complement

from speed import SpeedClock
from tracing import Tracer, patched

BRANCHES = (
    "B0", "OMEGA2", "G1", "G2", "G3",
    "H1", "H2", "H3", "H4", "H5", "H6",
    "J1", "J2", "J3", "J4", "J5", "J6", "J7", "J8",
)
PART_KINDS = ("independent", "cliques", "bipartite", "indexed_cover", "exact_with_budget")


@dataclass
class Result:
    """What one measured pass produced."""

    items: int = 0
    failed: int = 0
    elapsed: float = 0.0  # calibrated seconds of work, probes left out
    wall: float = 0.0  # the same work in raw wall seconds
    # seconds per item, raw until calibrate(), and the speed window of each;
    # packed so that peak RSS hardly depends on how many items a run does
    latencies: array = field(default_factory=lambda: array("d"))
    windows: array = field(default_factory=lambda: array("i"))
    window_wall: defaultdict = field(default_factory=lambda: defaultdict(float))
    palette: list = field(default_factory=list)  # colors_used / (2*omega)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    branches: Counter = field(default_factory=Counter)  # over the digest prefix
    parts: Counter = field(default_factory=Counter)  # over the digest prefix
    digest: str = ""
    notes: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    derived: dict = field(default_factory=dict)  # layer metrics known only to run()

    def work(self, wall: float, window: int) -> None:
        """Count a stretch of work done in a speed window."""
        self.wall += wall
        self.window_wall[window] += wall

    def item(self, latency: float, window: int) -> None:
        self.latencies.append(latency)
        self.windows.append(window)

    def calibrate(self, speed: SpeedClock) -> None:
        """Scale the work and the latencies by the speed of their windows."""
        speed.close()
        self.elapsed = sum(w * speed.factor(k) for k, w in self.window_wall.items())
        self.latencies = array("d", (t * speed.factor(k)
                                     for t, k in zip(self.latencies, self.windows)))


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally_certificate(res: Result, cert) -> None:
    res.branches[cert.trace.branch_id] += 1
    for part in cert.trace.parts:
        res.parts[part.strategy.kind] += 1


def _probe_member(tracer: Tracer, g: Graph, cert, oracle: bool) -> None:
    """Time the colorer's stages as separate public calls on one member:
    omega, dispatch with omega given, each part of the certificate
    re-executed, and optionally the exact chromatic number."""
    omega, _ = tracer.call("oracles.clique_number", clique_number, g)
    tracer.call("colorer.find_branch", find_branch, g, omega)
    base = 1
    for part in cert.trace.parts:
        _, used = tracer.call(
            "colorer.execute_part", execute_part,
            g, part.vertices, part.strategy, base, tag=part.strategy.kind,
        )
        base += used
    if oracle:
        tracer.call("oracles.chromatic_number", chromatic_number, g)


def colorer_layers(tracer: Tracer) -> dict:
    """Per-layer metrics shared by every workload that colors graphs."""
    out = {}
    cb = tracer.mean_us("colorer.color_bounded")
    probed = {s[5] for s in tracer.spans if s[0] == "colorer.find_branch"}
    cb_probed = tracer.mean_us("colorer.color_bounded", items=probed)
    clique = tracer.mean_us("oracles.clique_number")
    fb = tracer.mean_us("colorer.find_branch")
    out["oracles.clique_number.us"] = clique
    out["oracles.chromatic_number.us"] = tracer.mean_us("oracles.chromatic_number")
    out["colorer.find_branch.us"] = fb
    out["colorer.find_branch.share"] = fb / cb_probed if cb_probed else 0.0
    out["colorer.color_bounded.us"] = cb
    out["colorer.color_bounded.self_us"] = cb_probed - clique - fb if cb_probed else 0.0
    for b in BRANCHES:
        out[f"colorer.color_bounded.{b}.us"] = tracer.mean_us("colorer.color_bounded", b)
    for kind in PART_KINDS:
        out[f"colorer.execute_part.{kind}.us"] = tracer.mean_us("colorer.execute_part", kind)
    out["colorer.check_certificate.us"] = tracer.mean_us("colorer.check_certificate")
    calls = tracer.durations("patterns.is_class_member")
    members = tracer.durations("patterns.is_class_member", True)
    out["patterns.is_class_member.reject_us"] = tracer.mean_us("patterns.is_class_member", False)
    out["patterns.is_class_member.member_us"] = tracer.mean_us("patterns.is_class_member", True)
    out["patterns.member_ratio"] = len(members) / len(calls) if calls else 0.0
    out["graphs.graph6_encode.us"] = tracer.mean_us("graphs.graph6_encode")
    out["graphs.graph6_decode.us"] = tracer.mean_us("graphs.graph6_decode")
    return out


# -- n7_scan ------------------------------------------------------------------

_N7_PAIRS = [(i, j) for i in range(7) for j in range(i + 1, 7)]


def _graph7(mask: int) -> Graph:
    rows = [0] * 7
    for t, (i, j) in enumerate(_N7_PAIRS):
        if mask >> t & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(7, tuple(rows))


class N7Scan:
    name = "n7_scan"
    item = "input graph"
    POOL = 49152  # about 60% of what one core scans in 20 s today; a run wraps around
    PREFIX = 4096  # inputs whose records are hashed and whose branches are counted
    MEMBER_SHARE = (0.48, 0.52)
    MIN_BRANCHES = 15

    def setup(self, seed: int, cap: int | None):
        size = min(self.POOL, cap) if cap else self.POOL
        masks = random.Random(seed).sample(range(1 << 21), size)
        pool = []
        for k in range(0, size, 4096):
            yield
            pool.extend(_graph7(m) for m in masks[k:k + 4096])
        return pool

    def warm(self, pool) -> None:
        records, _ = scan_stream(iter(pool[:64]), RunConfig(oracle=True))
        for _ in records:
            pass

    def run(self, pool, seconds: float, cap: int | None, speed: SpeedClock,
            tracer: Tracer | None = None) -> Result:
        res = Result()
        clock = time.perf_counter
        # when the latest input was handed over, its index, and its speed window
        last = [0.0, -1, 0]
        index_of = []
        certs = {}

        def feed():
            # an input's time runs until the scan asks for the next one, so
            # it covers membership, colouring and writing its record
            for i in itertools.count():
                t = clock()
                if i:
                    res.work(t - last[0], last[2])
                if res.wall >= seconds or i == cap:
                    return
                last[2] = speed.window()
                last[1] = i
                if tracer is not None:
                    tracer.item = i
                last[0] = clock()
                yield pool[i % len(pool)]

        records, summary = scan_stream(feed(), RunConfig(oracle=True))
        buf = io.StringIO()

        def timed():
            for rec in records:
                res.item(clock() - last[0], last[2])
                index_of.append(last[1])
                yield rec

        if tracer is None:
            emit_records(timed(), "json", buf)
        else:
            def keep(cert):
                certs[tracer.item] = cert
                return cert.trace.branch_id

            wrapped = dict(
                is_class_member=tracer.wrap("patterns.is_class_member", is_class_member, bool),
                color_bounded=tracer.wrap("colorer.color_bounded", color_bounded, keep),
                check_certificate=tracer.wrap("colorer.check_certificate", check_certificate),
                chromatic_number=tracer.wrap("oracles.chromatic_number", chromatic_number),
                clique_number=tracer.wrap("oracles.clique_number", clique_number),
                graph6_encode=tracer.wrap("graphs.graph6_encode", graph6_encode),
            )
            with patched(cli, **wrapped):
                for rec in timed():
                    tracer.call("cli.emit_records", emit_records, (rec,), "json", buf)
        res.items = summary.graphs_seen
        res.peak_rss_mb = _self_rss_mb()
        res.calibrate(speed)

        prefix_lines = []
        failures = []
        for line, idx in zip(buf.getvalue().splitlines(), index_of):
            rec = json.loads(line)
            budget = 2 * rec["omega"]
            ok = rec["ok"] and rec["chi"] is not None and rec["chi"] <= budget
            ok = ok and 0 < rec["colors_used"] <= budget
            if not ok:
                res.failed += 1
                failures.append(rec["graph6"])
            res.palette.append(rec["colors_used"] / budget)
            if idx < self.PREFIX:
                res.branches[rec["branch"]] += 1
                del rec["millis"]  # the only field that is a timing
                prefix_lines.append(json.dumps(rec, separators=(",", ":")))
        res.checks.append(("records ok with chi <= 2*omega", not failures,
                           f"{len(failures)} bad, first {failures[:3]}"))
        res.digest = _sha256(prefix_lines)
        res.notes.append(
            f"digest over the records of the first {min(self.PREFIX, res.items)} inputs "
            f"({len(prefix_lines)} records, millis dropped)"
        )
        share = summary.members / summary.graphs_seen if summary.graphs_seen else 0.0
        hist = dict(sorted(summary.branch_histogram.items()))
        res.notes.append(f"member share {share:.4f} ({summary.members}/{summary.graphs_seen})")
        res.notes.append(f"branch histogram {json.dumps(hist, separators=(',', ':'))}")
        if summary.graphs_seen >= self.PREFIX:
            lo, hi = self.MEMBER_SHARE
            res.checks.append((f"member share in [{lo}, {hi}]", lo <= share <= hi, f"{share:.4f}"))
            res.checks.append((f"at least {self.MIN_BRANCHES} branches fire",
                               len(hist) >= self.MIN_BRANCHES, f"{len(hist)} fired"))
        else:
            res.notes.append(f"stride-bias guards skipped: {summary.graphs_seen} inputs "
                             f"< {self.PREFIX}")
        if tracer is not None:
            # every span so far is a top-level call made inside the scan loop
            inner = tracer.top_level_seconds()
            res.derived["cli.scan_stream.overhead_us"] = 1e6 * (res.wall - inner) / res.items
            self._probe(pool, certs, tracer, res)
        return res

    def _probe(self, pool, certs, tracer, res) -> None:
        for idx, cert in certs.items():
            tracer.item = idx
            g = pool[idx % len(pool)]
            _probe_member(tracer, g, cert, oracle=False)
            if idx < self.PREFIX:
                for part in cert.trace.parts:
                    res.parts[part.strategy.kind] += 1

    def layers(self, tracer: Tracer, res: Result) -> dict:
        out = colorer_layers(tracer)
        out["cli.emit_records.us"] = tracer.mean_us("cli.emit_records")
        return out | res.derived


# -- sampled_members ----------------------------------------------------------

# The (n, p) regimes of the acceptance suite's SAMPLE_SUITE: dense p=0.9 for
# n=8..13 and a sparse p for each n=8..16.  The counts lean toward the dense
# regimes, where most of the coloring time goes, so a run measures more
# work per member drawn in set-up; the costliest sparse regime to draw
# (n=14, p=0.129, about 0.25% accepted) gets fewer members.  With 226
# sparse members (0.2-0.8 ms each) and 100 dense ones per n (about 1 ms at
# n=8, 1.5-1.7 ms at n=9 and 10), the median member falls inside the
# n=9/10 cluster rather than on the gap below it.
REGIMES = tuple((n, 0.9, 100) for n in range(8, 14)) + (
    (8, 0.225, 24), (9, 0.2, 24), (10, 0.18, 24), (11, 0.164, 24), (12, 0.15, 24),
    (13, 0.138, 24), (14, 0.086, 24), (14, 0.129, 10), (15, 0.08, 24), (16, 0.075, 24),
)


class SampledMembers:
    name = "sampled_members"
    item = "member"

    def setup(self, seed: int, cap: int | None):
        rng = random.Random(seed)
        pool = []
        for n, p, count in REGIMES:
            for _ in range(1 if cap else count):
                yield
                graphs, _ = sample_class(n, p, 1, rng.getrandbits(63))
                pool.extend(graphs)
        rng.shuffle(pool)
        return pool

    def warm(self, pool) -> None:
        for g in pool[:16]:
            check_certificate(g, color_bounded(g, assert_proofs=True))

    def run(self, pool, seconds: float, cap: int | None, speed: SpeedClock,
            tracer: Tracer | None = None) -> Result:
        res = Result()
        clock = time.perf_counter
        certs = []
        is_member, color, check = is_class_member, color_bounded, check_certificate
        if tracer is not None:
            is_member = tracer.wrap("patterns.is_class_member", is_class_member, bool)
            color = tracer.wrap("colorer.color_bounded", color_bounded,
                                lambda cert: cert.trace.branch_id)
            check = tracer.wrap("colorer.check_certificate", check_certificate)
        failures = []
        for i in itertools.count():
            if res.wall >= seconds or i == cap:
                break
            window = speed.window()
            g = pool[i % len(pool)]
            if tracer is not None:
                tracer.item = i
            cert = None
            t0 = clock()
            try:
                ok = is_member(g)
                if ok:
                    cert = color(g, assert_proofs=True)
                    ok = bool(check(g, cert))
            except ColorerError:
                ok = False
            dt = clock() - t0
            res.work(dt, window)
            res.item(dt, window)
            if cert is not None:
                ok = ok and cert.coloring.palette_size <= cert.budget == 2 * cert.omega
                res.palette.append(cert.coloring.palette_size / cert.budget)
            if not ok:
                res.failed += 1
                failures.append(graph6_encode(g))
            if i < len(pool):
                certs.append(cert)
        res.items = len(res.latencies)
        res.peak_rss_mb = _self_rss_mb()
        res.calibrate(speed)
        res.checks.append(("every certificate passes check_certificate", not failures,
                           f"{len(failures)} bad, first {failures[:3]}"))
        done = [c for c in certs if c is not None]
        for cert in done:
            _tally_certificate(res, cert)
        res.digest = _sha256(certificate_to_json(c) for c in done)
        res.notes.append(f"pool of {len(pool)} members; digest over the certificates of "
                         f"the first pass ({len(done)} members)")
        if tracer is not None:
            for i, (g, cert) in enumerate(zip(pool, certs)):
                if cert is not None:
                    tracer.item = i
                    _probe_member(tracer, g, cert, oracle=True)
        return res

    def layers(self, tracer: Tracer, res: Result) -> dict:
        return colorer_layers(tracer)


# -- dense_sampling -----------------------------------------------------------


class DenseSampling:
    name = "dense_sampling"
    item = "draw"
    P = 0.9
    SIZES = (13, 14, 15, 16)
    CALLS = 4096  # seeds per size; about ten times what a run uses today
    PREFIX = 2  # calls per size whose members are hashed and counted by branch

    def setup(self, seed: int, cap: int | None):
        rng = random.Random(seed)
        seeds = {}
        for n in self.SIZES:
            yield
            seeds[n] = [rng.getrandbits(63) for _ in range(self.CALLS)]
        return seeds

    def warm(self, seeds) -> None:
        sample_class(self.SIZES[0], self.P, 1, 0)

    def run(self, seeds, seconds: float, cap: int | None, speed: SpeedClock,
            tracer: Tracer | None = None) -> Result:
        """Each call goes to the size with the least wall time spent so far, so
        every size gets an equal share of the run whatever the luck of the
        draws; each size takes its seeds in order.

        A draw's latency runs from its ``random_graph`` call to the next
        one, or to the end of the call for the last draw, so the draws of a
        call split its time.  The benchmark stamps the clock at each
        ``random_graph`` call through the module namespace, as the traced
        run wraps it, and lets the speed clock open a new window there
        too, because one n=16 call can last longer than a window; a probe
        made there is left out of the draw's time.  Should the sampler
        stop calling ``random_graph`` there, each call's time is split
        evenly over its draws, all in one window."""
        res = Result()
        clock = time.perf_counter
        spent = dict.fromkeys(self.SIZES, 0.0)
        members = {n: [] for n in self.SIZES}
        draws = 0
        sample = sample_class
        if tracer is not None:
            sample = tracer.wrap("cli.sample_class", sample_class)
        call_ms = []
        uneven = 0  # calls whose draws could not be told apart
        wrapped = self._wrapped(tracer)
        make_graph = wrapped.get("random_graph", cli.random_graph)
        stamps = []  # (clock, probing time so far, speed window) per draw

        def stamped(*args):
            window = speed.window()
            stamps.append((clock(), speed.probe_s, window))
            return make_graph(*args)

        wrapped["random_graph"] = stamped
        with patched(cli, **wrapped):
            for i in itertools.count():
                if res.wall >= seconds or (cap and draws >= cap):
                    break
                n = min(self.SIZES, key=spent.__getitem__)
                if len(members[n]) == self.CALLS:
                    res.notes.append(f"ran out of seeds at n={n}")
                    break
                window = speed.window()
                if tracer is not None:
                    tracer.item = i
                stamps.clear()
                start = (clock(), speed.probe_s, window)
                graphs, stats = sample(n, self.P, 1, seeds[n][len(members[n])])
                end = (clock(), speed.probe_s, None)
                if len(stamps) == stats.drawn:
                    bounds = [start, *stamps[1:], end]
                else:
                    uneven += 1
                    (t0, p0, _), (t1, p1, _) = start, end
                    step = (t1 - t0 - (p1 - p0)) / stats.drawn
                    bounds = [(t0 + k * step, p0, window) for k in range(stats.drawn + 1)]
                call_s = 0.0
                for (a, pa, k), (b, pb, _) in zip(bounds, bounds[1:]):
                    dt = b - a - (pb - pa)
                    res.work(dt, k)
                    res.item(dt, k)
                    call_s += dt
                spent[n] += call_s
                call_ms.append(call_s * 1e3)
                draws += stats.drawn
                members[n].append((graphs, stats))
        res.items = draws
        res.peak_rss_mb = _self_rss_mb()
        res.calibrate(speed)

        failures = []
        prefix = []
        for n, calls in members.items():
            for k, (graphs, stats) in enumerate(calls):
                ok = len(graphs) == stats.accepted == 1 and graphs[0].n == n
                if ok:
                    g = graphs[0]
                    ok = class_membership(g).member
                    try:
                        cert = color_bounded(g)
                        ok = ok and bool(check_certificate(g, cert))
                        res.palette.append(cert.coloring.palette_size / cert.budget)
                        if k < self.PREFIX:
                            prefix.append(graph6_encode(g))
                            _tally_certificate(res, cert)
                    except ColorerError:
                        ok = False
                if not ok:
                    res.failed += 1
                    failures.append((n, k))
        res.checks.append(("every accepted draw is a member whose certificate checks",
                           not failures, f"{len(failures)} bad, first {failures[:3]}"))
        res.digest = _sha256(prefix)
        res.notes.append(f"digest over the members of the first {self.PREFIX} calls per size")
        accepted = len(call_ms)
        res.notes.append(
            f"{accepted} accepted members from {draws} draws in {res.elapsed:.2f} calibrated s "
            f"({accepted / res.elapsed:.2f} members/s, median call "
            f"{sorted(call_ms)[len(call_ms) // 2] if call_ms else 0:.1f} ms of wall clock); "
            "not gated: the draws per member are luck, not speed"
        )
        res.notes.append("seconds per size " + " ".join(f"n={n}:{t:.2f}" for n, t in spent.items()))
        if uneven:
            res.notes.append(f"{uneven} calls made a draw without cli.random_graph; "
                             "their time was split evenly over their draws")
        return res

    @staticmethod
    def _wrapped(tracer: Tracer | None) -> dict:
        if tracer is None:
            return {}
        return dict(
            random_graph=tracer.wrap("cli.random_graph", cli.random_graph),
            is_class_member=tracer.wrap("patterns.is_class_member", is_class_member, bool),
        )

    def layers(self, tracer: Tracer, res: Result) -> dict:
        out = colorer_layers(tracer)
        draws = len(tracer.durations("cli.random_graph"))
        calls = len(tracer.durations("cli.sample_class"))
        out["cli.random_graph.us"] = tracer.mean_us("cli.random_graph")
        out["cli.sample_class.draws"] = draws
        out["cli.sample_class.accept_ratio"] = calls / draws if draws else 0.0
        return out


# -- witness_cli --------------------------------------------------------------


class WitnessCli:
    name = "witness_cli"
    item = "invocation"

    def __init__(self, root: Path):
        self.root = root
        self.path = root / ".perfbench" / "witnesses.g6"
        env = dict(os.environ)
        env.pop("TWOOMEGA_WORKERS", None)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def _cli(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=60,
        )

    def setup(self, seed: int, cap: int | None):
        graphs = [groetzsch(), schlafli_complement()]
        yield
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # write then rename, so an invocation never reads a half-written file
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        tmp.write_text("".join(graph6_encode(g) + "\n" for g in graphs), encoding="ascii")
        os.replace(tmp, self.path)
        return [(g, clique_number(g)[0]) for g in graphs]

    def warm(self, graphs) -> None:
        self._cli("-m", "twoomega.cli", "color", str(self.path))

    def _check_output(self, proc, graphs) -> str | None:
        """None when the invocation's certificates all check, else why not."""
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        lines = proc.stdout.splitlines()
        if len(lines) != len(graphs):
            return f"{len(lines)} certificates for {len(graphs)} graphs"
        for line, (g, omega) in zip(lines, graphs):
            try:
                cert = json.loads(line)
            except json.JSONDecodeError:
                return f"not a JSON certificate: {line[:80]!r}"
            colors = cert["colors"]
            if len(colors) != g.n or min(colors, default=1) < 1:
                return "coloring does not cover the graph"
            if any(colors[u] == colors[v] for u, v in g.edges()):
                return "coloring is not proper"
            if cert["omega"] != omega or cert["budget"] != 2 * omega:
                return "omega or budget is wrong"
            if max(colors, default=0) > cert["budget"]:
                return "palette exceeds budget"
        return None

    def run(self, graphs, seconds: float, cap: int | None, speed: SpeedClock,
            tracer: Tracer | None = None) -> Result:
        res = Result()
        clock = time.perf_counter
        failures = []
        first = None
        run = self._cli if tracer is None else tracer.wrap("cli.invocation", self._cli)
        for i in itertools.count():
            if res.wall >= seconds or i == cap:
                break
            window = speed.window()
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                proc = run("-m", "twoomega.cli", "color", str(self.path))
                why = None
            except subprocess.TimeoutExpired:
                why = "no exit within 60 s"
            dt = clock() - t0
            res.work(dt, window)
            res.item(dt, window)
            why = why or self._check_output(proc, graphs)
            if why is not None:
                res.failed += 1
                failures.append(why)
            else:
                certs = [json.loads(line) for line in proc.stdout.splitlines()]
                res.palette.extend(max(c["colors"]) / c["budget"] for c in certs)
                if first is None:
                    first = proc.stdout
                    for c in certs:
                        res.branches[c["branch"]] += 1
                        for part in c["parts"]:
                            res.parts[part["strategy"]] += 1
            if tracer is not None:
                # traced runs probe the layers between invocations, untimed
                self._probe(tracer, graphs)
        res.items = len(res.latencies)
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        res.calibrate(speed)
        res.checks.append(("every invocation exits 0 with checked certificates",
                           not failures, f"{len(failures)} bad, first {failures[:2]}"))
        res.digest = _sha256([first or ""])
        res.notes.append("digest over the first invocation's stdout; peak RSS is the "
                         "largest child process")
        return res

    def _probe(self, tracer: Tracer, graphs) -> None:
        """One round of the layer probes: bare interpreter, package import,
        and the in-process pipeline of `twoomega color` on each witness."""
        tracer.call("cli.interpreter", self._cli, "-c", "pass")
        tracer.call("cli.import", self._cli, "-c", "import twoomega.cli")
        for line in self.path.read_text(encoding="ascii").split():
            g = tracer.call("graphs.graph6_decode", graph6_decode, line)
            cert = tracer.call("colorer.color_bounded", color_bounded, g,
                               tag_fn=lambda c: c.trace.branch_id)
            tracer.call("colorer.check_certificate", check_certificate, g, cert)
            tracer.call("graphs.graph6_encode", graph6_encode, g)
            _probe_member(tracer, g, cert, oracle=True)

    def layers(self, tracer: Tracer, res: Result) -> dict:
        out = colorer_layers(tracer)
        interp = tracer.mean_us("cli.interpreter") / 1e3
        imported = tracer.mean_us("cli.import") / 1e3
        invocation = tracer.mean_us("cli.invocation") / 1e3
        out["cli.interpreter_ms"] = interp
        out["cli.import_ms"] = imported - interp
        out["cli.compute_ms"] = invocation - imported
        return out


NAMES = ("n7_scan", "sampled_members", "dense_sampling", "witness_cli")


def make(name: str, root: Path):
    if name == "witness_cli":
        return WitnessCli(root)
    return {"n7_scan": N7Scan, "sampled_members": SampledMembers,
            "dense_sampling": DenseSampling}[name]()
