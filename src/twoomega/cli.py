"""Command-line front end and corpus engine.

Subcommands: ``check`` (class membership report), ``color`` (coloring
certificate), ``oracle`` (exact omega and chi), ``witness`` (built-in
tightness witnesses), ``scan`` (exhaustive small-n verification) and
``sample`` (seeded rejection sampling of class members).  Data goes to
stdout, diagnostics to stderr; exit code 0 on success, 1 when a violation
or out-of-class input is found, 2 on usage or parse errors.

The random generator is splitmix64 over the seed; a graph on n vertices
consumes one 64-bit word per vertex pair in lexicographic order (0,1),
(0,2), ..., (n-2,n-1), and the edge is present when the word is below
p * 2^64.  Seeds are therefore portable across implementations.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields

from .colorer import (
    ColorerError,
    NotInClass,
    certificate_to_json,
    check_certificate,
    color_bounded,
)
from .graphs import Graph, GraphParseError, _graph_nocheck, graph6_encode, parse_graph6_lines
from .oracles import chromatic_number, clique_number
from .patterns import class_membership, is_class_member
from .witnesses import EXPECTED_REPORTS, WITNESS_BUILDERS, verify_witness


@dataclass
class RunConfig:
    oracle: bool = False
    assert_proofs: bool = False
    workers: int = 1


@dataclass
class CorpusRecord:
    graph6: str
    n: int
    omega: int
    chi: int | None
    colors_used: int
    branch: str
    ok: bool
    millis: float


@dataclass
class ScanSummary:
    graphs_seen: int = 0
    members: int = 0
    violations: int = 0
    branch_histogram: dict = field(default_factory=dict)


CSV_FIELDS = [f.name for f in fields(CorpusRecord)]


# -- deterministic RNG --------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: x += 0x9E3779B97F4A7C15; mix with shifts/multiplies."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def random_graph(n: int, p: float, rng: SplitMix64) -> Graph:
    """One G(n, p) draw, consuming one word per pair in lexicographic order."""
    threshold = int(p * (1 << 64))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next() < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _graph_nocheck(n, tuple(rows))


@dataclass
class SampleStats:
    drawn: int = 0
    accepted: int = 0

    @property
    def rejection_rate(self) -> float:
        return 1.0 - self.accepted / self.drawn if self.drawn else 0.0


class SampleGiveUp(RuntimeError):
    pass


_GIVE_UP_WINDOW = 1_000_000


def sample_class(n: int, p: float, count: int, seed: int):
    """Rejection-sample ``count`` class members from G(n, p); deterministic
    under the seed.  Returns (graphs, stats); gives up if the acceptance
    rate over a million draws falls below 1e-6."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 < p < 1:
        raise ValueError("edge probability must be strictly between 0 and 1")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = SplitMix64(seed)
    stats = SampleStats()
    out: list[Graph] = []
    window = 0
    while len(out) < count:
        g = random_graph(n, p, rng)
        stats.drawn += 1
        window += 1
        if is_class_member(g):
            out.append(g)
            stats.accepted += 1
            window = 0
        elif window >= _GIVE_UP_WINDOW:
            raise SampleGiveUp(
                f"acceptance rate below 1e-6 at n={n}, p={p}: "
                f"{stats.accepted}/{stats.drawn} accepted"
            )
    return out, stats


# -- scan ---------------------------------------------------------------------

_PAIRS = {n: [(i, j) for i in range(n) for j in range(i + 1, n)] for n in range(8)}

SCAN_MAX_N = 7


def _graph_from_mask(n: int, mask: int) -> Graph:
    rows = [0] * n
    t = 0
    pairs = _PAIRS[n]
    while mask:
        if mask & 1:
            i, j = pairs[t]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        mask >>= 1
        t += 1
    return _graph_nocheck(n, tuple(rows))


def _process_member(g: Graph, cfg: RunConfig) -> CorpusRecord:
    t0 = time.perf_counter()
    try:
        cert = color_bounded(g, assert_proofs=cfg.assert_proofs)
        ok = bool(check_certificate(g, cert))
        clique = cert.clique if ok else None  # a checked witness spares the oracle its search
        used = cert.coloring.palette_size
        omega = cert.omega
        branch = cert.trace.branch_id
        ok = ok and used <= 2 * omega
    except ColorerError:
        cert = None
        ok = False
        used = 0
        branch = "error"
        omega, clique = clique_number(g)
    chi = None
    if cfg.oracle:
        chi = chromatic_number(g, clique=clique).chi
        if chi is not None and chi > 2 * omega:
            ok = False
    millis = (time.perf_counter() - t0) * 1000.0
    return CorpusRecord(
        graph6=graph6_encode(g),
        n=g.n,
        omega=omega,
        chi=chi,
        colors_used=used,
        branch=branch,
        ok=ok,
        millis=round(millis, 3),
    )


def _scan_chunk(args) -> tuple[list[CorpusRecord], ScanSummary]:
    n, lo, hi, cfg = args
    records, summary = scan_stream((_graph_from_mask(n, m) for m in range(lo, hi)), cfg)
    return list(records), summary


def scan_exhaustive(n: int, cfg: RunConfig | None = None):
    """Color-and-verify every labeled n-vertex class member.

    Returns (records, summary) like scan_stream.  Built-in generation is
    capped at n=7 (2^21 labeled graphs); feed larger graphs through
    scan_stream.  With ``cfg.workers > 1`` a process pool scans chunks of
    the mask range, and the summary fills in one chunk at a time.
    """
    cfg = cfg or RunConfig()
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > SCAN_MAX_N:
        raise ValueError(
            f"exhaustive generation is capped at n={SCAN_MAX_N}; "
            f"stream graph6 input for larger n"
        )
    total = 1 << (n * (n - 1) // 2)
    workers = max(1, cfg.workers)
    if workers == 1 or total < 1 << 10:
        return scan_stream((_graph_from_mask(n, m) for m in range(total)), cfg)
    summary = ScanSummary()

    def run():
        import multiprocessing as mp

        # pool.imap keeps chunk order, so records stay in input order
        chunk = max(1 << 8, total // (workers * 16))
        ranges = [(n, lo, min(lo + chunk, total), cfg) for lo in range(0, total, chunk)]
        hist = summary.branch_histogram
        with mp.Pool(workers) as pool:
            for recs, part in pool.imap(_scan_chunk, ranges):
                summary.graphs_seen += part.graphs_seen
                summary.members += part.members
                summary.violations += part.violations
                for branch, count in part.branch_histogram.items():
                    hist[branch] = hist.get(branch, 0) + count
                yield from recs

    return run(), summary


def scan_stream(graphs, cfg: RunConfig | None = None):
    """Color-and-verify the class members of an iterable of graphs.

    Returns (records, summary): ``records`` is a generator of CorpusRecord
    in input order, and ``summary`` counts each graph as the generator
    pulls it from ``graphs`` (complete after exhaustion).
    """
    cfg = cfg or RunConfig()
    summary = ScanSummary()
    hist = summary.branch_histogram

    def run():
        for g in graphs:
            summary.graphs_seen += 1
            if not is_class_member(g):
                continue
            rec = _process_member(g, cfg)
            summary.members += 1
            hist[rec.branch] = hist.get(rec.branch, 0) + 1
            if not rec.ok:
                summary.violations += 1
            yield rec

    return run(), summary


# -- emitters -----------------------------------------------------------------


def _record_dict(rec: CorpusRecord) -> dict:
    return {k: getattr(rec, k) for k in CSV_FIELDS}


def emit_records(records, fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(_record_dict(rec), separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(out)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            d = _record_dict(rec)
            writer.writerow(["" if d[k] is None else d[k] for k in CSV_FIELDS])


# -- CLI ----------------------------------------------------------------------


def _read_graphs(path: str):
    # undecodable bytes reach graph6_decode, which names the line
    stream = sys.stdin if path == "-" else open(path, encoding="ascii", errors="surrogateescape")
    try:
        yield from parse_graph6_lines(stream)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twoomega",
        description="Bounded coloring of (p3up2, w4)-free graphs with certificates",
    )
    sub = ap.add_subparsers(dest="mode", required=True)

    p_check = sub.add_parser("check", help="class membership report per input graph")
    p_check.add_argument("input", help="graph6 file, or - for stdin")

    p_color = sub.add_parser("color", help="coloring certificate per input graph")
    p_color.add_argument("input", help="graph6 file, or - for stdin")
    p_color.add_argument("--strict", action="store_true",
                         help="reject graphs outside the class")
    p_color.add_argument("--assert-proofs", action="store_true",
                         help="verify every structural claim of the fired branch")

    p_oracle = sub.add_parser("oracle", help="exact omega and chi per input graph")
    p_oracle.add_argument("input", help="graph6 file, or - for stdin")

    p_wit = sub.add_parser("witness", help="emit a built-in tightness witness")
    p_wit.add_argument("name", choices=sorted(WITNESS_BUILDERS))
    p_wit.add_argument("--verify", action="store_true",
                       help="recompute the report instead of using pinned values")

    p_scan = sub.add_parser("scan", help="exhaustive verification over all labeled graphs")
    source = p_scan.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int, help="vertex count for built-in generation (<= 7)")
    source.add_argument("--input", help="graph6 stream instead of built-in generation")
    p_scan.add_argument("--oracle", action="store_true", help="also compute exact chi")
    p_scan.add_argument("--assert-proofs", action="store_true")
    p_scan.add_argument("--format", choices=["json", "csv"], default="json")
    p_scan.add_argument("--summary-only", action="store_true",
                        help="suppress per-member records")

    p_sample = sub.add_parser("sample", help="rejection-sample class members")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--p", type=float, required=True)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=1)
    return ap


def cli_main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SampleGiveUp, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    out = sys.stdout
    if args.mode == "check":
        worst = 0
        for g in _read_graphs(args.input):
            report = class_membership(g)
            obj = {
                "member": report.member,
                "violations": [
                    {"pattern": v.pattern_id, "map": list(v.map)}
                    for v in report.violations
                ],
            }
            out.write(json.dumps(obj, separators=(",", ":")) + "\n")
            if not report.member:
                worst = 1
        return worst

    if args.mode == "color":
        for g in _read_graphs(args.input):
            try:
                cert = color_bounded(
                    g, strict=args.strict, assert_proofs=args.assert_proofs
                )
            except NotInClass as exc:
                print(f"not in class: {exc}", file=sys.stderr)
                return 1
            except ColorerError as exc:
                print(f"coloring failed: {exc}", file=sys.stderr)
                return 1
            check = check_certificate(g, cert)
            if not check:
                print(f"certificate failed independent check: {check.failure}",
                      file=sys.stderr)
                return 1
            out.write(certificate_to_json(cert) + "\n")
        return 0

    if args.mode == "oracle":
        for g in _read_graphs(args.input):
            res = chromatic_number(g)
            obj = {"n": g.n, "omega": len(res.clique), "chi": res.chi, "clique": list(res.clique)}
            out.write(json.dumps(obj, separators=(",", ":")) + "\n")
        return 0

    if args.mode == "witness":
        g = WITNESS_BUILDERS[args.name]()
        expected = EXPECTED_REPORTS[args.name]
        if args.verify:
            report, mismatches = verify_witness(g, expected)
            if mismatches:
                print(f"witness mismatch on fields: {mismatches}", file=sys.stderr)
                return 1
        else:
            report = expected
        out.write(graph6_encode(g) + "\n")
        obj = {
            "name": report.name,
            "n": report.n,
            "m": report.m,
            "class_member": report.class_member,
            "omega": report.omega,
            "chi": report.chi,
            "bound_tight": report.bound_tight,
        }
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")
        return 0

    if args.mode == "scan":
        raw = os.environ.get("TWOOMEGA_WORKERS", "1")
        workers = int(raw) if raw.isascii() and raw.isdigit() else 0
        if workers < 1:
            raise ValueError(f"TWOOMEGA_WORKERS must be a positive integer, got {raw!r}")
        cfg = RunConfig(oracle=args.oracle, assert_proofs=args.assert_proofs, workers=workers)
        if args.n is None:
            records, summary = scan_stream(_read_graphs(args.input), cfg)
        else:
            records, summary = scan_exhaustive(args.n, cfg)
        violation = []

        def through_first_violation():
            for rec in records:
                yield rec
                if not rec.ok:
                    violation.append(rec)
                    return

        if args.summary_only:
            for _ in through_first_violation():
                pass
        else:
            emit_records(through_first_violation(), args.format, out)
        out.write(json.dumps({
            "graphs_seen": summary.graphs_seen,
            "members": summary.members,
            "violations": summary.violations,
            "branch_histogram": dict(sorted(summary.branch_histogram.items())),
        }, separators=(",", ":")) + "\n")
        if violation:
            print(f"violation reproducer: {violation[0].graph6}", file=sys.stderr)
            return 1
        return 0

    if args.mode == "sample":
        graphs, stats = sample_class(args.n, args.p, args.count, args.seed)
        for g in graphs:
            out.write(graph6_encode(g) + "\n")
        print(
            f"drawn={stats.drawn} accepted={stats.accepted} "
            f"rejection_rate={stats.rejection_rate:.4f} seed={args.seed}",
            file=sys.stderr,
        )
        return 0

    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
