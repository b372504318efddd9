"""One workload process: set up, run timed or traced ops, check them.

Started by run.py as a fresh single-threaded process.  It writes
``READY`` on stdout when set-up is done (run.py times set-up up to that
line), then one JSON line with the raw results.  With --setup-only it
exits right after ``READY``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Every op gets the same deadline.  It is about ten times the slowest
# healthy op, and it bounds a run at --seconds plus one deadline.
DEADLINE_S = 30.0
PINS = Path(__file__).resolve().parent / "pins.json"


class DeadlineExceeded(Exception):
    pass


class CheckFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"op passed its {DEADLINE_S:g} s deadline")


def import_ppmatch() -> tuple[dict, float]:
    """Import the library from this checkout's src/ and nowhere else."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ppmatch
    from ppmatch import (bipartite, errors, experiments, graphs, matching,
                         order, processes, radii, seeds)
    dt = time.perf_counter() - t0
    got = Path(ppmatch.__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise ImportError(f"ppmatch imported from {got}, not from {SRC}")
    mods = dict(bipartite=bipartite, errors=errors, experiments=experiments,
                graphs=graphs, matching=matching, order=order,
                processes=processes, radii=radii, seeds=seeds)
    return mods, dt


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _feed(h, a) -> None:
    import numpy as np
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def pipeline_digest(res, tail) -> str:
    """sha256 over both radius fields, the match graph's edges, the
    order ranks, the matching pairs and the tail row."""
    h = hashlib.sha256()
    for f in (res.field_left, res.field_right):
        for a in (f.values, f.clause, f.censored):
            _feed(h, a)
    g = res.graph
    for a in (g.left_vertex, g.left_slot, g.right_vertex, g.right_slot,
              g.indptr_left, g.indices_left, g.tags_left):
        _feed(h, a)
    _feed(h, res.order.vertex_rank)
    _feed(h, res.ranks)
    _feed(h, res.matching.matchL)
    vals, base = tail
    _feed(h, vals)
    h.update(str(int(base)).encode())
    return h.hexdigest()


def check_matching(mods, g, m, expected_size=None) -> int:
    """Structural checks on one matching; returns the oracle's size."""
    try:
        m.assert_valid()
    except mods["errors"].ContractViolationError as exc:
        raise CheckFailed(f"assert_valid: {exc}") from exc
    size = expected_size
    if size is None:
        size = mods["matching"].hopcroft_karp(g)[0]
    if m.size != size:
        raise CheckFailed(f"matching size {m.size} != Hopcroft-Karp {size}")
    return size


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class TreeMatch:
    """A fresh 3-regular tree window and one matching pipeline per op,
    with the CLI defaults (r0=4, support mode, degenerate left, Poisson
    right, margin 4)."""

    def __init__(self, mods, seed, depth):
        self.mods, self.seed, self.depth = mods, seed, depth
        ex = mods["experiments"]
        self.cfg = ex.PipelineConfig(r0=4)
        spec = mods["processes"].ProcessSpec
        self.left, self.right = spec.degenerate(), spec.poisson()
        self.tail_radii = list(range(0, 4 + 1))

    def op(self, k, seed=None):
        g = self.mods["graphs"]
        w = g.build_window(g.GraphFamily.regular_tree(3), self.depth, 4)
        trial = self.mods["seeds"].derive_seed(
            self.seed if seed is None else seed, "trial", k)
        return self.mods["experiments"].run_matching_pipeline(
            w, self.left, self.right, trial, self.cfg)

    def check(self, res) -> str:
        check_matching(self.mods, res.graph, res.matching)
        tail = self.mods["experiments"].tail_row(res, self.tail_radii)
        return pipeline_digest(res, tail)


class TorusTail:
    """`ppmatch tail` trials on one shared explicit L x L torus window:
    pipeline plus tail row per trial, r0=2, Poisson on both sides."""

    def __init__(self, mods, seed, side):
        self.mods, self.seed = mods, seed
        g, ex = mods["graphs"], mods["experiments"]
        adj = [
            [((x + dx) % side) * side + (y + dy) % side
             for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            for x in range(side) for y in range(side)
        ]
        self.window = g.build_window(g.GraphFamily.explicit(adj), 0, 4)
        self.cfg = ex.PipelineConfig(r0=2)
        poisson = mods["processes"].ProcessSpec.poisson()
        self.left = self.right = poisson
        self.tail_radii = list(range(0, 4 + 1))

    def op(self, k, seed=None):
        ex = self.mods["experiments"]
        trial = self.mods["seeds"].derive_seed(
            self.seed if seed is None else seed, "trial", k)
        res = ex.run_matching_pipeline(
            self.window, self.left, self.right, trial, self.cfg)
        return res, ex.tail_row(res, self.tail_radii)

    def check(self, out) -> str:
        res, tail = out
        check_matching(self.mods, res.graph, res.matching)
        return pipeline_digest(res, tail)


def local_graph(mods, rng, n, reach):
    """Points on a line, n per side at unit density; a left and a right
    point are joined when they lie within `reach` (mean degree 2*reach).
    Ranks are a random permutation."""
    import numpy as np
    x = np.sort(rng.uniform(0, n, n))
    y = np.sort(rng.uniform(0, n, n))
    lo = np.searchsorted(y, x - reach)
    hi = np.searchsorted(y, x + reach, side="right")
    edges = [(i, j) for i in range(n) for j in range(lo[i], hi[i])]
    ids = np.arange(n)
    g = mods["bipartite"].graph_from_point_edges(ids, ids, edges)
    return g, rng.permutation(2 * n)


def path_graph(mods, n):
    """Edges L_i-R_i and L_{i+1}-R_i.  Ranks R_0 < L_1 < R_1 < ... <
    L_{n-1} < R_{n-1} < L_0 make stage 1 pair L_{i+1} with R_i, which
    leaves one augmenting chain through the whole path."""
    import numpy as np
    edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
    ids = np.arange(n)
    g = mods["bipartite"].graph_from_point_edges(ids, ids, edges)
    seq = []
    for i in range(n - 1):
        seq += [n + i, i + 1]
    seq += [2 * n - 1, 0]
    ranks = np.empty(2 * n, dtype=np.int64)
    ranks[np.asarray(seq)] = np.arange(2 * n)
    return g, ranks


class MatcherSynthetic:
    """matching.run on prebuilt point graphs, bypassing every window
    layer.  One op solves one local random graph (cycling through
    `n_local` of them) and the long path."""

    def __init__(self, mods, seed, n_local, side, reach, path_n):
        import numpy as np
        self.mods = mods
        self.graphs = []
        if n_local:
            rng = np.random.default_rng([seed, 0x6d61746368])
            self.graphs = [local_graph(mods, rng, side, reach)
                           for _ in range(n_local)]
        self.path = path_graph(mods, path_n)
        self.n_local = n_local
        self._oracle: dict[int, int] = {}

    def instances(self, k):
        local = [self.graphs[k % self.n_local]] if self.n_local else []
        return local + [self.path]

    def op(self, k, seed=None):
        run = self.mods["matching"].run
        return [(g, run(g, ranks)[0]) for g, ranks in self.instances(k)]

    def check(self, out) -> None:
        for g, m in out:
            self._oracle[id(g)] = check_matching(
                self.mods, g, m, self._oracle.get(id(g)))


# name -> (factory, full-size kwargs, smoke kwargs).  The first three are
# the benchmark's workloads; the last two are the failing baselines that
# BENCHMARK.json leaves out, because every op fails there today.
WORKLOADS = {
    "match-tree-d10": (TreeMatch, dict(depth=10), dict(depth=5)),
    "tail-torus": (TorusTail, dict(side=24), dict(side=8)),
    "matcher-synthetic": (
        MatcherSynthetic,
        dict(n_local=4, side=2800, reach=1.5, path_n=400),
        dict(n_local=2, side=200, reach=1.5, path_n=40),
    ),
    "match-tree-d11": (TreeMatch, dict(depth=11), dict(depth=6)),
    "matcher-path-1200": (
        MatcherSynthetic,
        dict(n_local=0, side=0, reach=0, path_n=1200),
        dict(n_local=0, side=0, reach=0, path_n=60),
    ),
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _run_op(fn):
    """Run fn under the deadline; return (result, seconds, error name)."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        return fn(), time.perf_counter() - t0, None
    except DeadlineExceeded:
        return None, time.perf_counter() - t0, "deadline"
    except Exception as exc:  # any raise fails the op; the run goes on
        return None, time.perf_counter() - t0, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _check(wl, out):
    """(digest or None, failure name or None), outside the timed region."""
    try:
        return wl.check(out), None
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return None, "check"


def _reference(wl, name, smoke, first_digest, seed):
    """Compare the digest of op 0 under the default seed with its pin."""
    key = f"{'smoke/' if smoke else ''}{name}"
    pins = json.loads(PINS.read_text())
    pin = pins.get(key)
    if pin is None:
        return {"digest": first_digest, "pinned": None, "ok": True}
    digest = first_digest if seed == DEFAULT_SEED else None
    if digest is None:
        out, _, err = _run_op(lambda: wl.op(0, seed=DEFAULT_SEED))
        if err is None:
            digest, _ = _check(wl, out)
    return {"digest": digest, "pinned": pin, "ok": digest == pin}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods, import_s = import_ppmatch()
    factory, full, toy = WORKLOADS[args.workload]
    wl = factory(mods, args.seed, **(toy if args.smoke else full))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)

    from tracing import Tracer
    tracer = Tracer(mods) if args.trace else None

    def plain(k):
        return _run_op(lambda: wl.op(k))

    def traced(k):
        tracer.install()
        try:
            return _run_op(lambda: tracer.op(lambda: wl.op(k)))
        finally:
            tracer.uninstall()

    times, errors, first_digest = [], {}, None
    untraced_s, untraced_ok = 0.0, 0
    attempted = failed = check_failures = 0
    budget_used = 0.0
    k = 0
    while budget_used < args.seconds:
        if tracer is None:
            out, dt, err = plain(k)
        else:
            # Pair each traced op with an untraced run of the same op,
            # alternating which goes first, for the overhead figure.
            if k % 2:
                out, dt, err = traced(k)
                _, plain_dt, plain_err = plain(k)
            else:
                _, plain_dt, plain_err = plain(k)
                out, dt, err = traced(k)
            untraced_s += plain_dt
            untraced_ok += plain_err is None
            budget_used += plain_dt
        budget_used += dt
        attempted += 1
        if err is None:
            digest, err = _check(wl, out)
            check_failures += err is not None
            if err is None and k == 0:
                first_digest = digest
        if err is None:
            times.append(dt)
        else:
            failed += 1
            errors[err] = errors.get(err, 0) + 1
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_s = budget_used - untraced_s

    ref = _reference(wl, args.workload, args.smoke, first_digest, args.seed)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": check_failures == 0 and ref["ok"],
        "errors": errors,
        "op_times_s": times,
        "ops_s": all_s,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "reference": ref,
    }
    if tracer is not None:
        layer = tracer.per_op(attempted)
        layer["import_s"] = import_s
        ops_traced = len(times) / all_s if all_s > 0 else 0.0
        ops_plain = untraced_ok / untraced_s if untraced_s > 0 else 0.0
        layer["trace.ops_per_s_traced"] = ops_traced
        layer["trace.ops_per_s_untraced"] = ops_plain
        layer["trace.overhead_ops_per_s"] = ops_plain - ops_traced
        result["per_layer"] = layer
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
