"""Outside-in tracer: wraps lmlab's public functions from outside the package.

Nothing inside ``src/`` knows about it.  ``Tracer.install`` replaces each
target function by a wrapper that records one span per call, and does so at
every place that binds the function: its defining module or class, every
``from .groebner import ...`` re-binding in another lmlab module, and class
aliases such as ``Polynomial.__rmul__ = __mul__``.  ``uninstall`` puts the
originals back.

A span is (name, start, end, parent) and stays in memory, in flat arrays,
until the run ends.  Self time is a span's duration minus the time its direct
child spans cover; total time of a name counts only its outermost spans, so
recursion is not counted twice.

Worker processes that lmlab's suite forks while the tracer is installed
inherit the wrappers.  Given a ``worker_dir``, each such worker starts with
no spans and, when it exits, leaves its totals there as one JSON file;
``metrics`` adds them to the parent's.  Workers started by ``spawn`` or
``forkserver`` import lmlab afresh and are not traced.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import pkgutil
from array import array
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("poly", "Polynomial.__mul__"),
    ("poly", "Polynomial.evaluate"),
    ("poly", "RingMap.apply"),
    ("poly", "minors"),
    ("poly", "jacobian"),
    ("groebner", "buchberger"),
    ("groebner", "reduce_poly"),
    ("groebner", "Ideal.gb"),
    ("groebner", "eliminate"),
    ("groebner", "quotient"),
    ("groebner", "intersect"),
    ("groebner", "krull_dim"),
    ("groebner", "ideal_contains"),
    ("groebner", "ideal_equal"),
    ("groebner", "ideal_member"),
    ("groebner", "radical_member"),
    ("lattice", "normal_form"),
    ("localmodel", "build_naive_chart_ideal"),
    ("localmodel", "build_U_ideals"),
    ("localmodel", "build_DT_ideal"),
    ("localmodel", "block_substitution"),
    ("localmodel", "verify_presentation"),
    ("localmodel", "verify_annihilator"),
    ("localmodel", "flatness_and_dimension"),
    ("quadric", "build_linked_chart_ideal"),
    ("quadric", "build_basic_scheme"),
    ("quadric", "verify_linked_chart"),
    ("quadric", "verify_fiber_decomposition"),
    ("quadric", "verify_divisor_multiplicities_on_blowup_charts"),
    ("blowup", "build_B_blowup_charts"),
    ("blowup", "build_DT_blowup_chart"),
    ("blowup", "build_M_chart"),
    ("blowup", "chart_match"),
    ("blowup", "exceptional_locus"),
    ("blowup", "linking_multipliers"),
    ("verify", "model_target_for_chart"),
    ("verify", "smooth_over_model"),
    ("suite", "run_check"),
    ("suite", "run_suite"),
)

# Ideal operations whose time including callees is reported as .total_s.
TOTAL_TIME = frozenset(
    "groebner." + f
    for f in (
        "Ideal.gb",
        "eliminate",
        "quotient",
        "intersect",
        "krull_dim",
        "ideal_contains",
        "ideal_equal",
        "ideal_member",
        "radical_member",
    )
)

def metric_names():
    """Names of every metric ``Tracer.metrics`` returns, in output order."""
    names = []
    for mod, qual in TARGETS:
        name = mod + "." + qual
        names += [name + ".calls", name + ".self_s"]
        if name in TOTAL_TIME:
            names.append(name + ".total_s")
    names += [
        "groebner.buchberger.distinct_share",
        "groebner.buchberger.partial_share",
        "blowup.build_M_chart.distinct_share",
    ]
    return names


def _lmlab_modules():
    """Every module of the package, so that a new re-binding is found too."""
    import lmlab

    return [
        importlib.import_module("lmlab." + info.name)
        for info in pkgutil.iter_modules(lmlab.__path__)
    ]


def _buchberger_key(ideal, order=None, degree_bound=None, timeout_s=None):
    """(variables, order, sorted monic generators, degree bound), hashed."""
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    gens = sorted(str(g.cast(ring).monic()) for g in ideal.generators)
    key = (ring.variables, repr(ring.order), tuple(gens), degree_bound)
    return hashlib.sha1(repr(key).encode()).hexdigest()


def _m_chart_key(nf, s, t, timeout_s=None):
    return [nf.d, nf.delta, s, t]


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self, worker_dir=None):
        self.names = [m + "." + q for m, q in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._patches = []
        self._worker_dir = worker_dir
        # call arguments kept for the distinct-input ratios; keys are built
        # after the run so that building them costs no traced time
        self.buchberger_calls = []
        self.m_chart_calls = []

    def _wrap(self, fn, name_id, observe=None):
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = _lmlab_modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        observers = {
            "groebner.buchberger": lambda a, k, r: self.buchberger_calls.append(
                (a, k, r[1])
            ),
            "blowup.build_M_chart": lambda a, k, r: self.m_chart_calls.append(
                (a, k)
            ),
        }
        for name_id, (mod, qual) in enumerate(TARGETS):
            owner = by_name[mod]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name_id, observers.get(self.names[name_id]))
            self._rebind(modules, original, wrapper)
        if self._worker_dir is not None:
            mp_util.register_after_fork(self, Tracer._in_worker)
        return self

    def _rebind(self, modules, original, wrapper):
        """Point every binding of ``original`` in the package at ``wrapper``."""
        seen = set()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)
                elif (
                    isinstance(value, type)
                    and value.__module__.startswith("lmlab.")
                    and value not in seen
                ):
                    seen.add(value)
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patch(value, cattr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _in_worker(self):
        """After a fork: drop the parent's spans, write this worker's at exit."""
        if not self._patches:
            return
        # cleared in place: the installed wrappers hold these objects
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        self._stack.clear()
        self.buchberger_calls.clear()
        self.m_chart_calls.clear()
        mp_util.Finalize(self, self._write_worker_totals, exitpriority=0)

    def _write_worker_totals(self):
        path = Path(self._worker_dir) / ("worker-%d.json" % os.getpid())
        path.write_text(json.dumps(self._totals()))

    def _totals(self):
        """This process's per-function sums and distinct-input keys."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = [0.0] * len(names)
        for i in range(len(names)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = {self.names.index(x) for x in TOTAL_TIME}
        for i in range(len(names)):
            k = names[i]
            dur = ends[i] - starts[i]
            calls[k] += 1
            self_s[k] += dur - covered[i]
            if k in totals and not self._has_ancestor(i, k):
                total_s[k] += dur
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "buchberger": [
                [_buchberger_key(*a, **kw), partial] for a, kw, partial in self.buchberger_calls
            ],
            "m_chart": [_m_chart_key(*a, **kw) for a, kw in self.m_chart_calls],
        }

    def _has_ancestor(self, i, k):
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == k:
                return True
            p = self.span_parent[p]
        return False

    def metrics(self):
        """Per-function calls, self and total time, and the input ratios.

        Sums over this process and the traced workers that have exited,
        whose files are consumed.
        """
        parts = [self._totals()]
        if self._worker_dir is not None:
            for path in sorted(Path(self._worker_dir).glob("worker-*.json")):
                parts.append(json.loads(path.read_text()))
                path.unlink()
        out = {}
        totals = {self.names.index(x) for x in TOTAL_TIME}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = sum(p["calls"][k] for p in parts)
            out[name + ".self_s"] = sum(p["self_s"][k] for p in parts)
            if k in totals:
                out[name + ".total_s"] = sum(p["total_s"][k] for p in parts)
        bb = [entry for p in parts for entry in p["buchberger"]]
        out["groebner.buchberger.distinct_share"] = _share(len({k for k, _ in bb}), len(bb))
        out["groebner.buchberger.partial_share"] = _share(sum(1 for _, p in bb if p), len(bb))
        mc = [tuple(key) for p in parts for key in p["m_chart"]]
        out["blowup.build_M_chart.distinct_share"] = _share(len(set(mc)), len(mc))
        return out


def _share(part, whole):
    return part / whole if whole else 0.0
