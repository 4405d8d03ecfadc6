"""Per-layer spans and counts, recorded from outside the package.

The tracer re-binds public functions and methods of ``epschar`` to
wrappers for the length of one traced pass.  ``from .x import f`` copies
the binding, so a module-level function is re-bound in every ``epschar.*``
namespace that holds it; a method is re-bound on its class.  Spans
(name, start, end, parent, op id) are kept in flat arrays and reduced when
the pass ends: a span's self time is its duration minus the durations of
its child spans.  Only traced passes import this module.
"""

import functools
import sys
import time
from array import array
from collections import defaultdict
from math import gcd


# (layer, target in the package, mode); "span" records calls and self
# time, "count" only calls.  Two targets may share a metric name.
TARGETS = [
    ("fields", "fields.make_field", "span"),
    ("fields", "fields.FieldContext.mul", "count"),
    ("fields", "fields.FieldContext.trace", "count"),
    ("cyclotomic", "cyclotomic.gauss_sum", "span"),
    ("cyclotomic", "cyclotomic.gauss_product_check", "span"),
    ("cyclotomic", "cyclotomic.CyclotomicInt.__mul__", "span"),
    ("cyclotomic", "cyclotomic.complex_abs2", "span"),
    ("padic", "padic.padic_gauss_valuation", "span"),
    ("stickelberger", "stickelberger.stickelberger_valuation", "span"),
    ("stickelberger", "stickelberger.digit_sum_valuation", "span"),
    ("groups", "groups.AbelianGroup.characters", "span"),
    ("groups", "groups.Subgroup.characters", "span"),
    ("groups", "groups.Character.__init__", "count"),
    ("groups", "groups.restrict", "span"),
    ("groups", "groups.induce", "span"),
    ("groups", "groups.Subgroup.generated", "count"),
    ("groups", "groups.decomposition_map", "span"),
    ("covers", "covers.kummer_cover", "span"),
    ("covers", "covers.artin_schreier_cover", "span"),
    ("covers", "covers.PlaceDatum.ramification_kind", "span"),
    ("covers", "covers.PlaceDatum.tame_index", "span"),
    ("covers", "covers.subcover_data", "span"),
    ("covers", "covers.cover_from_json", "span"),
    ("epsilon", "epsilon.global_epsilon_valuation", "span"),
    ("epsilon", "epsilon.local_epsilon", "count"),
    ("epsilon", "epsilon.E_element", "span"),
    ("euler", "euler.multiplicity_closed", "span"),
    ("euler", "euler.multiplicity_direct", "span"),
    ("euler", "euler.psi_structure", "span"),
    ("verify", "verify.check_strong", "span"),
    ("verify", "verify.check_weak", "span"),
    ("verify", "verify.check_invariance", "span"),
    ("verify", "verify.check_restriction", "span"),
    ("cli", "cli.main", "span"),
    ("corpus", "corpus.synthetic_corpus", "span"),
]

# metric names that differ from "<layer>.<last part of the target>"
_RENAMES = {
    "groups.AbelianGroup.characters": "groups.characters",
    "groups.Subgroup.characters": "groups.characters",
    "groups.Subgroup.generated": "groups.subgroup",
}

# (metric prefix, module, lru_cache attribute): hit ratio over the op loop
CACHES = [
    ("fields.make_field", "fields", "make_field"),
    ("padic.gauss_tables", "padic", "_gauss_tables"),
    ("groups.modular_basis", "groups", "_modular_basis_cached"),
]

OP_SPAN = "op"


def metric_name(layer, target):
    if target in _RENAMES:
        return _RENAMES[target]
    module, _, rest = target.partition(".")
    return "%s.%s" % (layer, rest)


def _resolve(target):
    """(owner, attribute, raw value) of a dotted target under epschar."""
    parts = target.split(".")
    owner = sys.modules["epschar." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _totient(n):
    out, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            out -= out // d
        d += 1
    if m > 1:
        out -= out // m
    return out


class Tracer:
    """Wraps the TARGETS for one pass; install() then uninstall()."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        self.counts = defaultdict(int)
        self._patches = []  # (owner, attr, original raw value)
        self._caches = {}
        self._cache_before = {}
        self._cache_after = {}
        self.gauss_orders = set()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def begin_op(self, op_id):
        self._op_id = op_id
        return self._open(self._name_id(OP_SPAN))

    def end_op(self, idx):
        self._close(idx)
        self._op_id = -1

    def _span_wrapper(self, name, fn, on_return):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks on return values ----------------------------------------------

    def _on_characters(self, args, result):
        self.counts["groups.characters.count"] += len(result)

    def _on_report(self, args, result):
        self.counts["verify.reports"] += 1
        self.counts["verify.rows"] += len(result.rows)

    def _on_gauss_sum(self, args, result):
        ctx = args[0]
        self.gauss_orders.add(ctx.p * (ctx.q - 1) // gcd(ctx.p, ctx.q - 1) if ctx.q > 2 else ctx.p)

    def _hook(self, name):
        if name == "groups.characters":
            return self._on_characters
        if name.startswith("verify.check_"):
            return self._on_report
        if name == "cyclotomic.gauss_sum":
            return self._on_gauss_sum
        return None

    # -- installing -----------------------------------------------------------

    def _rebind(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self):
        # the lru_cache objects themselves, before make_field is re-bound
        self._caches = {
            prefix: getattr(sys.modules["epschar." + mod], attr) for prefix, mod, attr in CACHES
        }
        self._cache_before = {prefix: c.cache_info() for prefix, c in self._caches.items()}
        for layer, target, mode in TARGETS:
            name = metric_name(layer, target)
            owner, attr, raw = _resolve(target)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if mode == "span":
                wrapped = self._span_wrapper(name, fn, self._hook(name))
            else:
                wrapped = self._count_wrapper(name, fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if isinstance(owner, type):
                self._rebind(owner, attr, raw, wrapped)
                continue
            # a module function: re-bind it wherever the package holds it
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "epschar" and not mod_name.startswith("epschar."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, alias, raw, wrapped)

    def uninstall(self):
        self._cache_after = {prefix: c.cache_info() for prefix, c in self._caches.items()}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every re-bound name holds its original object again."""
        for owner, attr, original in self._patches:
            current = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return bool(self._patches)

    # -- reducing -------------------------------------------------------------

    def self_times(self):
        """Self seconds and span count per name, and the self seconds of all
        spans inside ops (which must add up to the time the ops took)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        in_ops = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child[i]
            self_s[name] += own
            calls[name] += 1
            if self.op[i] >= 0:
                in_ops += own
        return self_s, calls, in_ops

    def metrics(self):
        """Every per-layer value this tracer knows, 0 where no work was done."""
        self_s, calls, _ = self.self_times()
        out = {}
        for layer, target, mode in TARGETS:
            name = metric_name(layer, target)
            if mode == "span":
                out[name + ".calls"] = calls.get(name, 0)
                out[name + ".s"] = self_s.get(name, 0.0)
            else:
                out[name + ".calls"] = self.counts.get(name + ".calls", 0)
        for key in ("groups.characters.count", "verify.reports", "verify.rows"):
            out[key] = self.counts.get(key, 0)
        for prefix, _, _ in CACHES:
            before, after = self._cache_before[prefix], self._cache_after[prefix]
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[prefix + ".misses"] = misses
        out["cyclotomic.table_entries"] = sum(m * _totient(m) for m in self.gauss_orders)
        return out
