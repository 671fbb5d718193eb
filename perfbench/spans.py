"""In-memory call spans for the traced (per-layer) runs.

A ``Tracer`` replaces every public function of the package's layer modules
with a wrapper that records one span per call: (name, start, end, parent,
ok).  The wrapper is bound wherever the function is reachable by name: in
its defining module, in any other package module that imported it (for
example ``utgd.exp_r2_half_xi``) and in the package namespace.  A private
helper that another module imported by name (``calibrate._core``) is a
layer crossing too, so it is wrapped at the importing site only.

Benchmark operations open root spans with ``begin``/``end``; a layer's self
time is the duration of its spans minus the part their child spans cover.
Spans stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time

LAYERS = ("specfun", "utgd", "chi", "calibrate", "lognormal", "tables", "cli")
ARG_CAP = 100_000  # captured argument tuples per function, for replay
UNITS = {"self_frac": "ratio", "calls_per_op": "calls/op", "ok_frac": "ratio",
         "rounds": "rounds", "self_ms": "ms", "ns": "ns", "overhead_frac": "ratio"}


def _is_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__name__")


class Tracer:
    def __init__(self, package, capture=(), keep_results=()):
        self.names: list[str] = []
        self.spans: list = []
        self.args = {name: [] for name in capture}
        self.results = {name: [] for name in keep_results}
        self.originals: dict[str, object] = {}
        self._stack = [-1]
        self._saved: list = []
        self._install(package)

    # -- installation ------------------------------------------------------

    def _install(self, package) -> None:
        prefix = package.__name__ + "."
        mods = {layer: importlib.import_module(prefix + layer) for layer in LAYERS}
        public, private = {}, {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (_is_function(obj) and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    public[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                owner = getattr(obj, "__module__", None) or ""
                if (_is_function(obj) and id(obj) not in public
                        and owner.startswith(prefix) and owner != mod.__name__
                        and owner[len(prefix):] in mods):
                    key = (id(obj), mod.__name__)
                    private[key] = self._wrap(
                        f"{owner[len(prefix):]}.{obj.__name__}", obj)
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                w = public.get(id(obj)) or private.get((id(obj), mod.__name__))
                if w is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in self._saved:
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        self.originals.setdefault(span_name, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        captured = self.args.get(span_name)
        results = self.results.get(span_name)

        def traced(*a, **kw):
            if captured is not None and len(captured) < ARG_CAP and not kw:
                captured.append(a)
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            ok = False
            t0 = clock()
            try:
                out = fn(*a, **kw)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (nid, t0, t1, parent, ok)
            if results is not None:
                results.append(out)
            return out

        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- benchmark operations ------------------------------------------------

    def begin(self, op_name: str) -> None:
        if op_name not in self.names:
            self.names.append(op_name)
        i = len(self.spans)
        self.spans.append((self.names.index(op_name), time.perf_counter_ns()))
        self._stack.append(i)

    def end(self, ok: bool = True) -> None:
        i = self._stack.pop()
        nid, t0 = self.spans[i]
        self.spans[i] = (nid, t0, time.perf_counter_ns(), self._stack[-1], ok)

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer, call and success counts per function, and
        the per-layer self time inside each root operation."""
        spans, names = self.spans, self.names
        child = [0] * len(spans)
        root = [0] * len(spans)
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        layer_self: dict[str, int] = {}
        calls: dict[str, int] = {}
        oks: dict[str, int] = {}
        per_root: dict[int, dict[str, int]] = {}
        total = 0
        for i, (nid, t0, t1, parent, ok) in enumerate(spans):
            name = names[nid]
            layer = name.split(".", 1)[0]
            own = t1 - t0 - child[i]
            layer_self[layer] = layer_self.get(layer, 0) + own
            calls[name] = calls.get(name, 0) + 1
            oks[name] = oks.get(name, 0) + bool(ok)
            by_layer = per_root.setdefault(root[i], {})
            by_layer[layer] = by_layer.get(layer, 0) + own
            if parent < 0:
                total += t1 - t0
        ops = {i: names[spans[i][0]] for i in per_root}
        return {"total_ns": total, "layer_self_ns": layer_self,
                "calls": calls, "ok": oks,
                "root_layer_self_ns": [(ops[i], per_root[i]) for i in per_root]}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# name\tstart_ns\tend_ns\tparent\tok\n")
            names = self.names
            fh.writelines(f"{names[n]}\t{t0}\t{t1}\t{p}\t{int(ok)}\n"
                          for n, t0, t1, p, ok in self.spans)


def replay_ns(fn, args: list, repeats: int = 3) -> float:
    """Best-of-``repeats`` mean time per call of ``fn`` over captured args."""
    if not args:
        return 0.0
    best = float("inf")
    clock = time.perf_counter_ns
    for _ in range(repeats):
        t0 = clock()
        for a in args:
            fn(*a)
        best = min(best, clock() - t0)
    return best / len(args)


def layer_metrics(summ: dict, ops: int, tracer: Tracer) -> dict:
    """The per-layer metrics that a traced pass yields (see README)."""
    total = summ["total_ns"] or 1
    calls, oks = summ["calls"], summ["ok"]
    out = {f"{layer}.self_frac": summ["layer_self_ns"].get(layer, 0) / total
           for layer in LAYERS}
    per_op = ["calibrate.calibrate_auto", "calibrate.r_from_variance",
              "calibrate.sigma_newton", "calibrate.point_slope",
              "utgd.normalized_variance", "utgd.var_form1",
              "utgd.skewness_kurtosis", "specfun.exp_r2_half_xi",
              "chi.chi_var_form2", "specfun.log_gamma_upper",
              "lognormal.log_xi", "specfun.xi"]
    for name in per_op:
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / max(ops, 1)
    auto = "calibrate.calibrate_auto"
    out[f"{auto}.ok_frac"] = oks.get(auto, 0) / calls[auto] if calls.get(auto) else 0.0
    rounds = [r.iterations for r in tracer.results.get(auto, [])]
    out[f"{auto}.rounds"] = statistics.fmean(rounds) if rounds else 0.0
    fit_self = [by_layer.get("cli", 0) / 1e6
                for op, by_layer in summ["root_layer_self_ns"] if op == "bench.cli.fit"]
    out["cli.fit.self_ms"] = statistics.median(fit_self) if fit_self else 0.0
    for name in ("specfun.exp_r2_half_xi", "specfun.log_gamma_upper"):
        fn = tracer.originals.get(name)
        out[f"{name}.ns"] = replay_ns(fn, tracer.args.get(name, [])) if fn else 0.0
    return out
