"""Per-layer spans recorded from outside the library.

The tracer wraps public entry points of the tiltlab modules (class methods
such as ``Matrix.rref`` and module functions together with every module
binding that re-imports them, e.g. ``artheory.hom_space``).  Each wrapped
call records a span: name, start, end and parent.  Spans stay in memory in
flat arrays and are written once, at the end of the run.  A span's self
time is its duration minus the time covered by its child spans.

Nothing is wrapped unless the benchmark is run with ``--trace 1``; the
untraced timed phase calls the library directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx: int):
        t = perf_counter()
        self.end[idx] = t
        # pop down to this span: spans above it were cut short by an exception
        while self._stack and self._stack[-1] != idx:
            self._stack.pop()
            self._child.pop()
        self._stack.pop()
        child = self._child.pop()
        dur = t - self.start[idx]
        name = self.names[self.name[idx]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._child:
            self._child[-1] += dur

    def reset_stack(self):
        self._stack.clear()
        self._child.clear()

    # -- wrapping ----------------------------------------------------------

    def span_wrapper(self, name: str, fn, after=None, before=None, home=None):
        """Wrap ``fn`` in a span.  ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` record counters.  When ``home`` is
        ``(module, attr)``, the wrapper puts the original function back in
        that module for the duration of the call, so that self-recursion
        neither adds wrapper frames nor nested spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if home is not None:
                setattr(home[0], home[1], fn)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if home is not None:
                    setattr(home[0], home[1], wrapper)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def generator_wrapper(self, name: str, fn):
        """Wrap a generator function: every resume is a span, so the
        consumer's work between items is not charged to the generator.
        Counts the calls and the items yielded (``<name>.yielded``)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.count(name + ".yielded")
                yield item

        return wrapper

    def counting_wrapper(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def patch_function(self, module, attr: str, make):
        """Replace ``module.attr`` and every other binding of the same
        function object in the loaded tiltlab modules."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in [m for k, m in sorted(sys.modules.items()) if k == "tiltlab" or k.startswith("tiltlab.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, name, original, wrapper))
        self.reinstall()
        return original

    def patch_attr(self, owner, attr: str, replacement):
        self._bindings.append((owner, attr, getattr(owner, attr), replacement))
        self.reinstall()

    def patch_method(self, cls, attr: str, make, alias_modules=()):
        original = cls.__dict__[attr]
        wrapper = make(original)
        self._bindings.append((cls, attr, original, wrapper))
        for mod in alias_modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, name, original, wrapper))
        self.reinstall()
        return original

    def reinstall(self):
        """Point every patched binding at its wrapper again (an exception
        raised inside a wrapper's clean-up can leave a home binding
        unwrapped)."""
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        self.reset_stack()

    def uninstall(self):
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "span_name": list(self.name),
                    "parent": list(self.parent),
                    "start": list(self.start),
                    "end": list(self.end),
                },
                fh,
            )


def install_layers(tracer: Tracer):
    """Wrap the layer entry points that the per-layer metrics name.  Only
    modules already imported are patched; the workload imports what it
    uses before this runs."""
    mods = {k: m for k, m in sys.modules.items() if k == "tiltlab" or k.startswith("tiltlab.")}
    exactlin = mods.get("tiltlab.exactlin")
    if exactlin is not None:
        M = exactlin.Matrix
        tracer.patch_method(M, "rref", lambda f: tracer.span_wrapper(
            "exactlin.rref", f, before=lambda a, k: _rref_cells(tracer, a[0])))
        tracer.patch_method(M, "__matmul__", lambda f: tracer.span_wrapper("exactlin.matmul", f))
        tracer.patch_method(M, "__init__", lambda f: tracer.counting_wrapper("exactlin.matrix_new.calls", f))
        tracer.patch_function(exactlin, "snf", lambda f: tracer.span_wrapper(
            "exactlin.snf", f, after=lambda r, a, k: tracer.peak("exactlin.snf.max_bits", _max_bits(r))))
    quiverrep = mods.get("tiltlab.quiverrep")
    if quiverrep is not None:
        tracer.patch_function(quiverrep, "hom_space", lambda f: tracer.span_wrapper(
            "quiverrep.hom_space", f, before=lambda a, k: _system_cells(tracer, a[0], a[1])))
        for fn in ("hom_ext_dims", "tor_dims", "proj_presentation"):
            tracer.patch_function(quiverrep, fn, lambda f, fn=fn: tracer.span_wrapper("quiverrep." + fn, f))
    artheory = mods.get("tiltlab.artheory")
    if artheory is not None:
        for fn in ("decompose", "is_isomorphic", "tau", "tube_catalog"):
            tracer.patch_function(artheory, fn, lambda f, fn=fn: tracer.span_wrapper("artheory." + fn, f))
        tracer.patch_function(artheory, "all_submodules",
                              lambda f: tracer.generator_wrapper("artheory.all_submodules", f))
        tracer.patch_attr(artheory, "itertools", _SearchCountingItertools(tracer))
    perpcat = mods.get("tiltlab.perpcat")
    if perpcat is not None:
        for fn in ("perp_conditions", "divisible_radical", "class_compare"):
            tracer.patch_function(perpcat, fn, lambda f, fn=fn: tracer.span_wrapper("perpcat." + fn, f))
    dedekind = mods.get("tiltlab.dedekind")
    if dedekind is not None:
        for fn in ("classify", "prime_support", "classify_tilting"):
            tracer.patch_function(dedekind, fn, lambda f, fn=fn: tracer.span_wrapper("dedekind." + fn, f))
        for fn in ("hom", "ext1", "tor1"):
            tracer.patch_function(dedekind, fn, lambda f: tracer.span_wrapper("dedekind.closed_form", f))
    freegrp = mods.get("tiltlab.freegrp")
    if freegrp is not None:
        tracer.patch_function(freegrp, "envelope_value", lambda f: tracer.span_wrapper(
            "freegrp.envelope_value", f, home=(freegrp, "envelope_value"),
            before=lambda a, k: tracer.count("freegrp.envelope_value.letters", len(a[1]))))
        tracer.patch_function(freegrp, "envelope_value_alg", lambda f: tracer.span_wrapper(
            "freegrp.envelope_value_alg", f,
            before=lambda a, k: tracer.count("freegrp.envelope_value_alg.terms", len(a[1].terms))))
        tracer.patch_method(freegrp.GroupAlgElem, "__mul__", lambda f: tracer.span_wrapper(
            "freegrp.ga_mul", f, after=lambda r, a, k: tracer.count("freegrp.ga_mul.terms_out", len(r.terms))),
            alias_modules=(freegrp,))


def _rref_cells(tracer: Tracer, m):
    cells = m.nrows * m.ncols
    tracer.count("exactlin.rref.cells", cells)
    tracer.peak("exactlin.rref.max_cells", cells)


def _system_cells(tracer: Tracer, M, N):
    rows = sum(N.dims[a.target] * M.dims[a.source] for a in M.quiver.arrows)
    cols = sum(n * m for n, m in zip(N.dims, M.dims))
    tracer.count("quiverrep.hom_space.system_cells", rows * cols)


def _max_bits(result) -> int:
    return max((abs(x).bit_length() for m in result for row in m.rows for x in row), default=0)


class _SearchCountingItertools:
    """Stands in for ``itertools`` inside ``tiltlab.artheory`` during the
    traced phase.  ``product`` called from ``all_submodules`` counts every
    tuple it hands to the search (``artheory.all_submodules.tuples_visited``);
    every other use gets the real module unchanged."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *iterables, **kwargs):
        tuples = itertools.product(*iterables, **kwargs)
        if sys._getframe(1).f_code.co_name != "all_submodules":
            return tuples
        return self._counted(tuples)

    def _counted(self, tuples):
        counts = self._tracer.counts
        key = "artheory.all_submodules.tuples_visited"
        for t in tuples:
            counts[key] = counts.get(key, 0) + 1
            yield t
