"""Span recorder that wraps eudoxus layers and linear-algebra kernels from outside.

`install()` replaces every public function and ConeSpace method of the six
traced modules, and the numpy/scipy kernels they call, by wrappers that record
a span (name, start, end, parent) while the tracer is active.  Names a module
bound at import time (`from x import f`) are rebound in every eudoxus module,
so calls through those names are seen too.  Nothing under `src/` is edited;
`uninstall()` puts the original objects back.

Oracle queries (`strict_above` / `exact_hit` of every CutOracle subclass) and
`Face` constructions are counted, not spanned: there are up to 10^5 queries
per bracket, and faces are built inside spans that are already recorded.
"""

import functools
import inspect
import sys
import time

LAYERS = ("exact_rational", "cone_space", "face_lattice",
          "derivation_algebra", "ratio_calculus", "cli")

# Public helpers called once per matrix entry or column inside other traced
# functions; spanning them would cost more than the work they do, so their
# time stays in the caller's self time.
UNTRACED = {"sym_to_vec", "vec_to_sym", "herm_to_vec", "vec_to_herm", "margin"}

QUERIES = "exact_rational.oracle_queries"
FACES = "face_lattice.faces_built"


class Tracer:
    """Spans of one traced pass, kept in memory until written out.

    A span is [name, start, end, parent index or -1, oracle queries made
    while it was open].
    """

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.counts = {QUERIES: 0, FACES: 0}
        self.bytes = {}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.counts[QUERIES]])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[4] = self.counts[QUERIES] - span[4]

    def aggregate(self):
        """Per span name: calls, self time (duration minus children) and
        oracle queries made inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, queries = {}, {}, {}
        for i, (name, start, end, _, asked) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            queries[name] = queries.get(name, 0) + asked
        return calls, self_s, queries


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _array_bytes(obj):
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, tuple):
        return sum(_array_bytes(o) for o in obj)
    return 0


def _kernel(tracer, name, fn):
    """Span plus computed bytes: operand and result array sizes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        moved = sum(_array_bytes(a) for a in args) + _array_bytes(out)
        tracer.bytes[name] = tracer.bytes.get(name, 0) + moved
        return out
    return wrapper


def _counter(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _kernel_targets():
    import numpy.linalg
    import scipy.linalg
    from eudoxus import cone_space, derivation_algebra
    targets = [(numpy.linalg, n) for n in
               ("svd", "eigh", "eigvalsh", "lstsq", "solve", "matrix_rank")]
    targets += [(scipy.linalg, n) for n in ("svd", "eigh", "orth", "expm")]
    targets += [(cone_space, "nnls"), (cone_space, "linprog"),
                (derivation_algebra, "expm")]
    return targets


def install(tracer):
    """Wrap the layers and kernels; returns the undo list for uninstall()."""
    undo = []
    replace = {}  # id(original) -> wrapper, for rebinding imported names

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner, attr in _kernel_targets():
        fn = getattr(owner, attr)
        name = "linalg." + fn.__name__
        wrapper = replace.get(id(fn)) or _kernel(tracer, name, fn)
        replace[id(fn)] = wrapper
        patch(owner, attr, wrapper)

    modules = [sys.modules["eudoxus." + m] for m in LAYERS]
    for mod in modules:
        layer = mod.__name__.split(".")[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or attr in UNTRACED:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapper = _span(tracer, "%s.%s" % (layer, attr), obj)
                replace[id(obj)] = wrapper
                patch(mod, attr, wrapper)
        space_cls = getattr(mod, "ConeSpace", None)
        if space_cls is not None and space_cls.__module__ == mod.__name__:
            for attr, obj in list(vars(space_cls).items()):
                if attr.startswith("_") or attr in UNTRACED:
                    continue
                name = "%s.%s" % (layer, attr)
                if isinstance(obj, classmethod):
                    patch(space_cls, attr, classmethod(_span(tracer, name, obj.__func__)))
                elif inspect.isfunction(obj):
                    patch(space_cls, attr, _span(tracer, name, obj))

    for cls in _subclasses(sys.modules["eudoxus.exact_rational"].CutOracle):
        for attr in ("strict_above", "exact_hit"):
            if attr in vars(cls):
                patch(cls, attr, _counter(tracer, QUERIES, vars(cls)[attr]))
    face_cls = sys.modules["eudoxus.face_lattice"].Face
    patch(face_cls, "__init__", _counter(tracer, FACES, face_cls.__init__))

    # names bound by `from module import name` in other eudoxus modules
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "eudoxus" or mod_name.startswith("eudoxus.")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None and wrapper is not obj:
                patch(mod, attr, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
