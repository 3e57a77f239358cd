"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the measured enrlat
modules with a wrapper, in the module that defines it and wherever another
enrlat module imported it by name (for example `nikulin.milgram_signature`).
Each wrapped call records a span (name, parent span, start, end, operation
index). A span's self time is its duration minus the durations of its
direct child spans. `FiniteQuadraticForm.q_of` is only counted, not timed:
it runs up to millions of times per operation and a span each would
dominate the traced run.
"""

import inspect
import json
import sys
from collections import defaultdict

LAYERS = ("intmat", "lattice", "embeddings", "fqf", "nikulin")

# The per-layer metrics the traced run reports: (module.function, measure).
METRICS = (
    [("embeddings.vectors_of_norm", m) for m in ("calls", "vectors", "self_ms")]
    + [("embeddings." + f, "self_ms") for f in (
        "iter_tuples_in_e82", "embedding_for_label", "embedding_complement",
        "character_upper_bound")]
    + [("embeddings.embedding_from_images", m) for m in ("calls", "rejected", "self_ms")]
    + [("lattice.gram_of_rows", m) for m in ("calls", "self_ms")]
    + [("lattice." + f, "self_ms") for f in (
        "primitive_closure", "orthogonal_complement", "rational_signature")]
    + [("intmat." + f, m) for f in ("snf_with_transforms", "hnf_rows") for m in ("calls", "self_ms")]
    + [("intmat." + f, "self_ms") for f in (
        "right_kernel_int", "inverse_fraction", "solve_int", "det_bareiss", "rational_rank")]
    + [("fqf." + f, m) for f in ("milgram_signature", "fqf_isomorphic")
       for m in ("calls", "elements", "self_ms")]
    + [("fqf.q_of", "calls")]
    + [("fqf." + f, m) for f in ("discriminant_form", "canonical_with_maps")
       for m in ("calls", "self_ms")]
    + [("fqf." + f, "self_ms") for f in (
        "quotient_form", "perp_subgroup", "form_on_subgroup", "two_adic_jordan",
        "odd_jordan", "splits_unit_block", "verify_fqf_iso")]
    + [("nikulin.exists_even_lattice", m) for m in ("calls", "true", "self_ms")]
    + [("nikulin." + f, "self_ms") for f in (
        "find_embedding_datum", "verify_embedding_datum", "transfer_datum_down",
        "transfer_datum_up")]
)

# Functions whose `elements` count is the group order of their first argument.
_ELEMENTS = {"fqf.milgram_signature", "fqf.fqf_isomorphic"}


class Tracer:
    MAX_SPANS = 400_000

    def __init__(self, clock):
        self.clock = clock
        self.stack = []          # [name, start, child_seconds, span_id]
        self.spans = []          # (span_id, parent_id, name, start, end, op)
        self.dropped = 0
        self.op = -1
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)      # (name, measure) -> count
        self.self_raw = None                # name -> seconds, current operation
        self.self_by_op = []                # one self_raw per operation
        self._next_id = 0

    # ---------------------------------------------------------- spans
    def _enter(self, name):
        self._next_id += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id])

    def _exit(self):
        end = self.clock()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_raw[name] = self.self_raw.get(name, 0.0) + dur - child
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((sid, parent, name, start, end, self.op))
        else:
            self.dropped += 1

    def begin_op(self, index):
        self.op = index
        self.self_raw = {}

    def end_op(self):
        self.self_by_op.append(self.self_raw)

    # ---------------------------------------------------------- wrappers
    def _wrap(self, name, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._exit()
                        return
                    except BaseException:
                        tracer._exit()
                        raise
                    tracer._exit()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                tracer._enter(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    tracer._exit()
                    tracer.extra[(name, "rejected")] += 1
                    raise
                tracer._exit()
                tracer._count(name, args, out)
                return out

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, out):
        if name == "embeddings.vectors_of_norm":
            self.extra[(name, "vectors")] += len(out)
        elif name == "nikulin.exists_even_lattice":
            self.extra[(name, "true")] += bool(out)
        elif name in _ELEMENTS:
            self.extra[(name, "elements")] += args[0].group_order

    def install(self):
        """Wrap the public functions of every measured layer."""
        replace = {}
        for layer in LAYERS:
            mod = sys.modules["enrlat." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                replace[id(obj)] = self._wrap("%s.%s" % (layer, attr), obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "enrlat" and not modname.startswith("enrlat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(mod, attr, replace[id(obj)])
        fqf = sys.modules["enrlat.fqf"]
        q_of = fqf.FiniteQuadraticForm.q_of
        calls = self.calls

        def counted_q_of(form, coords):
            calls["fqf.q_of"] += 1
            return q_of(form, coords)

        fqf.FiniteQuadraticForm.q_of = counted_q_of

    # ---------------------------------------------------------- output
    def metrics(self, factors):
        """Per-layer metrics; self times are scaled by each operation's
        speed factor."""
        self_norm = defaultdict(float)
        for per_op, factor in zip(self.self_by_op, factors):
            for name, sec in per_op.items():
                self_norm[name] += sec * factor
        out = {}
        for fname, measure in METRICS:
            key = "%s.%s" % (fname, measure)
            if measure == "calls":
                out[key] = {"value": self.calls.get(fname, 0), "unit": "count"}
            elif measure == "self_ms":
                out[key] = {"value": self_norm.get(fname, 0.0) * 1000.0, "unit": "ms"}
            else:
                out[key] = {"value": self.extra.get((fname, measure), 0), "unit": "count"}
        return out

    def write(self, path):
        """Spans as JSON lines, one per span, then a summary line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "start": round(start, 7), "end": round(end, 7),
                }) + "\n")
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
