"""In-memory span recorder that times proto_cil's layers from outside.

`install(tracer)` wraps the public functions the run goes through. A function
is replaced in every loaded `proto_cil` module that holds it, so both the
name `harness` imported (`harness.select_lambda`) and the module attribute
sibling modules call (`projector.solve_prototypes` inside `select_lambda`)
are timed. No file under `src/` is touched.

Spans are kept in memory and written out once, when the sample ends. The
benchmark runs with `RunConfig.threads` at 1, so calls are sequential and one
span stack suffices.
"""

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # dicts: id, name, start, end, parent, run, attrs
        self.counters = {}
        self.patched = {}        # span name -> namespaces that now call the wrapper
        self._stack = []         # ids of the open spans
        self._eval_ids = set()

    @contextmanager
    def span(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start": None, "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, args, kwargs, attrs=None):
        with self.span(name) as span:
            out = fn(*args, **kwargs)
        if attrs is not None:
            span["attrs"] = attrs(self, args, kwargs, out)
        return out

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "counters": self.counters,
                "patched": self.patched}


# ---------------------------------------------------------------------------
# span attributes (computed after the span ends, outside its timing)

def _project_attrs(tracer, args, kwargs, out):
    layer, fm = args[0], args[1]
    n, d = fm.rows.shape
    return {"rows": n, "flop": 2 * n * d * layer.M}


def _rows_attrs(tracer, args, kwargs, out):
    return {"rows": int(args[1].rows.shape[0])}


def _extract_attrs(tracer, args, kwargs, out):
    return {"imgs": len(args[1])}


def _read_attrs(tracer, args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _report_attrs(tracer, args, kwargs, out):
    out_dir = Path(args[1])
    names = ("metrics.json", "accuracy_curve.csv", "config.json", "timings.json")
    return {"bytes": sum((out_dir / n).stat().st_size for n in names
                         if (out_dir / n).exists())}


def _eval_set_attrs(tracer, args, kwargs, out):
    tracer._eval_ids.update(id(im) for im in out)
    tracer.counters["eval_images"] = tracer.counters.get("eval_images", 0) + len(out)
    tracer.counters["eval_distinct"] = len(tracer._eval_ids)
    return {"imgs": len(out)}


# (module, function, span name, attribute hook)
TARGETS = [
    ("pgm", "read_pgm", "pgm.read", _read_attrs),
    ("datahub", "synth_dataset", "datahub.dataset", None),
    ("datahub", "load_dataset", "datahub.dataset", None),
    ("datahub", "make_scenario", "datahub.scenario", None),
    ("datahub", "augment_array", "datahub.augment", None),
    ("rpca", "rpca_train", "rpca.train", None),
    ("rpca", "rpca_apply", "rpca.apply", None),
    ("cnn", "cnn_train", "cnn.train", None),
    ("cnn", "cnn_loss_and_grad", "cnn.step", None),
    ("cnn", "cnn_extract", "cnn.extract", _extract_attrs),
    ("ssf", "ssf_train", "ssf.train", None),
    ("ssf", "ssf_apply", "ssf.apply", None),
    ("projector", "init_projection", "projector.init", None),
    ("projector", "project", "projector.project", _project_attrs),
    ("projector", "select_lambda", "projector.sweep", None),
    ("projector", "accumulate", "projector.accumulate", _rows_attrs),
    ("projector", "solve_prototypes", "projector.solve", None),
    ("projector", "score", "projector.score", None),
    ("fusion", "late_fuse", "fusion.predict", None),
    ("fusion", "single_predict", "fusion.predict", None),
    ("harness", "accuracy", "harness.metrics", None),
    ("harness", "balanced_accuracy", "harness.metrics", None),
    ("harness", "report", "harness.report", _report_attrs),
    ("harness", "run_scenario", "harness.run", None),
]


def _wrapper(tracer, name, fn, attrs):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded proto_cil module that refers to it."""
    from proto_cil import datahub

    modules = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "proto_cil" or n.startswith("proto_cil."))}
    for home, fname, name, attrs in TARGETS:
        fn = getattr(modules[f"proto_cil.{home}"], fname)
        traced = _wrapper(tracer, name, fn, attrs)
        where = []
        for mod_name, mod in sorted(modules.items()):
            if getattr(mod, fname, None) is fn:
                setattr(mod, fname, traced)
                where.append(f"{mod_name}.{fname}")
        tracer.patched.setdefault(name, []).extend(where)
    eval_set = datahub.TaskSequence.eval_set
    datahub.TaskSequence.eval_set = _wrapper(tracer, "datahub.eval_set", eval_set,
                                             _eval_set_attrs)
    tracer.patched["datahub.eval_set"] = ["proto_cil.datahub.TaskSequence.eval_set"]
