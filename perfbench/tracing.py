"""Outside-in tracing of polyxform's layers.

Each traced function is replaced, for the life of a `Tracer` context, in
the module whose code calls it, under the name that code looks up at call
time.  `ptransform` does `from .modcore import crt_reconstruct`, so the
binding to replace is `ptransform.crt_reconstruct`; `Residue.__mul__` and
`ExtensionElement.__mul__` look up `mul_mod` and `ext_mul` as module
globals, so replacing those globals catches every boxed multiply.

Names called millions of times per op get plain counters (COUNT) or a
counter plus accumulated time (TIMED).  The rest record spans (id, op id,
parent id, name, start, end) in memory.  Self time is a call's duration
minus the time of the traced calls made inside it; it still holds the cost
of the wrappers around the counted calls nested in it.  A binding that a
later version of the program removes is skipped, so its metrics read as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

COUNT, TIMED, SPAN = "count", "timed", "span"

BINDINGS = (
    ("polyxform.ptransform", "preprocess", "ptransform.preprocess", SPAN),
    ("polyxform.ptransform", "inverse_plan", "ptransform.inverse_plan", SPAN),
    ("polyxform.ptransform", "transform_elements", "ptransform.transform_elements", SPAN),
    ("polyxform.ptransform", "oracle_output", "ptransform.oracle_output", SPAN),
    ("polyxform.ptransform", "naive_dft", "transform.naive_dft", SPAN),
    ("polyxform.ptransform", "recover_components", "residues.recover_components", SPAN),
    ("polyxform.ptransform", "crt_reconstruct", "modcore.crt_reconstruct", TIMED),
    ("polyxform.modcore", "mul_mod", "modcore.mul_mod", COUNT),
    ("polyxform.extension", "ext_mul", "extension.ext_mul", COUNT),
    ("polyxform.bigmul", "ext_mul", "extension.ext_mul", COUNT),
    ("polyxform.bigmul", "schoolbook_mul", "bigmul.schoolbook_mul", SPAN),
    ("polyxform.bigmul", "karatsuba_mul", "bigmul.karatsuba_mul", SPAN),
    ("polyxform.bigmul", "ntt_convolve", "bigmul.ntt_convolve", SPAN),
    ("polyxform.bigmul", "pack", "bigmul.pack", SPAN),
    ("polyxform.bigmul", "carry_propagate", "bigmul.carry_propagate", SPAN),
)

# Work counted alongside a call: counter suffix and amount from (args, result).
EXTRA_COUNTS = {
    "transform.naive_dft": ("points", lambda args, result: len(args[0]) ** 2),
    "ptransform.transform_elements": ("outputs", lambda args, result: len(result)),
}


class Tracer:
    """Counters, times and spans for the bindings, installed while entered."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.spans = []
        self._stack = []  # frames: [span id, op id, seconds spent in traced children]
        self._next_id = 0
        self._saved = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, mode in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, mode))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one op under a span named name.

        If fn raises, the counters and times of every call made inside it
        are dropped, so they cover completed ops only; its spans are kept.
        """
        totals = (self.calls, self.seconds, self.self_seconds)
        saved = [dict(total) for total in totals]
        try:
            return self._timed(name, True, fn, args, kwargs)
        except BaseException:
            for total, before in zip(totals, saved):
                total.clear()  # in place: the counting wrappers hold self.calls
                total.update(before)
            raise

    def _timed(self, name: str, record_span: bool, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, parent[1] if parent else self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - frame[2]
            if parent:
                parent[2] += elapsed
            if record_span:
                self.spans.append(
                    (frame[0], frame[1], parent[0] if parent else None, name, start, end)
                )

    def _wrap(self, fn, name: str, mode: str):
        if mode == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)
        extra = EXTRA_COUNTS.get(name)

        def traced(*args, **kwargs):
            result = self._timed(name, mode == SPAN, fn, args, kwargs)
            if extra:
                self.calls[f"{name}.{extra[0]}"] += extra[1](args, result)
            return result

        return functools.wraps(fn)(traced)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, op_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "op": op_id, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
