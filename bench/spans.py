"""Span tracing at the package's module boundaries, installed from outside.

Only the traced run patches anything: each boundary function is replaced,
in the namespace its caller looks it up in, by a wrapper that records one
span (name, start, end, parent, op id). Spans stay in memory; counts are
read from the recorded arguments and results after the op has ended, so
they cost no traced time. `torus.chord` is deliberately not wrapped: the
verifier calls it once per pair and factor, millions of times per run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name. The attribute is patched in the module
# whose code makes the call, so every call site below is covered.
BOUNDARIES = {
    ("cli", "embed_simplex"): "pipeline.embed_simplex",
    ("cli", "save_certificate"): "certificate.save",
    ("cli", "load_certificate"): "certificate.load",
    ("cli", "verify_certificate"): "pipeline.verify_certificate",
    ("pipeline", "schoenberg_decompose"): "pipeline.schoenberg_decompose",
    ("pipeline", "product_embed"): "delta_embed.product_embed",
    ("pipeline", "check_almost_regular"): "almost_regular.check_almost_regular",
    ("pipeline", "realization_plan"): "almost_regular.realization_plan",
    ("pipeline", "embed_almost_regular"): "almost_regular.embed_almost_regular",
    ("pipeline", "verify_certificate"): "pipeline.verify_certificate",
    ("pipeline", "as_point_array"): "geometry.as_point_array",
    ("pipeline", "squared_distances"): "geometry.squared_distances",
    ("pipeline", "is_simplex"): "geometry.is_simplex",
    ("pipeline", "centered_gram"): "geometry.centered_gram",
    ("pipeline", "realize"): "geometry.realize",
    ("almost_regular", "check_almost_regular"): "almost_regular.check_almost_regular",
    ("almost_regular", "realization_plan"): "almost_regular.realization_plan",
    ("almost_regular", "embed_regular_simplex"): "simplex.embed_regular_simplex",
    ("certificate", "dumps_certificate"): "certificate.dumps",
    ("certificate", "loads_certificate"): "certificate.loads",
}

# span name prefix -> layer of the self-time partition
LAYERS = (
    ("cli.", "cli"),
    ("pipeline.verify_certificate", "verifier"),
    ("pipeline.", "pipeline"),
    ("geometry.", "geometry"),
    ("delta_embed.", "delta_embed"),
    ("almost_regular.", "almost_regular"),
    ("simplex.", "simplex"),
    ("certificate.", "certificate"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "args", "result")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent  # index within the op's spans, -1 for its root
        self.op = op
        self.start = self.end = 0.0
        self.args = self.result = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Records the spans of the ops run through `root`."""

    def __init__(self, modules):
        self._modules = modules
        self._originals = {}
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self._op = -1
        self._first = 0

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] - self._first if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.args = args

        return wrapper

    def _install(self) -> None:
        for (mod, attr), name in BOUNDARIES.items():
            module = getattr(self._modules, mod)
            fn = getattr(module, attr)
            self._originals[(mod, attr)] = fn
            setattr(module, attr, self._wrap(fn, name))

    def _uninstall(self) -> None:
        for (mod, attr), fn in self._originals.items():
            setattr(getattr(self._modules, mod), attr, fn)
        self._originals.clear()

    def root(self, name: str, op: int, call):
        """Run `call()` as op `op` under a root span, with the boundaries
        wrapped for its duration only.

        Returns the call's result and the op's spans, root first.
        """
        self._op = op
        self._first = len(self.spans)
        self._install()
        try:
            result = self._wrap(call, name)()
        finally:
            self._uninstall()
            self._op = -1
        return result, self.spans[self._first:]


def self_times(op_spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    `op_spans` are the spans of one op, root first; the results sum to the
    root's duration.
    """
    out = [s.end - s.start for s in op_spans]
    for s in op_spans[1:]:
        out[s.parent] -= s.end - s.start
    return out


def nesting_errors(op_spans: list[Span], atol: float) -> list[str]:
    """Ways the op's spans fail to form a tree in time: a span whose parent
    does not precede it, a child outside its parent's interval, or a
    negative self time (overlapping siblings)."""
    bad = []
    for i, s in enumerate(op_spans[1:], 1):
        if not 0 <= s.parent < i:
            bad.append(f"span {s.name} has parent {s.parent}")
            continue
        p = op_spans[s.parent]
        if not p.start - atol <= s.start <= s.end <= p.end + atol:
            bad.append(f"span {s.name} lies outside its parent {p.name}")
    if bad:
        return bad
    for s, t in zip(op_spans, self_times(op_spans)):
        if t < -atol:
            bad.append(f"span {s.name} has self time {t:.3e} s")
    return bad


def _margin_rel(args, result) -> float:
    """Almost-regularity margin as a share of a_max^2."""
    a = np.asarray(args[0], dtype=float)
    amax = float(a[np.triu_indices(a.shape[0], k=1)].max())
    return result.margin / amax**2


def _budget_use(result) -> float:
    """max |e_ij| / delta of a DeltaEmbedding."""
    return float(np.abs(result.per_pair_error).max()) / result.delta


def op_profile(op_spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer numbers of one traced op.

    Returns (totals, observations): totals are seconds or calls summed over
    the op; observations are per-call values (sizes, ratios) to be averaged
    over the calls that returned. Drops the spans' argument and result
    references once read.
    """
    totals = defaultdict(float)
    obs = defaultdict(list)
    selfs = self_times(op_spans)
    root = op_spans[0]
    totals["trace.op_s"] = root.end - root.start
    totals[root.name + ".self_s"] = selfs[0]
    for span, self_s in zip(op_spans, selfs):
        name, dur, args, res = span.name, span.end - span.start, span.args, span.result
        totals["self_s." + layer_of(name)] += self_s
        if name.startswith("geometry."):
            totals["geometry.s"] += dur
        elif name == "pipeline.embed_simplex":
            totals[name + ".self_s"] += self_s
        elif name in ("certificate.save", "certificate.load"):
            totals["certificate.file_io.self_s"] += self_s
        elif name != root.name:
            totals[name + ".s"] += dur
        if name in (
            "almost_regular.check_almost_regular",
            "almost_regular.realization_plan",
            "simplex.embed_regular_simplex",
        ):
            totals[name + ".calls"] += 1
        if name == "certificate.loads":
            obs["certificate.bytes"].append(len(args[0]))
        elif res is None:
            pass
        elif name == "delta_embed.product_embed":
            obs["delta_embed.factors"].append(len(res.torus.factors))
            obs["delta_embed.m_bits"].append(res.params.m.bit_length())
            obs["delta_embed.budget_use"].append(_budget_use(res))
        elif name == "almost_regular.check_almost_regular":
            obs["almost_regular.margin_rel"].append(_margin_rel(args, res))
        elif name == "almost_regular.embed_almost_regular":
            obs["almost_regular.factors"].append(len(res[0].factors))
        elif name == "pipeline.verify_certificate":
            obs["pipeline.verify_certificate.pairs"].append(res.pair_count)
            totals["torus.chord_evals"] += res.pair_count * len(args[0].torus.factors)
        elif name == "certificate.dumps":
            obs["certificate.bytes"].append(len(res))
        span.args = span.result = None
    return totals, obs


def summarize(profiles: list[tuple[dict, dict]]) -> dict:
    """Mean per op of the totals, mean per call of the observations, except
    the error budget, whose guarantee holds per call: its worst call."""
    out = defaultdict(float)
    for totals, _ in profiles:
        for key, value in totals.items():
            out[key] += value
    for key in out:
        out[key] /= len(profiles)
    obs = defaultdict(list)
    for _, per_call in profiles:
        for key, values in per_call.items():
            obs[key].extend(values)
    for key, values in obs.items():
        out[key] = sum(values) / len(values)
    if obs["delta_embed.budget_use"]:
        out["delta_embed.budget_use"] = max(obs["delta_embed.budget_use"])
    if out["torus.chord_evals"]:
        out["pipeline.verify_certificate.ns_per_chord"] = (
            1e9 * out["pipeline.verify_certificate.s"] / out["torus.chord_evals"]
        )
    return dict(out)
