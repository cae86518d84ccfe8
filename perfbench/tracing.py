"""Outside-in tracing of the package's layers.

`Tracer.install` replaces public functions at the attributes where mpesplit
looks them up, and `uninstall` puts the originals back; the package itself
is never edited. Each wrapped call records a span (name, start, end, parent
index, MB computed) in memory. A hook whose target attribute no longer
exists is skipped and its metrics are reported as unmeasured, so a refactor
of the package leaves the benchmark running.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict

# transforms the grid layer may call, looked up on both FFT modules
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# per-layer metrics, with the span name that feeds each
LAYER_METRICS = {
    "grid.a_flow.calls": "grid.a_flow",
    "grid.a_flow.s": "grid.a_flow",
    "grid.fft.calls": "grid.fft",
    "grid.fft.s": "grid.fft",
    "grid.fft.mb_computed": "grid.fft",
    "flows.b_flow.calls": "flows.b_flow",
    "flows.b_flow.s": "flows.b_flow",
    "flows.rk.calls": "flows.rk",
    "flows.rhs.calls": "flows.rk",
    "flows.rhs.s": "flows.rk",
    "schemes.apply.calls": "schemes.apply",
    "schemes.apply.s": "schemes.apply",
    "schemes.self_s": "schemes.apply",
    "models.energy.calls": "models.energy",
    "models.energy.s": "models.energy",
    "models.diag.s": "models.diag",
    "harness.self_s": "harness.op",
}


def _fft_mb(args, out) -> float:
    """Bytes of the input and output arrays, in MB: computed, not measured."""
    src = args[0]
    return (getattr(src, "nbytes", 0) + getattr(out, "nbytes", 0)) / 1e6


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, MB computed]
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self.missing = set()  # metric groups whose hook found no target

    def wrap(self, name, fn, mb=None):
        """fn, recording a span per call; a call made inside a span of the
        same name (one transform calling another) is not counted again."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if mb is not None:
                span[4] = mb(args, out)
            return out

        return traced

    def _flow_pair(self, original):
        def flow_pair(*args, **kwargs):
            pair = original(*args, **kwargs)
            return dataclasses.replace(
                pair,
                a_flow=self.wrap("grid.a_flow", pair.a_flow),
                b_flow=self.wrap("flows.b_flow", pair.b_flow),
            )
        return flow_pair

    def _ssprk(self, original):
        def ssprk104(f, *args, **kwargs):
            return original(self.wrap("flows.rhs", f), *args, **kwargs)
        return self.wrap("flows.rk", ssprk104)

    def _plain(self, name, mb=None):
        return lambda fn: self.wrap(name, fn, mb)

    def _hooks(self):
        """(module, attribute, metric group, wrapper factory)."""
        hooks = [
            ("mpesplit.harness", "apply", "schemes.apply", self._plain("schemes.apply")),
            ("mpesplit.harness", "flow_pair", "grid.a_flow", self._flow_pair),
            ("mpesplit.harness", "energy", "models.energy", self._plain("models.energy")),
            ("mpesplit.harness", "mass", "models.diag", self._plain("models.mass")),
            ("mpesplit.harness", "max_norm", "models.diag", self._plain("models.max_norm")),
            ("mpesplit.models", "ssprk104", "flows.rk", self._ssprk),
        ]
        fft = self._plain("grid.fft", _fft_mb)
        for module in ("scipy.fft", "numpy.fft"):
            hooks += [(module, name, "grid.fft", fft) for name in FFT_NAMES]
        return hooks

    def install(self):
        for module, attr, group, factory in self._hooks():
            try:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(group)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        if "grid.a_flow" in self.missing:
            self.missing.add("flows.b_flow")
        if "models.energy" in self.missing:
            self.missing.add("models.diag")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict:
        """Per-round layer metrics from the recorded spans. Times are
        inclusive of child spans except the self times, which subtract the
        time covered by direct children."""
        calls, total, self_s, mb = defaultdict(int), defaultdict(float), defaultdict(float), 0.0
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, span_mb), child in zip(self.spans, covered):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
            mb += span_mb
        values = {
            "grid.a_flow.calls": calls["grid.a_flow"],
            "grid.a_flow.s": total["grid.a_flow"],
            "grid.fft.calls": calls["grid.fft"],
            "grid.fft.s": total["grid.fft"],
            "grid.fft.mb_computed": mb,
            "flows.b_flow.calls": calls["flows.b_flow"],
            "flows.b_flow.s": total["flows.b_flow"],
            "flows.rk.calls": calls["flows.rk"],
            "flows.rhs.calls": calls["flows.rhs"],
            "flows.rhs.s": total["flows.rhs"],
            "schemes.apply.calls": calls["schemes.apply"],
            "schemes.apply.s": total["schemes.apply"],
            "schemes.self_s": self_s["schemes.apply"],
            "models.energy.calls": calls["models.energy"],
            "models.energy.s": total["models.energy"],
            "models.diag.s": total["models.energy"] + total["models.mass"]
            + total["models.max_norm"],
            "harness.self_s": self_s["harness.op"],
        }
        return {name: value / rounds for name, value in values.items()
                if LAYER_METRICS[name] not in self.missing}

    def dump(self) -> list:
        """The spans as (name, start, end, parent) records."""
        return [span[:4] for span in self.spans]
