"""Splitting-scheme data model, the named catalog, Richardson construction,
and the engine applying a scheme to a pair of flows.

A scheme is a weighted sum of product chains. One term with stages
(a_1, b_1), ..., (a_m, b_m) advances a state u as

    u <- Phi_B(b_j * tau, Phi_A(a_j * tau, u))    for j = 1..m,

so the A substep of a stage runs before its B substep, and a trailing
b_m = 0 encodes a final pure-A substep. The scheme output is the
weight-c_i combination of the per-term results. Coefficients stay exact
rationals until the moment they multiply tau.

The terms all start from the same input state and are independent of one
another, so `apply` can run them on two threads. Each scheme compiles once
into a `Plan`: every term's non-zero substeps with their float
coefficients, the float weights, and a fixed split of the terms into two
bins of about equal substep count. On a state larger than
`SERIAL_MAX_BYTES`, bin 0 runs on the calling thread and bin 1 on one
persistent helper thread; on a state of that size or less every term runs
on the calling thread, because there each NumPy call does only a few
microseconds of work and handing the interpreter lock between the threads
costs more than the second core gives. Either way the results are combined
in term order with compensated summation, so a step is bit-identical to
running the terms one after another.

`submit` is the one way onto the helper: `apply` hands it bin 1 and the
combine of a large state, and `harness.run` the diagnostics row of a
finished step. The helper runs its work first in, first out, so a row
handed over before a step runs ahead of that step's bin 1.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property

import numpy as np

from .grid import SpectralGrid, linear_propagate

F = Fraction


@dataclass(frozen=True)
class Term:
    weight: Fraction
    stages: tuple  # tuple of (a, b) Fraction pairs


@dataclass(frozen=True)
class Plan:
    """A scheme ready to run. `terms[i]` holds term i's non-zero substeps as
    (stage, flow, coefficient), flow 0 for A and 1 for B; `single` marks one
    term of weight 1, whose result is the step itself; `bins` are two tuples
    of term indices, each in term order."""
    terms: tuple
    weights: tuple
    single: bool
    bins: tuple


def _split(costs):
    """Term indices in two bins: longest term first, each into the lighter
    bin (bin 0 on a tie). Fixed per scheme, so no run depends on timing."""
    bins, loads = ([], []), [0, 0]
    for ti in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = 0 if loads[0] <= loads[1] else 1
        bins[k].append(ti)
        loads[k] += costs[ti]
    return tuple(tuple(sorted(b)) for b in bins)


@dataclass(frozen=True)
class SplitScheme:
    name: str
    claimed_order: int
    terms: tuple  # tuple of Term
    scheme_class: str  # "mpe_positive" | "spe" | "spe_negative"
    exact: bool = True  # False when coefficients are decimal truncations

    @cached_property
    def plan(self) -> Plan:
        """Built on first use and kept; a term's cost is its substep count."""
        terms = tuple(
            tuple((si, f, float(c))
                  for si, stage in enumerate(term.stages)
                  for f, c in enumerate(stage) if c != 0)
            for term in self.terms
        )
        return Plan(
            terms,
            tuple(float(t.weight) for t in self.terms),
            len(self.terms) == 1 and self.terms[0].weight == 1,
            _split([len(t) for t in terms]),
        )


@dataclass(frozen=True)
class FlowPair:
    a_flow: object  # callable (tau, state) -> state, identity at tau = 0
    b_flow: object


def _term(weight, stages):
    return Term(F(weight), tuple((F(a), F(b)) for a, b in stages))


def _scheme(name, order, terms, klass, exact=True):
    return SplitScheme(name, order, tuple(terms), klass, exact)


# the Yoshida coefficient s = (2 + 2^(1/3) + 2^(-1/3)) / 3, irrational;
# stored as the exact rational value of its 40-digit decimal truncation
with localcontext() as _ctx:
    _ctx.prec = 40
    _cbrt2 = Decimal(2) ** (Decimal(1) / Decimal(3))
    _S_NEG_DEC = (Decimal(2) + _cbrt2 + Decimal(1) / _cbrt2) / Decimal(3)
S_NEG = F(_S_NEG_DEC)


def richardson_weights(gammas):
    """c_i = prod_{j != i} gamma_i^2 / (gamma_i^2 - gamma_j^2), exact rationals."""
    gammas = tuple(int(g) for g in gammas)
    if len(set(gammas)) != len(gammas):
        raise ValueError(f"duplicate gamma in {gammas}")
    if any(g < 1 for g in gammas):
        raise ValueError(f"gammas must be positive integers, got {gammas}")
    weights = []
    for gi in gammas:
        c = F(1)
        for gj in gammas:
            if gj != gi:
                c *= F(gi * gi, gi * gi - gj * gj)
        weights.append(c)
    return weights


def _richardson_terms(gammas):
    weights = richardson_weights(gammas)
    terms = []
    for gi, c in zip(gammas, weights):
        # [A(t/2g) B(t/g) A(t/2g)]^g with adjacent A halves merged
        stages = [(F(1, 2 * gi), F(1, gi))]
        stages += [(F(1, gi), F(1, gi))] * (gi - 1)
        stages += [(F(1, 2 * gi), F(0))]
        terms.append(Term(c, tuple(stages)))
    return terms


def richardson_scheme(gammas) -> SplitScheme:
    """Weighted combination sum_i c_i [Strang(t/gamma_i)]^gamma_i."""
    gammas = tuple(int(g) for g in gammas)
    name = "richardson_" + "_".join(str(g) for g in gammas)
    return _scheme(name, 2 * len(gammas), _richardson_terms(gammas), "mpe_positive")


def _build_catalog():
    half = F(1, 2)
    lie1 = [_term(1, [(0, 1), (1, 0)])]
    lie2 = [_term(1, [(1, 1)])]
    strang_a = [_term(1, [(half, 1), (half, 0)])]
    strang_b = [_term(1, [(0, half), (1, half)])]
    sws2 = [_term(half, [(1, 1)]), _term(half, [(0, 1), (1, 0)])]
    s3_1 = [
        _term(F(2, 3), [(half, 1), (half, 0)]),
        _term(F(2, 3), [(0, half), (1, half)]),
        _term(F(-1, 6), [(0, 1), (1, 0)]),
        _term(F(-1, 6), [(1, 1)]),
    ]
    s3_2 = [
        _term(F(9, 8), [(0, F(1, 3)), (F(2, 3), F(2, 3)), (F(1, 3), 0)]),
        _term(F(-1, 8), [(0, 1), (1, 0)]),
    ]
    s4_1 = [
        _term(F(2, 3), [(0, half), (half, half), (half, 0)]),
        _term(F(2, 3), [(half, half), (half, half)]),
        _term(F(-1, 6), [(1, 1)]),
        _term(F(-1, 6), [(0, 1), (1, 0)]),
    ]
    s4_2 = [
        _term(F(2, 3), [(F(1, 4), half), (half, half), (F(1, 4), 0)]),
        _term(F(2, 3), [(0, F(1, 4)), (half, half), (half, F(1, 4))]),
        _term(F(-1, 6), [(half, 1), (half, 0)]),
        _term(F(-1, 6), [(0, half), (1, half)]),
    ]
    s4_3 = [
        _term(F(4, 3), [(F(1, 8), F(1, 4)), (F(3, 8), half), (F(3, 8), F(1, 4)), (F(1, 8), 0)]),
        _term(F(4, 3), [(0, F(1, 8)), (F(1, 4), F(3, 8)), (half, F(3, 8)), (F(1, 4), F(1, 8))]),
        _term(F(-5, 6), [(F(1, 4), half), (half, half), (F(1, 4), 0)]),
        _term(F(-5, 6), [(0, F(1, 4)), (half, half), (half, F(1, 4))]),
    ]
    s = S_NEG
    s4_neg = [
        Term(F(1), (
            (s / 2, s),
            ((1 - s) / 2, 1 - 2 * s),
            ((1 - s) / 2, s),
            (s / 2, F(0)),
        )),
    ]
    entries = {
        "lie1": _scheme("lie1", 1, lie1, "spe"),
        "lie2": _scheme("lie2", 1, lie2, "spe"),
        "strang_a": _scheme("strang_a", 2, strang_a, "spe"),
        "strang_b": _scheme("strang_b", 2, strang_b, "spe"),
        "sws2": _scheme("sws2", 2, sws2, "mpe_positive"),
        "s3_1": _scheme("s3_1", 3, s3_1, "mpe_positive"),
        "s3_2": _scheme("s3_2", 3, s3_2, "mpe_positive"),
        "s4_1": _scheme("s4_1", 4, s4_1, "mpe_positive"),
        "s4_2": _scheme("s4_2", 4, s4_2, "mpe_positive"),
        "s4_3": _scheme("s4_3", 4, s4_3, "mpe_positive"),
        "s4_4": _scheme("s4_4", 4, _richardson_terms((1, 2)), "mpe_positive"),
        "s6": _scheme("s6", 6, _richardson_terms((1, 2, 3)), "mpe_positive"),
        "s8": _scheme("s8", 8, _richardson_terms((1, 2, 3, 4)), "mpe_positive"),
        "s10": _scheme("s10", 10, _richardson_terms((1, 2, 3, 4, 5)), "mpe_positive"),
        "s4_neg": _scheme("s4_neg", 4, s4_neg, "spe_negative", exact=False),
    }
    return entries


_CATALOG = _build_catalog()


def catalog(name: str) -> SplitScheme:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; known: {', '.join(_CATALOG)}") from None


def catalog_names():
    return list(_CATALOG)


# A multi-term step runs on the calling thread alone on a state of up to
# this many bytes, and its two bins on two threads above it. On 2 cores, one
# step of the reaction and Allen-Cahn models took longer on two threads than
# on one at 64^2 and 128^2 real states (32 and 128 KiB) and at the 2 x 128^2
# reaction-diffusion system (256 KiB); in the quietest of three sweeps two
# threads won on every model from 192^2 real states (288 KiB) up.
SERIAL_MAX_BYTES = 256 * 1024

_helper_lock = threading.Lock()
_helper_pool = None


def _warm_up():
    """One linear substep and one gradient integral on a 16^2 grid.

    A thread's first array operations leave small blocks in its malloc
    cache: freed, kept for reuse, and never merged with their neighbours.
    Made here, before the helper holds any large array, they sit at the
    bottom of its heap. Made by its first real job, they sit between the
    state-sized blocks of a large grid and split the holes later blocks
    need; with diagnostics rows on the helper, that raised the peak memory
    of a 1024^2 `ac` run by one or two states in most runs."""
    grid = SpectralGrid(16, 1.0)
    grid.grad_sq_integral(linear_propagate(np.full(grid.shape, 0.5), 1.0, 0.1, grid))


def _helper() -> ThreadPoolExecutor:
    """The one persistent helper thread, started on first use.

    Its thread is started by `_warm_up` before any other work is handed to
    it, so a step always finds it idle: otherwise the first step's calling
    thread would wait in `Thread.start` while the new thread ran bin 1, and
    only then begin bin 0."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None:
            pool = ThreadPoolExecutor(1, thread_name_prefix="mpesplit-terms")
            pool.submit(_warm_up).result()
            _helper_pool = pool
        return _helper_pool


def submit(fn, *args) -> Future:
    """Run fn(*args) on the helper thread in a copy of the caller's context,
    so settings such as `np.errstate` apply there too; returns its future."""
    return _helper().submit(contextvars.copy_context().run, fn, *args)


def _forget_helper():
    """A forked child has no helper thread: let it start its own."""
    global _helper_lock, _helper_pool
    _helper_lock, _helper_pool = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_helper)


def _run_terms(plan, indices, flows, tau, state, results):
    """Run the terms at `indices` in that order, storing each result at its
    term index. Returns (term, stage, exception) for the first term that
    raises, which ends the run, or None."""
    flow = (flows.a_flow, flows.b_flow)
    for ti in indices:
        work = state
        for si, f, c in plan.terms[ti]:
            try:
                work = flow[f](c * tau, work)
            except Exception as exc:
                return ti, si, exc
        results[ti] = work
    return None


def _combine(weights, results):
    """sum_i weights[i] * results[i] in term order, with compensated
    summation in three buffers: y = w*r - comp, t = acc + y,
    comp = (t - acc) - y, acc = t, with t written over the old comp and the
    new comp over the old acc."""
    first = results[0]
    acc = np.zeros(np.shape(first), dtype=np.result_type(first, float))
    comp = np.zeros_like(acc)
    y = np.empty_like(acc)
    for w, r in zip(weights, results):
        np.multiply(w, r, out=y)
        y -= comp
        np.add(acc, y, out=comp)
        np.subtract(comp, acc, out=acc)
        acc -= y
        acc, comp = comp, acc
    return acc


def apply(scheme: SplitScheme, flows: FlowPair, tau: float, state):
    """One step of the scheme. Substeps with a zero coefficient are skipped;
    multi-term results are combined with compensated summation because the
    weights have mixed signs (up to 390625/72576 at order 10).

    On a state larger than `SERIAL_MAX_BYTES`, the terms of
    `scheme.plan.bins[0]` run on the calling thread while those of
    `bins[1]` run on the helper thread (`submit`), so the flows must allow
    two calls at once, and must not themselves call `apply` on a multi-term
    scheme. On a state of up to that size, where the hand-offs of the
    interpreter lock between the threads cost more than the second core
    gives, every term runs on the calling thread in term order, and so does
    the whole step of a single-term scheme, whose bin 1 is empty. Each
    substep is `flow(float(a) * tau, work)` as in a serial loop, and the
    results are combined in term order, so the step is bit-identical to
    running the terms one after another. If terms raise, the one with the
    lowest index surfaces as a `RuntimeError` naming the term and stage,
    with the original exception as its cause.

    After a two-bin step the combine also runs on the helper: each thread
    allocates from its own malloc arena, which keeps memory it has freed,
    so the combine's buffers then reuse what bin 1's substeps released
    instead of growing the calling thread's arena."""
    plan = scheme.plan
    results = [None] * len(plan.terms)
    two_bins = bool(plan.bins[1]) and np.asarray(state).nbytes > SERIAL_MAX_BYTES
    if two_bins:
        bin1 = submit(_run_terms, plan, plan.bins[1], flows, tau, state, results)
        failures = [_run_terms(plan, plan.bins[0], flows, tau, state, results), bin1.result()]
    else:
        failures = [_run_terms(plan, range(len(plan.terms)), flows, tau, state, results)]
    failures = [f for f in failures if f is not None]
    if failures:
        ti, si, exc = min(failures, key=lambda f: f[0])
        raise RuntimeError(f"scheme {scheme.name} term {ti} stage {si}: {exc}") from exc
    if plan.single:
        return results[0]
    if two_bins:
        return submit(_combine, plan.weights, results).result()
    return _combine(plan.weights, results)


def scheme_stats(scheme: SplitScheme) -> dict:
    """c_tilde = sum |c_i| and b = max_i sum_j b_ij from the stability bound."""
    sum_c_abs = sum(abs(t.weight) for t in scheme.terms)
    b_max = max(sum(b for _, b in t.stages) for t in scheme.terms)
    stage_count = sum(len(t.stages) for t in scheme.terms)
    return {"sum_c_abs": sum_c_abs, "b_max": b_max, "stage_count": stage_count}


def scheme_to_json(scheme: SplitScheme) -> str:
    doc = {
        "name": scheme.name,
        "claimed_order": scheme.claimed_order,
        "class": scheme.scheme_class,
        "exact": scheme.exact,
        "terms": [
            {
                "c": str(t.weight),
                "stages": [[str(a), str(b)] for a, b in t.stages],
            }
            for t in scheme.terms
        ],
    }
    return json.dumps(doc, indent=1)


def scheme_from_json(text: str) -> SplitScheme:
    doc = json.loads(text)
    terms = tuple(
        Term(F(t["c"]), tuple((F(a), F(b)) for a, b in t["stages"]))
        for t in doc["terms"]
    )
    # documents written before "exact" was serialized: only s4_neg is inexact
    exact = bool(doc.get("exact", doc["name"] != "s4_neg"))
    return SplitScheme(doc["name"], int(doc["claimed_order"]), terms, doc["class"], exact)
