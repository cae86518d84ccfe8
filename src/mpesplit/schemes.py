"""Splitting-scheme data model, the named catalog, Richardson construction,
and the engine applying a scheme to a pair of flows.

A scheme is a weighted sum of product chains. One term with stages
(a_1, b_1), ..., (a_m, b_m) advances a state u as

    u <- Phi_B(b_j * tau, Phi_A(a_j * tau, u))    for j = 1..m,

so the A substep of a stage runs before its B substep, and a trailing
b_m = 0 encodes a final pure-A substep. The scheme output is the
weight-c_i combination of the per-term results. Coefficients stay exact
rationals until the moment they multiply tau.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

F = Fraction


@dataclass(frozen=True)
class Term:
    weight: Fraction
    stages: tuple  # tuple of (a, b) Fraction pairs


@dataclass(frozen=True)
class SplitScheme:
    name: str
    claimed_order: int
    terms: tuple  # tuple of Term
    scheme_class: str  # "mpe_positive" | "spe" | "spe_negative"
    exact: bool = True  # False when coefficients are decimal truncations


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


def apply(scheme: SplitScheme, flows: FlowPair, tau: float, state):
    """One step of the scheme. Substeps with a zero coefficient are skipped;
    multi-term results are combined with compensated summation because the
    weights have mixed signs (up to 390625/72576 at order 10).

    The combine reuses four buffers per step, with the operations in the
    order y = w*r - comp, t = acc + y, comp = (t - acc) - y, acc = t."""
    results = []
    for ti, term in enumerate(scheme.terms):
        work = state
        for si, (a, b) in enumerate(term.stages):
            try:
                if a != 0:
                    work = flows.a_flow(float(a) * tau, work)
                if b != 0:
                    work = flows.b_flow(float(b) * tau, work)
            except Exception as exc:
                raise RuntimeError(
                    f"scheme {scheme.name} term {ti} stage {si}: {exc}"
                ) from exc
        if len(scheme.terms) == 1 and term.weight == 1:
            return work
        results.append((float(term.weight), work))
    first = results[0][1]
    acc = np.zeros(np.shape(first), dtype=np.result_type(first, float))
    comp = np.zeros_like(acc)
    y = np.empty_like(acc)
    t = np.empty_like(acc)
    for w, r in results:
        np.multiply(w, r, out=y)
        y -= comp
        np.add(acc, y, out=t)
        np.subtract(t, acc, out=comp)
        comp -= y
        acc, t = t, acc
    return acc


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
