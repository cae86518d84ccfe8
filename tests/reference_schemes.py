"""Reference implementation of the scheme engine, for differential tests:
each term's chain of substeps, then the compensated combine with a fresh
array for every operation."""

import numpy as np


def apply_allocating(scheme, flows, tau, state):
    results = []
    for term in scheme.terms:
        work = state
        for a, b in term.stages:
            if a != 0:
                work = flows.a_flow(float(a) * tau, work)
            if b != 0:
                work = flows.b_flow(float(b) * tau, work)
        if len(scheme.terms) == 1 and term.weight == 1:
            return work
        results.append((float(term.weight), work))
    acc = np.zeros_like(np.asarray(results[0][1], dtype=np.result_type(results[0][1], float)))
    comp = np.zeros_like(acc)
    for w, r in results:
        y = w * np.asarray(r) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc
