"""Reference implementations of the scheme engine, for differential tests:
each term's chain of substeps, then the compensated combine with a fresh
array for every operation; and the reversibility defect of one chain with
its matrix exponentials multiplied up by hand."""

import numpy as np

from mpesplit.order import _expm_pade


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
        results.append(work)
    return combine_allocating([float(t.weight) for t in scheme.terms], results)


def combine_allocating(weights, results):
    acc = np.zeros_like(np.asarray(results[0], dtype=np.result_type(results[0], float)))
    comp = np.zeros_like(acc)
    for w, r in zip(weights, results):
        y = w * np.asarray(r) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


def reversibility_defect_by_hand(stages, oracle, tau):
    """|| S(tau) S(-tau) - I || in the spectral norm, each S the product of
    the chain's exponentials of a * t * A and b * t * B, zeros skipped."""

    def chain(t):
        S = np.eye(oracle.dimension)
        for a, b in stages:
            if a != 0:
                S = _expm_pade(float(a) * t * oracle.A) @ S
            if b != 0:
                S = _expm_pade(float(b) * t * oracle.B) @ S
        return S

    D = chain(tau) @ chain(-tau) - np.eye(oracle.dimension)
    return float(np.linalg.norm(D, 2))
