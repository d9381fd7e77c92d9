"""Gradient entry weights against their frozen per-objective oracle, bit for bit.

Everything between the two "Frozen oracle" markers is the `_entry_weights`
rule chain `setloss.grads` ran before each objective's weight rule moved
into its `objectives` record, copied verbatim. It is the reference the
record rules must reproduce exactly -- every weight matrix, and None where
an objective writes no weights of that kind -- and is not to be edited.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from setloss import grads, kernels, losses
from setloss import objectives as registry
from setloss.batch import partition_from_labels
from setloss.errors import PreconditionError

# The oracle names each objective by its position in the registry, as
# `objectives.OBJ_CODE[name]`; the library itself passes records.
objectives = SimpleNamespace(
    OBJ_CODE={name: i for i, name in enumerate(registry.OBJECTIVES)})

# ---- Frozen oracle -------------------------------------------------------

def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = np.exp(v - np.max(v))
    return shifted / np.sum(shifted)


def _entry_weights(code, s, d, sets, lam, eps):
    """(dL/dS, dL/dD, dL/dD^2) as n x n matrices, or None where unused."""
    n = s.shape[0]
    everything = np.arange(n)
    ws = np.zeros((n, n))
    wd = wd2 = None

    if code == objectives.OBJ_CODE["logdet-cf"]:
        inv_full = np.linalg.inv(s + lam * np.eye(n))

    for members in sets:
        a = np.asarray(members, dtype=np.intp)
        comp = np.setdiff1d(everything, a, assume_unique=True)
        aa = np.ix_(a, a)

        if code == objectives.OBJ_CODE["triplet"]:
            if wd2 is None:
                wd2 = np.zeros((n, n))
            d2 = d * d
            for i in a:
                for p in a:
                    if p == i or comp.size == 0:
                        continue
                    active = d2[i, p] - d2[i, comp] + eps > 0.0
                    wd2[i, p] += float(np.sum(active))
                    wd2[i, comp] -= active.astype(float)

        elif code == objectives.OBJ_CODE["n-pairs"]:
            ws[aa] -= 1.0
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] -= inv_row[:, None]

        elif code == objectives.OBJ_CODE["opl"]:
            ws[aa] -= 1.0
            ws[np.ix_(a, comp)] += 1.0

        elif code == objectives.OBJ_CODE["snn"]:
            for i in a:
                own = a[a != i]
                if own.size:
                    ws[i, own] -= _softmax(s[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["supcon"]:
            ws[aa] -= 1.0 / a.size
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] += inv_row[:, None]

        elif code == objectives.OBJ_CODE["submod-triplet"]:
            ws[np.ix_(a, comp)] += 2.0 * s[np.ix_(a, comp)]
            ws[aa] -= 2.0 * s[aa]

        elif code == objectives.OBJ_CODE["submod-snn"]:
            if wd is None:
                wd = np.zeros((n, n))
            for i in a:
                own = a[a != i]
                if own.size:
                    wd[i, own] += _softmax(d[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["submod-supcon"]:
            ws[aa] -= 1.0
            for i in a:
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["gc-sf"]:
            ws[np.ix_(a, comp)] += 1.0
            ws[aa] -= lam

        elif code == objectives.OBJ_CODE["gc-cf"]:
            ws[np.ix_(a, comp)] += lam

        elif code == objectives.OBJ_CODE["logdet-sf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))

        elif code == objectives.OBJ_CODE["logdet-cf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))
            ws -= inv_full

        elif code == objectives.OBJ_CODE["fl"]:
            # Each outside row's weight goes to its first (lowest-index) max.
            ws[comp, a[np.argmax(s[np.ix_(comp, a)], axis=1)]] += 1.0

        else:
            raise ValueError(f"no gradient rule for objective code {code}")

    return ws, wd, wd2

# ---- Frozen oracle ends --------------------------------------------------


BATCHES = [(12, 8, 0), (12, 8, 1), (12, 8, 2), (240, 8, 1)]


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", registry.OBJECTIVES)
def test_entry_weights_match_frozen_oracle(name, kernel, lam):
    cfg = losses.LossConfig(name, lam, kernel=kernel, bandwidth=0.7)
    code = objectives.OBJ_CODE[name]
    judged = 0
    for shape in BATCHES:
        b = grads.check_batch(*shape)
        s, d = losses.matrices(b, cfg)
        try:
            losses.check_preconditions(b, cfg, s)
            old = _entry_weights(code, s, d, list(partition_from_labels(b.labels)),
                                 cfg.lam, cfg.margin)
        except PreconditionError:
            # Outside the objective's domain (n-pairs and supcon log
            # arguments, log-det blocks under neg-euclidean).
            continue
        new = grads._entry_weights(registry.get(name), s, d,
                                   list(partition_from_labels(b.labels)),
                                   cfg.lam, cfg.margin)
        for got, want in zip(new, old):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
        judged += 1
    assert judged or kernel == "neg-euclidean"

