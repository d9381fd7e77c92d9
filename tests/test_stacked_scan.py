"""The stacked verdict scan against the draw-by-draw loop it replaced.

Everything between the two "Frozen oracle" markers is the per-draw path
`setloss.submodcheck` ran before its draws were scanned as stacks, copied
verbatim: one `draw_batch`, one kernel, one value table and one `dr_scan`
per draw, merged by `_merge`. It calls the library's one-matrix entry points
(`losses.matrices`, `backend.value_table`, `backend.dr_scan`), whose bits
tests/test_pure_backend.py pins to their own oracle. The stacked scan must
reproduce it exactly -- trials, tallies, the repr of min_margin and the
stored violations -- and it is not to be edited.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import kernels, losses, objectives, submodcheck
from setloss._backend import backend
from setloss.batch import EmbeddingBatch
from setloss.errors import (GroundSetTooLarge, NotPositiveDefinite, ValidationError, ZeroVector,
                            check_real)
from setloss.sampling import Rng
from setloss.submodcheck import (
    DRAW_DIM,
    ENUMERATION_BOUND,
    LatticeCheckResult,
    _bits_to_tuple,
)

# ---- Frozen oracle -------------------------------------------------------


def _table(objective: str, batch: EmbeddingBatch, config: losses.LossConfig):
    if batch.n > ENUMERATION_BOUND:
        raise GroundSetTooLarge(batch.n, ENUMERATION_BOUND)
    cfg = replace(config, objective=objective)
    s, d = losses.matrices(batch, cfg)
    return backend.value_table(objectives.get(objective), s, d, cfg.lam, cfg.margin)


def _scan_batch(objective: str, batch: EmbeddingBatch, config: losses.LossConfig,
                scan, *args) -> LatticeCheckResult:
    """One backend scan of the batch's table, its violations' sets still
    as bitmasks."""
    mm, compared, skipped, count, viols = scan(_table(objective, batch, config),
                                               batch.n, *args)
    return LatticeCheckResult(objective, batch.n, 1, viols, count,
                              float(mm), compared, skipped)


def draw_batch(rng: Rng, n: int, dim: int = DRAW_DIM) -> EmbeddingBatch:
    """Unit-normalized Gaussian embeddings; labels are a placeholder."""
    z = rng.normals((n, dim))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    return EmbeddingBatch(z, np.zeros(n, dtype=np.int64))


def _scan_draws(objective: str, config: losses.LossConfig, n: int,
                draws: int, seed: int, tolerance: float, stop_early: bool):
    """DR-scan `draws` seeded batches in order, or up to the first violating
    one when stopping early."""
    check_real("tolerance", tolerance, at_least=0)
    rng = Rng(seed)
    results = []
    for i in range(draws):
        res = _scan_batch(objective, draw_batch(rng.derive(i), n), config,
                          backend.dr_scan, tolerance, False)
        results.append(res)
        if stop_early and res.violation_count:
            break
    return results


def _merge(objective: str, n: int, per_draw) -> LatticeCheckResult:
    """Sum the draws' tallies and decode the first violating draw's list."""
    out = LatticeCheckResult(objective, n, len(per_draw))
    for res in per_draw:
        out.violation_count += res.violation_count
        if res.violation_count and not out.violations:
            out.violations = res.violations
        out.min_margin = min(out.min_margin, res.min_margin)
        out.compared += res.compared
        out.skipped += res.skipped
    out.violations = [(_bits_to_tuple(a, n), _bits_to_tuple(b, n), x, ga, gb)
                      for a, b, x, ga, gb in out.violations]
    return out

# ---- Frozen oracle ends --------------------------------------------------


RBF = submodcheck.CONSISTENCY_CONFIG
COSINE = submodcheck.COUNTEREXAMPLE_CONFIG
TOL = submodcheck.DEFAULT_TOLERANCE


def _serial(name, config, n, draws, seed, stop_early):
    return _merge(name, n, _scan_draws(name, config, n, draws, seed, TOL, stop_early))


def _fields(res):
    # repr tells -0.0 from 0.0 and shows every float exactly
    return repr((res.objective, res.n, res.trials, res.violation_count,
                 res.min_margin, res.compared, res.skipped, res.violations))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(3, 8), st.integers(0, 5000),
       st.integers(1, 9))
def test_stacked_draws_equal_per_draw_batches(seed, n, start, count):
    rng = Rng(seed)
    stack = submodcheck.draw_stack(rng, start, start + count, n)
    lone = [draw_batch(rng.derive(i), n).vectors for i in range(start, start + count)]
    assert _same_bits(stack, np.stack(lone))
    assert _same_bits(stack[0], submodcheck.draw_batch(rng.derive(start), n).vectors)


@pytest.mark.parametrize("kind", kernels.SIMILARITY_KINDS)
def test_stacked_kernels_equal_per_batch_kernels(kind):
    z = submodcheck.draw_stack(Rng(3), 0, 25, 7) * 1.7
    stack = kernels.similarity_and_distance(z, kind, 0.8)
    for k in range(len(z)):
        lone = kernels.similarity_and_distance(z[k], kind, 0.8)
        assert all(_same_bits(m[k], one) for m, one in zip(stack, lone)), k


@pytest.mark.parametrize("config", [COSINE, RBF], ids=["cosine", "rbf"])
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_stacked_value_tables_equal_per_draw_tables(name, config):
    for n, seed in ((5, 1), (6, 2), (7, 3)):
        z = submodcheck.draw_stack(Rng(seed), 0, 40, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tables = submodcheck._table(name, z, config)
        for k in range(len(z)):
            lone = _table(name, draw_batch(Rng(seed).derive(k), n), config)
            # NaN and infinity positions included
            assert _same_bits(tables[k], lone), (n, k)


# n = 4 and 6 scan in one stack (2048 and 341 draws a stack), n = 8 crosses
# one stack boundary (64 draws a stack) and n = 10 one (12 a stack). Each
# stack is tabulated whole, in one value_table call.
SCANS = [(4, 200), (6, 130), (8, 70), (10, 15)]


@pytest.mark.parametrize("config", [COSINE, RBF], ids=["cosine", "rbf"])
@pytest.mark.parametrize("n,draws", SCANS)
def test_consistency_scans_match_the_per_draw_loop(n, draws, config):
    assert (backend.tables_per_scan(n) < draws) == (n >= 8)
    for name in objectives.OBJECTIVES:
        got = submodcheck.consistency_scan(name, n, draws, seed=n, config=config)
        assert _fields(got) == _fields(_serial(name, config, n, draws, n, False)), name


def test_each_stack_is_tabulated_in_one_call(monkeypatch):
    # A 200-draw scan at n = 6 is one stack (341 draws a stack), and a
    # search that never violates tabulates each doubling stack whole, the
    # ones past 60 draws included.
    sizes = []
    tabulate = backend.value_table

    def counting(obj, s, d, *args):
        sizes.append(len(d if s is None else s))
        return tabulate(obj, s, d, *args)

    monkeypatch.setattr(backend, "value_table", counting)
    submodcheck.consistency_scan("fl", 6, 200)
    assert sizes == [200]
    sizes.clear()
    res = submodcheck.counterexample_search("fl", n=6, max_draws=200)
    assert (res.trials, res.violation_count) == (200, 0)
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 73]


@pytest.mark.parametrize("config", [COSINE, RBF], ids=["cosine", "rbf"])
@pytest.mark.parametrize("n,draws", SCANS)
def test_counterexample_searches_match_the_per_draw_loop(n, draws, config):
    # Cosine searches mostly stop early; rbf ones mostly spend the whole
    # budget, through stacks that double up to the cap.
    trials = set()
    for name in objectives.OBJECTIVES:
        for seed in range(4 if config is COSINE else 1):
            got = submodcheck.counterexample_search(name, config, n, draws, seed)
            want = _serial(name, config, n, draws, seed, True)
            assert _fields(got) == _fields(want), (name, seed)
            trials.add(got.trials)
    assert min(trials) == 1 and (max(trials) == draws or config is COSINE)


def test_searches_that_stop_inside_a_stack_match_the_per_draw_loop():
    # Early-stopping stacks hold draws 0, 1-2, 3-6, 7-14, 15-30, ... Each of
    # these searches stops before its stack's last draw.
    for name, n, seed, trials in (("n-pairs", 4, 1, 21), ("n-pairs", 4, 3, 9),
                                  ("n-pairs", 6, 0, 9), ("supcon", 6, 6, 4),
                                  ("snn", 6, 1, 2)):
        got = submodcheck.counterexample_search(name, n=n, max_draws=200, seed=seed)
        assert got.trials == trials
        assert _fields(got) == _fields(_serial(name, COSINE, n, 200, seed, True))


def test_the_first_zero_minimum_keeps_its_sign():
    # With the empty set included these n = 2 tables give margins 0.0 and
    # -0.0; each table keeps the one the loop met first, in a stack too.
    tables = np.array([[0.0, -0.0, 1.0, 1.0], [0.0, 1.0, -0.0, 1.0]])
    lone = [backend.dr_scan(t, 2, 0.0, True) for t in tables]
    assert lone[0][0] == lone[1][0] == 0.0
    assert math.copysign(1.0, lone[0][0]) != math.copysign(1.0, lone[1][0])
    stacked = backend.dr_scan(tables, 2, 0.0, True)
    assert [repr(float(m)) for m in stacked[0]] == [repr(t[0]) for t in lone]
    # Merged over draws, the first draw's zero wins whichever sign it has.
    for order in ([0, 1], [1, 0]):
        blocks = [[stacked[0][order], *(t[order] for t in stacked[1:4])]]
        merged = submodcheck._merge("fl", 2, blocks, [])
        assert repr(merged.min_margin) == repr(lone[order[0]][0])


def _raising_on_draw(monkeypatch, name, config, n, seed, draw):
    """Make `name`'s term raise NotPositiveDefinite whenever draw `draw` of
    seed `seed` is among the matrices it scores."""
    obj = objectives.get(name)
    target = losses.matrices(draw_batch(Rng(seed).derive(draw), n),
                             replace(config, objective=name))[0]

    def term(s, *args):
        if np.any(np.all(s == target, axis=(-2, -1))):
            raise NotPositiveDefinite(f"planted at draw {draw}")
        return obj.term(s, *args)

    monkeypatch.setitem(objectives._BY_NAME, name, dataclasses.replace(obj, term=term))


def _outcome(scan):
    try:
        return _fields(scan())
    except NotPositiveDefinite as exc:
        return f"NotPositiveDefinite: {exc}"


@pytest.mark.parametrize("draw", [2, 5, 7, 8, 9, 11, 14, 15])
def test_an_error_surfaces_only_where_the_per_draw_loop_meets_it(monkeypatch, draw):
    # This search stops at draw 8, inside the stack of draws 7-14.
    args = ("n-pairs", COSINE, 6, 1000, 0)
    clean = submodcheck.counterexample_search("n-pairs", n=6, seed=0)
    assert clean.trials == 9
    _raising_on_draw(monkeypatch, *args[:3], 0, draw)
    got = _outcome(lambda: submodcheck.counterexample_search("n-pairs", n=6, seed=0))
    want = _outcome(lambda: _serial(*args, True))
    assert got == want
    assert got.startswith("NotPositiveDefinite") == (draw <= 8)
    if draw > 8:
        assert got == _fields(clean)


def test_an_error_in_a_full_scan_surfaces_from_its_draw(monkeypatch):
    _raising_on_draw(monkeypatch, "gc-cf", RBF, 6, 0, 100)
    with pytest.raises(NotPositiveDefinite, match="planted at draw 100"):
        submodcheck.consistency_scan("gc-cf", 6, 200, seed=0)


def test_stacked_checks_stay():
    z = submodcheck.draw_stack(Rng(0), 0, 5, 6)
    z[3, 4] = 0.0
    with pytest.raises(ZeroVector) as info:
        kernels.cosine_similarity(z)
    assert info.value.index == 4
    s = np.stack([np.eye(3), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    with pytest.raises(NotPositiveDefinite):
        backend.value_table(objectives.get("logdet-sf"), s, None, 0.0, 0.2)
    z[3, 4] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        submodcheck._table("fl", z, RBF)
    with pytest.raises(GroundSetTooLarge):
        submodcheck.consistency_scan("fl", n=ENUMERATION_BOUND + 1, draws=1)


def test_a_stack_keeps_the_first_violating_tables_list():
    # At n = 10 a stack of two tables is judged one x at a time. Table 0 is
    # modular plus a bonus for holding both 8 and 9, so only x = 8 and 9
    # violate; table 1 is noise and violates from x = 0 on. The list kept
    # is still table 0's.
    n = 10
    bits = np.arange(1 << n)
    ones = (bits[:, None] >> np.arange(n)) & 1
    modular = ones @ np.linspace(0.5, 1.4, n)
    pair = modular + ((bits >> 8) & (bits >> 9) & 1)
    noise = np.random.default_rng(0).normal(size=1 << n)
    tables = np.stack([pair, noise])
    lone = [backend.dr_scan(t, n, TOL, False, 50) for t in tables]
    assert {x for _, _, x, _, _ in lone[0][4]} <= {8, 9} and lone[0][3] > 50
    assert lone[1][4][0][2] == 0
    stacked = backend.dr_scan(tables, n, TOL, False, 50)
    assert [[repr(v) for v in t.tolist()] for t in stacked[:4]] == [
        [repr(t[i]) for t in lone] for i in range(4)]
    assert stacked[4] == lone[0][4]
    assert backend.dr_scan(tables[::-1], n, TOL, False, 50)[4] == lone[1][4]


def _in_threads(*scans):
    """Run each scan in its own new thread, all started together and
    switching often; return their results in order, or raise the first
    error."""
    start = threading.Barrier(len(scans), timeout=60)
    out = [None] * len(scans)

    def run(i):
        start.wait()
        try:
            out[i] = scans[i]()
        except Exception as exc:  # re-raised in the calling thread
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(scans))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _arena_sequence():
    # n = 6 grows a new thread's arena to one 200-draw stack; n = 8 and
    # n = 3 reuse smaller parts of it, and the two-point scan with the empty
    # set a single pair per x.
    out = []
    for name, n, draws in (("submod-snn", 6, 200), ("submod-snn", 8, 9),
                           ("supcon", 3, 50)):
        got = submodcheck.consistency_scan(name, n, draws, seed=n, config=RBF)
        out.append((got, _serial(name, RBF, n, draws, n, False)))
    b = draw_batch(Rng(2), 2)
    got = submodcheck.exhaustive_dr_check("fl", b, COSINE, TOL, include_empty=True)
    lone = _scan_batch("fl", b, COSINE, backend.dr_scan, TOL, True)
    out.append((got, _merge("fl", 2, [lone])))
    got = submodcheck.consistency_scan("gc-cf", 6, 200, seed=6, config=RBF)
    out.append((got, _serial("gc-cf", RBF, 6, 200, 6, False)))
    return out


def test_scans_of_changing_shapes_share_one_arena():
    (results,) = _in_threads(_arena_sequence)
    assert results[0][1].violations and results[3][1].compared == 2
    for got, want in results:
        assert _fields(got) == _fields(want), got.objective


def test_no_stacked_result_points_into_the_arena():
    z = submodcheck.draw_stack(Rng(4), 0, 60, 6)
    first = backend.dr_scan(submodcheck._table("submod-snn", z, RBF), 6, TOL, False)
    kept = repr([np.array(t).tolist() for t in first[:4]] + [first[4]])
    assert first[3].all() and first[4]
    backend.dr_scan(submodcheck._table("supcon", z, COSINE), 6, TOL, False)
    backend.dr_scan(submodcheck._table("fl", z[:7, :5], RBF), 5, TOL, True)
    assert repr([np.array(t).tolist() for t in first[:4]] + [first[4]]) == kept


def test_two_threads_scanning_at_once_each_get_their_serial_result():
    scans = (lambda: submodcheck.consistency_scan("submod-snn", 6, 200, seed=1),
             lambda: submodcheck.counterexample_search("n-pairs", RBF, 8, 40, seed=2))
    serial = [_fields(scan()) for scan in scans]
    assert "submod-snn" in serial[0] and "'n-pairs', 8, 40, 0" in serial[1]
    # Each thread scans three times over, so their blocks interleave.
    both = _in_threads(*(lambda scan=scan: [_fields(scan()) for _ in range(3)]
                         for scan in scans))
    assert both == [[want] * 3 for want in serial]


def test_a_warm_scan_builds_its_margins_without_new_memory():
    # Allocating its margins per block, this scan peaked at 1.77 MB: two
    # gathered gain blocks, their difference and its masked copy, about
    # 0.5 MB each. In the arena it peaks at about 0.4 MB.
    submodcheck.consistency_scan("gc-cf", n=6, draws=200)
    tracemalloc.start()
    try:
        submodcheck.consistency_scan("gc-cf", n=6, draws=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
