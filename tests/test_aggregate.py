import copy
import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from typodist.aggregate import AggregationMode, _aggregate, _binary, _masked_gram, aggregate
from typodist.errors import (
    EmptySourceSubset,
    UnknownFeature,
    UnknownLanguage,
    UnknownSource,
)
from typodist.kb import (Category, FeatureDescriptor, LanguageRecord, SourceColumn, TensorBatch,
                         feature_columns)

from conftest import make_tensor

aggregate_module = sys.modules["typodist.aggregate"]  # the package binds the name to the function


def _three_source_tensor():
    cells = [
        ("abcd1234", "S_F1", "SRC_A", 1.0),
        ("abcd1234", "S_F1", "SRC_B", 0.0),
        # SRC_C missing for S_F1
        ("abcd1234", "S_F2", "SRC_C", 1.0),
    ]
    tensor = make_tensor(["abcd1234"], ["S_F1", "S_F2", "S_F3"], cells)
    tensor.add_source("SRC_C")
    return tensor


def test_union_takes_max_of_known():
    m = aggregate(_three_source_tensor(), AggregationMode.UNION)
    assert m.values[0, 0] == 1.0


def test_average_takes_mean_of_known():
    m = aggregate(_three_source_tensor(), AggregationMode.AVERAGE)
    assert m.values[0, 0] == 0.5


def test_all_missing_stays_missing():
    m = aggregate(_three_source_tensor(), AggregationMode.UNION)
    assert np.isnan(m.values[0, 2])


def test_empty_subset_rejected():
    with pytest.raises(EmptySourceSubset):
        aggregate(_three_source_tensor(), AggregationMode.UNION, sources=[])


def test_union_dominates_average_property():
    rng = np.random.default_rng(23)
    for trial in range(30):
        langs = [f"l{i:03d}1234" for i in range(4)]
        feats = [f"S_F{j}" for j in range(5)]
        cells = [
            (l, f, src, float(rng.random()))
            for l in langs
            for f in feats
            for src in ("SRC_A", "SRC_B", "SRC_C")
            if rng.random() < 0.5
        ]
        if not cells:
            continue
        tensor = make_tensor(langs, feats, cells)
        union = aggregate(tensor, AggregationMode.UNION).values
        avg = aggregate(tensor, AggregationMode.AVERAGE).values
        assert np.array_equal(np.isnan(union), np.isnan(avg))
        known = ~np.isnan(union)
        assert np.all(union[known] >= avg[known] - 1e-15)


def test_single_source_idempotence():
    rng = np.random.default_rng(29)
    langs = [f"l{i:03d}1234" for i in range(3)]
    feats = [f"P_F{j}" for j in range(4)]
    cells = [
        (l, f, "ONLY", float(rng.random()))
        for l in langs
        for f in feats
        if rng.random() < 0.6
    ]
    tensor = make_tensor(langs, feats, cells)
    union = aggregate(tensor, AggregationMode.UNION).values
    avg = aggregate(tensor, AggregationMode.AVERAGE).values
    known = ~np.isnan(union)
    assert np.array_equal(union[known], avg[known])
    stored = {(l, f): v for l, f, _s, v in tensor.iter_cells()}
    for (l, f), v in stored.items():
        i, j = langs.index(l), feats.index(f)
        assert union[i, j] == v


def test_subset_never_creates_data():
    tensor = _three_source_tensor()
    full = aggregate(tensor, AggregationMode.UNION)
    sub = aggregate(tensor, AggregationMode.UNION, sources=["SRC_A"])
    assert np.all(np.isnan(sub.values) >= np.isnan(full.values))
    # S_F2 only exists in SRC_C, so the SRC_A view loses it
    assert np.isnan(sub.values[0, 1]) and full.values[0, 1] == 1.0


def test_cache_reused_then_invalidated_on_extend():
    tensor = _three_source_tensor()
    first = aggregate(tensor, AggregationMode.UNION)
    assert aggregate(tensor, AggregationMode.UNION) is first
    tensor.extend_with(TensorBatch(cells=[("abcd1234", "S_F3", "SRC_A", 1.0)]))
    fresh = aggregate(tensor, AggregationMode.UNION)
    assert fresh is not first
    assert fresh.values[0, 2] == 1.0


def test_cache_invalidated_by_add_language():
    tensor = _three_source_tensor()
    tensor.extend_with(TensorBatch(languages=[LanguageRecord("abcd5678")],
                                   cells=[("abcd5678", "S_F1", "SRC_A", 0.0)]))
    first = aggregate(tensor, AggregationMode.UNION)
    tensor.add_language(LanguageRecord("efgh5678"))
    fresh = aggregate(tensor, AggregationMode.UNION)
    assert fresh is not first
    assert np.isnan(fresh.values[fresh.language_index("efgh5678")]).all()


def test_a_write_frees_the_stale_matrix_at_once():
    tensor = _three_source_tensor()
    stale = weakref.ref(aggregate(tensor, AggregationMode.UNION))
    tensor.extend_with(TensorBatch(cells=[("abcd1234", "S_F3", "SRC_A", 1.0)]))
    gc.collect()
    assert stale() is None


def test_concurrent_cold_builders_share_one_matrix():
    """Each round one thread writes (the barrier action: a new source with
    one cell), then 8 threads ask for the same cold key at once; all must
    get the one object kept."""
    tensor = _three_source_tensor()
    n_threads, rounds = 8, 50
    step = itertools.count()

    def extend():
        i = next(step)
        tensor.extend_with(TensorBatch(sources=[f"SRC_N{i}"],
                                       cells=[("abcd1234", "S_F3", f"SRC_N{i}", float(i % 2))]))

    barrier = threading.Barrier(n_threads, timeout=30, action=extend)
    got = [[None] * n_threads for _ in range(rounds)]
    errors = []

    def worker(k):
        try:
            for r in range(rounds):
                barrier.wait()
                got[r][k] = aggregate(tensor, AggregationMode.AVERAGE, ["SRC_B", "SRC_A"])
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for matrices in got:
        assert all(m is matrices[0] for m in matrices)
    assert len({id(matrices[0]) for matrices in got}) == rounds


def test_numpy_string_names_read_as_plain_strings_in_errors():
    tensor = _three_source_tensor()
    matrix = aggregate(tensor, AggregationMode.UNION)
    with pytest.raises(UnknownFeature) as feature:
        feature_columns(matrix.features, [np.str_("S_X")])
    with pytest.raises(UnknownLanguage) as language:
        matrix.language_index(np.str_("zzzz9999"))
    with pytest.raises(UnknownSource) as source:
        aggregate(tensor, AggregationMode.UNION, [np.str_("NOPE")])
    assert str(feature.value) == "unknown feature: 'S_X'"
    assert str(language.value) == "unknown language: 'zzzz9999'"
    assert str(source.value) == "unknown source: 'NOPE'"
    # plain str and non-str names read as before
    assert str(UnknownFeature("S_X")) == "unknown feature: 'S_X'"
    assert str(UnknownSource(3)) == "unknown source: 3"


def test_provenance_records_source_subset():
    tensor = _three_source_tensor()
    m = aggregate(tensor, AggregationMode.UNION, sources=["SRC_B", "SRC_A", "SRC_B"])
    assert m.provenance == ("SRC_B", "SRC_A")


def test_single_source_name_equals_one_element_list():
    tensor = _three_source_tensor()
    by_name = aggregate(tensor, AggregationMode.UNION, "SRC_C")
    assert by_name is aggregate(tensor, AggregationMode.UNION, ["SRC_C"])
    assert by_name.provenance == ("SRC_C",)


def test_concurrent_eviction_after_extend_never_raises():
    """8 threads alternate a write and a burst of concurrent aggregates.

    Each round one thread extends the tensor by a new source with one cell
    (the barrier action, so no write overlaps a read), then all 8 threads
    aggregate the new state at the same time, each key cold; none of them
    may raise.
    """
    tensor = _three_source_tensor()
    n_threads, rounds = 8, 200
    subsets = [None, ["SRC_A"], ["SRC_B", "SRC_C"]]
    step = itertools.count()

    def extend():
        i = next(step)
        tensor.extend_with(TensorBatch(sources=[f"SRC_N{i}"],
                                       cells=[("abcd1234", "S_F3", f"SRC_N{i}", float(i % 2))]))

    barrier = threading.Barrier(n_threads, action=extend, timeout=30)
    errors = []

    def worker(k):
        try:
            for r in range(rounds):
                barrier.wait()
                for mode in AggregationMode:
                    aggregate(tensor, mode, subsets[(k + r) % len(subsets)])
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert tensor.version > rounds


def test_aggregate_while_writing_sees_only_whole_writes():
    """One writer extends the tensor while three threads aggregate it.

    Every matrix a reader gets must equal the cold aggregate of a state
    the writer passed through: before or after one of its batches, never
    part of one.
    """
    rng = np.random.default_rng(41)
    langs = [f"l{i:03d}1234" for i in range(6)]
    feats = [f"S_F{j}" for j in range(5)]
    sources = ["SRC_A", "SRC_B", "SRC_C"]
    start = [(l, f, s, 1.0) for l in langs for f in feats for s in sources if rng.random() < 0.3]
    known = {cell[:3]: cell[3] for cell in start}  # a cell drawn again gets its first value back
    batches = []
    for k in range(300):
        new_lang = [LanguageRecord(f"n{k:03d}1234")] if k % 3 == 0 else []
        new_feat = [FeatureDescriptor(f"P_N{k}", Category.PHONOLOGICAL)] if k % 7 == 0 else []
        names = langs + [r.glottocode for b in batches for r in b.languages] \
            + [r.glottocode for r in new_lang]
        fnames = feats + [f.name for b in batches for f in b.features] + [f.name for f in new_feat]
        cells = [(names[int(rng.integers(len(names)))], fnames[int(rng.integers(len(fnames)))],
                  sources[int(rng.integers(3))], float(rng.choice([0.0, 0.5, 1.0])))
                 for _ in range(8)]
        cells = [(*cell[:3], known.setdefault(cell[:3], cell[3])) for cell in cells]
        batches.append(TensorBatch(languages=new_lang, features=new_feat, cells=cells))

    def fresh():
        return make_tensor(langs, feats, start, sources=sources)

    tensor = fresh()
    subsets = [None, ["SRC_A"], ["SRC_C", "SRC_B"]]
    seen, errors, done = [], [], threading.Event()

    def writer():
        try:
            for batch in batches:
                tensor.extend_with(batch)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    def reader(k):
        try:
            while not done.is_set():
                for mode in AggregationMode:
                    sel = subsets[(k + len(seen)) % len(subsets)]
                    m = aggregate(tensor, mode, sel)
                    seen.append((mode, m.provenance, tuple(m.languages),
                                 tuple(f.name for f in m.features), m.values.tobytes()))
        except Exception as exc:
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []

    # replay the writes one batch at a time, aggregating each state cold
    replay = fresh()
    states = set()
    for step in range(len(batches) + 1):
        for mode in AggregationMode:
            for sel in subsets:
                m = _aggregate(replay.snapshot(), mode,
                               tuple(replay.sources) if sel is None else tuple(sel))
                states.add((mode, m.provenance, tuple(m.languages),
                            tuple(f.name for f in m.features), m.values.tobytes()))
        if step < len(batches):
            replay.extend_with(batches[step])
    assert len(set(seen)) > 10  # the readers overlapped many writes
    assert all(matrix in states for matrix in seen)


class _WritesAfterFirstRead:
    """A tensor that adds a language and a source, with a cell, right after
    its first attribute is read: a write between two reads of one request."""

    def __init__(self, tensor):
        self._tensor = tensor
        self._pending = TensorBatch(languages=[LanguageRecord("late1234")],
                                    cells=[("late1234", "S_F1", "SRC_LATE", 1.0)],
                                    sources=["SRC_LATE"])

    def __getattr__(self, name):
        value = getattr(self._tensor, name)
        if self._pending is not None:
            batch, self._pending = self._pending, None
            self._tensor.extend_with(batch)
        return value


def test_aggregate_keys_builds_and_caches_from_one_state():
    """A write between aggregate's reads of the tensor must not give a
    matrix of the new languages over the old sources."""
    for mode in AggregationMode:
        tensor = _three_source_tensor()
        before = _aggregate(tensor.snapshot(), mode, tuple(tensor.sources))
        m = aggregate(_WritesAfterFirstRead(tensor), mode)
        after = _aggregate(tensor.snapshot(), mode, tuple(tensor.sources))
        whole = [(s.provenance, s.languages, s.values.tobytes()) for s in (before, after)]
        assert (m.provenance, m.languages, m.values.tobytes()) in whole
        # whatever the published state keeps is its own cold aggregate
        for key, cached in tensor.derived.items():
            cold = _aggregate(tensor.snapshot(), *key)
            assert cached.languages == cold.languages
            assert cached.values.tobytes() == cold.values.tobytes()


def _aggregate_2d(snap, mode, provenance):
    """The cold aggregate as it was written with (language, feature) index
    pairs instead of flat indices: the oracle for _aggregate's values."""
    columns = [snap.columns[si] for si in sorted({snap.source_index(s) for s in provenance})]
    shape = (len(snap.languages), len(snap.features))
    values = np.full(shape, np.nan)
    if mode is AggregationMode.UNION:
        for col in columns:
            at = (col.language, col.feature)
            values[at] = np.fmax(values[at], col.value)
    else:
        total = np.zeros(shape)
        count = np.zeros(shape)
        for col in columns:
            at = (col.language, col.feature)
            total[at] += col.value
            count[at] += 1
        np.divide(total, count, out=values, where=count > 0)
    return values


def _aggregate_fixtures():
    """(tensor, source subsets): 25 seeded tensors of 1 to 4 sources with all,
    reversed and one-source subsets, then one of 300 sources that share a few
    cells, so a cell's source count needs more than 8 bits."""
    rng = np.random.default_rng(29)
    for _trial in range(25):
        langs = [f"l{i:03d}1234" for i in range(int(rng.integers(1, 60)))]
        feats = [f"S_F{j}" for j in range(int(rng.integers(1, 40)))]
        srcs = ["SRC_A", "SRC_B", "SRC_C", "SRC_D"][: int(rng.integers(1, 5))]
        fill = rng.random()
        cells = [(lang, f, s, float(rng.choice([0.0, 1.0, rng.random()])))
                 for lang in langs for f in feats for s in srcs if rng.random() < fill]
        tensor = make_tensor(langs, feats, cells, sources=srcs)
        yield tensor, [tuple(srcs), tuple(reversed(srcs))] + [(s,) for s in srcs]
    langs, feats = ["aaaa1234", "bbbb1234", "cccc1234"], ["S_F1", "S_F2", "S_F3"]
    srcs = [f"SRC_{k:03d}" for k in range(300)]
    # every source knows (aaaa, S_F1); the first 256 know (bbbb, S_F2), a
    # count an 8-bit counter wraps to 0; a few know a cell of their own
    cells = [("aaaa1234", "S_F1", s, float(rng.choice([0.0, 1.0, rng.random()]))) for s in srcs]
    cells += [("bbbb1234", "S_F2", s, float(rng.random())) for s in srcs[:256]]
    cells += [(str(rng.choice(langs)), str(rng.choice(feats)), s, 1.0) for s in srcs[::37]]
    tensor = make_tensor(langs, feats, cells, sources=srcs)
    yield tensor, [tuple(srcs), tuple(reversed(srcs)), tuple(srcs[::2]), (srcs[0],), (srcs[-1],)]


def test_flat_index_aggregate_equals_the_index_pair_oracle_bit_for_bit():
    for tensor, subsets in _aggregate_fixtures():
        snap = tensor.snapshot()
        for mode, provenance in itertools.product(AggregationMode, subsets):
            got = _aggregate(snap, mode, provenance).values
            want = _aggregate_2d(snap, mode, provenance)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (mode, provenance)


def test_one_source_scopes_share_one_read_only_values_array():
    tensor = _three_source_tensor()
    union = aggregate(tensor, AggregationMode.UNION, "SRC_A")
    average = aggregate(tensor, AggregationMode.AVERAGE, ["SRC_A", "SRC_A"])
    assert union is not average and union.values is average.values
    assert not union.values.flags.writeable
    with pytest.raises(ValueError):
        union.values[0, 0] = 0.5
    both = aggregate(tensor, AggregationMode.UNION, ["SRC_A", "SRC_B"]).values
    assert both is not aggregate(tensor, AggregationMode.AVERAGE, ["SRC_A", "SRC_B"]).values

    tensor.extend_with(TensorBatch(cells=[("abcd1234", "S_F3", "SRC_A", 1.0)]))
    # average first this time: it builds the union entry it shares
    fresh = [aggregate(tensor, mode, "SRC_A").values
             for mode in (AggregationMode.AVERAGE, AggregationMode.UNION)]
    assert fresh[0] is fresh[1] and fresh[0] is not union.values
    assert fresh[0][0, 2] == 1.0 and np.isnan(union.values[0, 2])


def _gram_fixtures(n_fixtures=60):
    """Seeded rows with NaN for missing: shapes 1 x 1 to 40 x 30, missing
    fractions 0 to 1, 0/1 or fractional values. Every third has an
    all-missing row, and every other 0/1 one writes its zeros as -0.0."""
    rng = np.random.default_rng(33)
    corners = [(1, 1), (40, 30), (40, 1), (1, 30)]
    for i in range(n_fixtures):
        n, m = corners[i] if i < len(corners) else rng.integers(1, (41, 31))
        binary = i % 2 == 0
        x = rng.integers(0, 2, (n, m)).astype(float) if binary else rng.random((n, m))
        x[rng.random((n, m)) < (0.0, 1.0, rng.random(), rng.random())[i % 4]] = np.nan
        if i % 3 == 0:
            x[rng.integers(n)] = np.nan
        if binary and i % 4 == 2:
            x[x == 0.0] = -0.0
        yield x, binary


def _gram_oracle(x):
    """(shared counts, squared norms, dot products) as per-pair sums over shared features."""
    n = len(x)
    known = ~np.isnan(x)
    counts, squares, dots = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        shared = known[i] & known[j]
        u, v = x[i, shared], x[j, shared]
        counts[i, j] = shared.sum()
        squares[i, j] = math.fsum(u * u)
        dots[i, j] = math.fsum(u * v)
    return counts, squares, dots


def test_masked_gram_equals_per_pair_sums_over_shared_features():
    seen = set()
    for x, binary in _gram_fixtures():
        got = _masked_gram(x)
        for g, want in zip(got, _gram_oracle(x)):
            assert g.shape == want.shape
            if binary:
                assert (g == want).all()  # sums of 0s and 1s are exact in any order
            else:
                assert np.allclose(g, want, rtol=0.0, atol=1e-12)
        # kNN's sums rely on this: a -0.0 in x reaches neither array
        assert not np.signbit(got[0]).any() and not np.signbit(got[1]).any()
        cases = {
            "one column": x.shape[1] == 1,
            "all-missing row": np.isnan(x).all(axis=1).any(),
            "-0.0": np.signbit(x[x == 0.0]).any(),
            "no missing": not np.isnan(x).any(),
            "all missing": np.isnan(x).all(),
        }
        seen.update(case for case, hit in cases.items() if hit)
    assert seen == set(cases)


@pytest.mark.parametrize("values, binary", [
    ([0.0, 1.0, -0.0], True),
    ([np.nan, 1.0, np.nan, 0.0], True),  # NaN is missing, not a value
    ([np.nan, np.nan], True),
    ([], True),
    ([1.0, 1.0 + 2.0**-52], False),
    ([0.0, 0.5], False),
    ([np.inf, 0.0], False),
])
def test_binary_is_every_known_value_zero_or_one(values, binary):
    x = np.array(values, dtype=float)
    assert bool(_binary(x)) is binary
    assert _binary(x.reshape(1, -1), axis=1).tolist() == [binary]


def test_binary_per_row():
    rows = np.array([[0.0, 1.0], [0.0, 0.5], [np.nan, -0.0], [np.nan, np.nan]])
    assert _binary(rows, axis=1).tolist() == [True, False, True, True]
    assert not _binary(rows)


# --- unions updated from the tensor's last union ----------------------------


def _log_tensor():
    """20 languages x 10 features, about 100 cells in each of SRC_A and SRC_B."""
    rng = np.random.default_rng(5)
    langs, feats = [f"l{i:02d}x1234" for i in range(20)], [f"S_F{j}" for j in range(10)]
    cells = [(lang, feat, src, float(rng.choice([0.0, 0.5, 1.0]))) for lang in langs
             for feat in feats for src in ("SRC_A", "SRC_B") if rng.random() < 0.5]
    return make_tensor(langs, feats, cells)


def _missing(tensor, src, n):
    """n (glottocode, feature) cells that src does not hold."""
    return [(lang.glottocode, feat.name) for lang in tensor.languages for feat in tensor.features
            if tensor.get_cell(lang.glottocode, feat.name, src) is None][:n]


def _union_builds(tensor, monkeypatch, sources=None):
    """The union of sources and whether it was built cold, checked against a cold build."""
    cold = []
    build = aggregate_module._aggregate
    monkeypatch.setattr(aggregate_module, "_aggregate", lambda *a: cold.append(a) or build(*a))
    matrix = aggregate(tensor, AggregationMode.UNION, sources)
    monkeypatch.undo()
    snap = tensor.snapshot()
    want = _aggregate(snap._replace(derived={}), AggregationMode.UNION, matrix.provenance)
    assert matrix.values.tobytes() == want.values.tobytes()
    return matrix, bool(cold)


def test_a_union_after_writes_updates_the_last_union(monkeypatch):
    tensor = _log_tensor()
    first, cold = _union_builds(tensor, monkeypatch)
    assert cold
    kept = first.values.tobytes()
    for lang, feat in _missing(tensor, "SRC_A", 3):
        tensor.extend_with(TensorBatch(cells=[(lang, feat, "SRC_A", 1.0)]))
    second, cold = _union_builds(tensor, monkeypatch)
    # first's array is copied, never changed; the tensor keeps only the newer one
    assert not cold and second.values is not first.values and first.values.tobytes() == kept
    assert aggregate_module._last_union[tensor][3] is second.values
    assert not second.values.flags.writeable
    tensor.extend_with(TensorBatch(cells=[(*_missing(tensor, "SRC_B", 1)[0], "SRC_B", 0.0)]))
    assert not _union_builds(tensor, monkeypatch)[1]


def test_a_union_is_built_cold_only_where_the_shape_or_the_sources_changed(monkeypatch):
    tensor = _log_tensor()
    lang, feat = _missing(tensor, "SRC_A", 1)[0]
    _union_builds(tensor, monkeypatch)
    for write in [
        TensorBatch(cells=[(lang, feat, "SRC_A", 1.0)]),  # updated: the control
        TensorBatch(languages=[LanguageRecord("newl1234")]),
        TensorBatch(features=[FeatureDescriptor("S_NEW", Category.SYNTACTIC)]),
        TensorBatch(sources=["SRC_C"]),  # cold: the all-source scope gained a source
        # updated: a write of many cells, which folds SRC_B's delta
        TensorBatch(cells=[(*c, "SRC_B", 1.0) for c in _missing(tensor, "SRC_B", 40)]),
    ]:
        tensor.extend_with(write)
        cold = bool(write.languages or write.features or write.sources)
        assert _union_builds(tensor, monkeypatch)[1] == cold, write


def test_a_union_is_built_cold_for_another_scope_or_an_older_state(monkeypatch):
    tensor = _log_tensor()
    _union_builds(tensor, monkeypatch)
    older = copy.copy(tensor)  # bound to this state
    tensor.extend_with(TensorBatch(cells=[(*_missing(tensor, "SRC_A", 1)[0], "SRC_A", 1.0)]))
    assert _union_builds(tensor, monkeypatch, ["SRC_A"])[1]  # the last union was of both
    assert not _union_builds(tensor, monkeypatch, ["SRC_A"])[1]  # a hit in the state's cache
    assert _union_builds(older, monkeypatch, ["SRC_A"])[1]  # a copy keeps no union of its own
    # a builder that read the state before the write, as a racing one may,
    # builds cold and leaves the newer union kept
    kept, cold, build = aggregate_module._last_union[tensor], [], aggregate_module._aggregate
    monkeypatch.setattr(aggregate_module, "_aggregate", lambda *a: cold.append(a) or build(*a))
    stale = aggregate_module._built(tensor, older.snapshot(), AggregationMode.UNION, ("SRC_A",))
    monkeypatch.undo()
    want = _aggregate(older.snapshot()._replace(derived={}), AggregationMode.UNION, ("SRC_A",))
    assert cold and stale.values.tobytes() == want.values.tobytes()
    assert aggregate_module._last_union[tensor] is kept


def test_a_union_is_updated_across_a_fold(monkeypatch):
    tensor = _log_tensor()
    a = tensor.source_index("SRC_A")
    free = _missing(tensor, "SRC_A", 23)
    tensor.extend_with(TensorBatch(cells=[(*c, "SRC_A", 0.5) for c in free[:3]]))
    _union_builds(tensor, monkeypatch)  # of a state with cells in SRC_A's delta
    before = tensor.snapshot().layers[a]
    assert len(before.delta.key) == 3
    # 3 + 20 delta cells pass an eighth of the base's: the delta folds
    tensor.extend_with(TensorBatch(cells=[(*c, "SRC_A", 1.0) for c in free[3:]]))
    after = tensor.snapshot().layers[a]
    assert after.base is not before.base and not len(after.delta.key)
    assert not _union_builds(tensor, monkeypatch)[1]


def test_a_union_is_updated_across_an_adopted_column(monkeypatch):
    tensor = _log_tensor()
    tensor.add_source("SRC_C")
    _union_builds(tensor, monkeypatch)
    column = tensor.snapshot().layers[tensor.source_index("SRC_A")].merged
    tensor.adopt_columns({"SRC_C": SourceColumn(column.key.copy(), 1.0 - column.value)})
    assert not _union_builds(tensor, monkeypatch)[1]


def test_a_union_of_named_sources_is_updated_across_a_source_registration(monkeypatch):
    tensor = _log_tensor()
    _union_builds(tensor, monkeypatch)  # all sources: SRC_A and SRC_B
    lang, feat = _missing(tensor, "SRC_A", 1)[0]
    tensor.extend_with(TensorBatch(sources=["SRC_C"], cells=[(lang, feat, "SRC_A", 1.0),
                                                             (lang, feat, "SRC_C", 0.0)]))
    assert not _union_builds(tensor, monkeypatch, ["SRC_B", "SRC_A"])[1]
    assert _union_builds(tensor, monkeypatch)[1]  # all sources now name SRC_C too


def _checkered_tensor():
    """20 x 20, SRC_A holding the cells whose language and feature numbers
    have an odd sum: 200 cells, and 200 missing."""
    langs, feats = [f"l{i:03d}" for i in range(20)], [f"S_F{j}" for j in range(20)]
    return make_tensor(langs, feats, [(lang, feat, "SRC_A", float(i % 3) / 2)
                                      for i, lang in enumerate(langs)
                                      for j, feat in enumerate(feats) if (i + j) % 2])


def test_one_union_is_cold_over_many_small_writes(monkeypatch):
    rng = np.random.default_rng(3)
    tensor = _checkered_tensor()
    free = _missing(tensor, "SRC_A", 200)
    cold = []
    for k in rng.permutation(len(free)).tolist():
        tensor.extend_with(TensorBatch(cells=[(*free[k], "SRC_A", float(rng.choice([0, 0.5, 1])))]))
        cold.append(_union_builds(tensor, monkeypatch)[1])
    assert len(cold) == 200 and cold[0] and cold.count(True) == 1


def test_a_union_keeps_no_base_alive(monkeypatch):
    tensor = _log_tensor()
    a = tensor.source_index("SRC_A")
    _union_builds(tensor, monkeypatch)
    base = weakref.ref(tensor.snapshot().layers[a].base.key)
    tensor.extend_with(TensorBatch(cells=[(*c, "SRC_A", 1.0) for c in _missing(tensor, "SRC_A", 20)]))
    gc.collect()
    assert base() is None  # the fold freed it
    assert not _union_builds(tensor, monkeypatch)[1]


def test_copies_that_write_different_cells_keep_unions_of_their_own(monkeypatch):
    tensor = _checkered_tensor()
    tensor.extend_with(TensorBatch(cells=[("l000", "S_F0", "SRC_A", 0.5)]))
    _union_builds(tensor, monkeypatch)
    other = copy.copy(tensor)
    other.extend_with(TensorBatch(cells=[("l001", "S_F1", "SRC_A", 1.0)]))
    tensor.extend_with(TensorBatch(cells=[("l002", "S_F2", "SRC_A", 1.0)]))
    assert _union_builds(other, monkeypatch)[0].values[1, 1] == 1.0
    union = _union_builds(tensor, monkeypatch)[0]  # byte-equal to a cold one
    assert math.isnan(union.values[1, 1]) and union.values[2, 2] == 1.0
