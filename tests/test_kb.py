import copy
import pickle
import sys
import threading

import numpy as np
import pytest

import typodist.kb as kb_module
from typodist.aggregate import AggregationMode, aggregate
from typodist.confidence import confidence_report
from typodist.errors import (
    ConflictingWrite,
    FormatError,
    UnknownFeature,
    UnknownLanguage,
    UnknownSource,
)
from typodist.kb import (
    CellArrays,
    Category,
    FeatureDescriptor,
    FeatureTensor,
    LanguageRecord,
    SourceColumn,
    TensorBatch,
    _keys,
    feature_columns,
)
from typodist.storage import load_tensor, save_tensor

from conftest import DictTensor, category_of, make_tensor

aggregate_module = sys.modules["typodist.aggregate"]  # the package binds the name to the function


@pytest.mark.parametrize("enum", [Category, AggregationMode])
def test_a_pickled_or_copied_member_finds_its_dict_entry(enum):
    """Members hash by identity, so a round trip must give the member itself."""
    table = {member: member.value for member in enum}
    for member in enum:
        for twin in (pickle.loads(pickle.dumps(member)), copy.copy(member), copy.deepcopy(member)):
            assert twin is member
            assert table[twin] == member.value
            assert (twin, "key") in {(member, "key")}


def test_get_cell_known(tiny_tensor):
    assert tiny_tensor.get_cell("pare1234", "S_F1", "SRC_A") == 1.0


def test_get_cell_missing_is_none(tiny_tensor):
    assert tiny_tensor.get_cell("dial1234", "S_F2", "SRC_A") is None


def test_get_cell_unknown_identifiers(tiny_tensor):
    with pytest.raises(UnknownLanguage):
        tiny_tensor.get_cell("zzzz9999", "S_F1", "SRC_A")
    with pytest.raises(UnknownFeature):
        tiny_tensor.get_cell("pare1234", "S_NOPE", "SRC_A")
    with pytest.raises(UnknownSource):
        tiny_tensor.get_cell("pare1234", "S_F1", "NOPE")


def test_extend_empty_batch_is_identity(tiny_tensor):
    before = sorted(tiny_tensor.iter_cells())
    version = tiny_tensor.version
    tiny_tensor.extend_with(TensorBatch())
    assert sorted(tiny_tensor.iter_cells()) == before
    assert tiny_tensor.version == version


def test_extend_adds_language_and_cells(tiny_tensor):
    n_before = len(tiny_tensor.languages)
    batch = TensorBatch(
        languages=[LanguageRecord("newl1234")],
        cells=[
            ("newl1234", "S_F1", "SRC_A", 1.0),
            ("newl1234", "S_F2", "SRC_A", 0.0),
        ],
    )
    tiny_tensor.extend_with(batch)
    assert len(tiny_tensor.languages) == n_before + 1
    assert tiny_tensor.get_cell("newl1234", "S_F1", "SRC_A") == 1.0
    assert tiny_tensor.get_cell("newl1234", "S_F2", "SRC_A") == 0.0


def test_conflicting_write_raises(tiny_tensor):
    batch = TensorBatch(cells=[("pare1234", "S_F1", "SRC_A", 0.0)])
    with pytest.raises(ConflictingWrite):
        tiny_tensor.extend_with(batch)
    # same value is a no-op
    tiny_tensor.extend_with(TensorBatch(cells=[("pare1234", "S_F1", "SRC_A", 1.0)]))
    assert tiny_tensor.get_cell("pare1234", "S_F1", "SRC_A") == 1.0


def test_monotonic_extension_property():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n_lang, n_feat = rng.integers(2, 6, 2)
        langs = [f"l{i}{trial:03d}1234"[:8] for i in range(n_lang)]
        feats = [f"S_T{trial}F{j}" for j in range(n_feat)]
        cells = [
            (l, f, "SRC_A", float(rng.integers(0, 2)))
            for l in langs
            for f in feats
            if rng.random() < 0.5
        ]
        tensor = make_tensor(langs, feats, cells or [(langs[0], feats[0], "SRC_A", 1.0)])
        before = dict(
            ((l, f, s), v) for l, f, s, v in tensor.iter_cells()
        )
        extra_lang = f"x{trial:03d}1234"
        batch = TensorBatch(
            languages=[LanguageRecord(extra_lang)],
            features=[FeatureDescriptor(f"S_T{trial}NEW", Category.SYNTACTIC)],
            sources=["SRC_B"],
            cells=[(extra_lang, f"S_T{trial}NEW", "SRC_B", 1.0)]
            + [(l, f, s, v) for (l, f, s), v in list(before.items())[:2]],
        )
        tensor.extend_with(batch)
        for (l, f, s), v in before.items():
            assert tensor.get_cell(l, f, s) == v


def test_source_stats(tiny_tensor):
    n, values = tiny_tensor.source_stats("pare1234", "S_F1")
    assert (n, sorted(values)) == (2, [1.0, 1.0])
    assert tiny_tensor.source_stats("dial1234", "S_F2") == (0, [])
    tiny_tensor.extend_with(TensorBatch(cells=[("dial1234", "P_F1", "SRC_B", 0.5)]))
    assert tiny_tensor.source_stats("dial1234", "P_F1") == (1, [0.5])


def test_source_stats_matches_get_cell_exhaustively(tiny_tensor):
    for lang in tiny_tensor.languages:
        for feat in tiny_tensor.features:
            n, values = tiny_tensor.source_stats(lang.glottocode, feat.name)
            known = [
                tiny_tensor.get_cell(lang.glottocode, feat.name, s)
                for s in tiny_tensor.sources
            ]
            known = [v for v in known if v is not None]
            assert n == len(known)
            assert sorted(values) == sorted(known)


def test_registry_invariants():
    tensor = FeatureTensor()
    tensor.add_language(LanguageRecord("abcd1234"))
    # same record twice is fine, different metadata is not
    tensor.add_language(LanguageRecord("abcd1234"))
    with pytest.raises(FormatError):
        tensor.add_language(LanguageRecord("abcd1234", name="changed"))
    # parent must already exist
    with pytest.raises(UnknownLanguage):
        tensor.add_language(LanguageRecord("chld1234", parent="miss1234"))
    with pytest.raises(FormatError):
        LanguageRecord("self1234", parent="self1234")
    with pytest.raises(FormatError):
        LanguageRecord("")


def test_new_registry_entries_bump_the_version_once_each(tiny_tensor):
    version = tiny_tensor.version
    tiny_tensor.add_language(LanguageRecord("newl1234"))
    tiny_tensor.add_feature(FeatureDescriptor("S_NEW", Category.SYNTACTIC))
    tiny_tensor.add_source("SRC_NEW")
    assert tiny_tensor.version == version + 3
    # re-registering what is already there changes nothing
    tiny_tensor.add_language(LanguageRecord("newl1234"))
    tiny_tensor.add_feature(FeatureDescriptor("S_NEW", Category.SYNTACTIC))
    tiny_tensor.add_source("SRC_NEW")
    assert tiny_tensor.version == version + 3
    # one batch is one write, however many entries it registers
    tiny_tensor.extend_with(TensorBatch(
        languages=[LanguageRecord("newm1234"), LanguageRecord("newn1234")],
        sources=["SRC_NEW", "SRC_NEWER"],
        cells=[("newm1234", "S_NEW", "SRC_NEWER", 1.0)],
    ))
    assert tiny_tensor.version == version + 4
    tiny_tensor.extend_with(TensorBatch(languages=[LanguageRecord("newo1234")]))
    assert tiny_tensor.version == version + 5


def test_concurrent_writers_get_unique_dense_indices():
    """8 threads register distinct languages in bursts that start together,
    half through add_language and half through one-language batches."""
    tensor = make_tensor(["root1234"], ["S_F1"], [("root1234", "S_F1", "SRC_A", 1.0)])
    n_threads, rounds, per_round = 8, 100, 4
    version = tensor.version
    written = [[] for _ in range(n_threads)]
    errors = []
    barrier = threading.Barrier(n_threads, timeout=30)

    def writer(k):
        try:
            for r in range(rounds):
                barrier.wait()
                for i in range(per_round):
                    code = f"w{k:02d}{r:03d}{i}"
                    if i % 2:
                        written[k].append((code, tensor.add_language(LanguageRecord(code))))
                    else:
                        tensor.extend_with(TensorBatch(
                            languages=[LanguageRecord(code)],
                            cells=[(code, "S_F1", "SRC_A", 0.0)]))
                        written[k].append((code, tensor.language_index(code)))
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    total = n_threads * rounds * per_round
    pairs = [pair for per_thread in written for pair in per_thread]
    assert sorted(i for _, i in pairs) == list(range(1, 1 + total))
    assert all(tensor.languages[i].glottocode == code for code, i in pairs)
    # one bump per add_language and one per batch, none lost
    assert tensor.version == version + total
    assert tensor.cell_count() == 1 + total // 2


def test_a_read_during_a_write_sees_the_whole_state_before_it(tiny_tensor, monkeypatch):
    """Readers run from inside a write that adds a language and a source,
    after the write is checked and before it is published."""
    last_sorted, seen = kb_module._last_sorted, []

    def probing_last_sorted(*args):
        snap = tiny_tensor.snapshot()
        seen.append((len(tiny_tensor.languages), len(snap.languages), len(tiny_tensor.sources),
                     len(snap.sources), len(snap.columns), tiny_tensor.version))
        for read in (lambda: tiny_tensor.language_index("newl1234"),
                     lambda: confidence_report("newl1234", "pare1234", tiny_tensor)):
            with pytest.raises(UnknownLanguage):
                read()
        with pytest.raises(UnknownSource):
            aggregate(tiny_tensor, AggregationMode.UNION, ["SRC_NEW"])
        return last_sorted(*args)

    monkeypatch.setattr(kb_module, "_last_sorted", probing_last_sorted)
    version = tiny_tensor.version
    tiny_tensor.extend_with(TensorBatch(
        languages=[LanguageRecord("newl1234")], sources=["SRC_NEW"],
        cells=[("newl1234", "S_F1", "SRC_NEW", 1.0), ("newl1234", "S_F2", "SRC_A", 0.0)]))
    monkeypatch.undo()
    # one sort of the new source's cells into its empty column, one of SRC_A's cells
    assert len(seen) == 2 and all(state == (3, 3, 2, 2, 2, version) for state in seen)
    snap = tiny_tensor.snapshot()
    assert (len(tiny_tensor.languages), len(snap.languages), len(snap.columns)) == (4, 4, 3)
    assert tiny_tensor.version == snap.version == version + 1
    assert tiny_tensor.language_index("newl1234") == 3
    assert confidence_report("newl1234", "pare1234", tiny_tensor).feature_count_k == 4
    union = aggregate(tiny_tensor, AggregationMode.UNION, ["SRC_NEW"])
    assert union.values[3, union.feature_index("S_F1")] == 1.0


def test_feature_name_validation():
    with pytest.raises(FormatError):
        FeatureDescriptor("S_lower", Category.SYNTACTIC)
    with pytest.raises(FormatError):
        FeatureDescriptor("P_TONE", Category.SYNTACTIC)  # wrong prefix for category
    with pytest.raises(FormatError):
        FeatureDescriptor("S_HAS SPACE", Category.SYNTACTIC)
    FeatureDescriptor("INV_VOWELS_5", Category.INVENTORY)


def test_values_clamped_and_finite(tiny_tensor):
    with pytest.raises(FormatError):
        tiny_tensor.extend_with(
            TensorBatch(cells=[("pare1234", "S_F2", "SRC_B", float("nan"))])
        )
    tiny_tensor.extend_with(TensorBatch(cells=[("pare1234", "S_F2", "SRC_B", 1.5)]))
    assert tiny_tensor.get_cell("pare1234", "S_F2", "SRC_B") == 1.0


def test_ancestor_chain(tiny_tensor):
    tiny_tensor.add_language(LanguageRecord("gran1234", parent="dial1234"))
    assert tiny_tensor.ancestor_chain("gran1234") == ["dial1234", "pare1234"]
    assert tiny_tensor.ancestor_chain("pare1234") == []


def test_keys_round_trip_language_and_feature_indices():
    edges = np.array([0, 1, 2**16, 2**31 - 1], dtype=np.int32)
    language, feature = (a.ravel() for a in np.meshgrid(edges, edges, indexing="ij"))
    column = SourceColumn(_keys(language, feature), np.zeros(len(language)))
    assert column.key.dtype == np.int64
    assert np.array_equal(column.language, language)
    assert np.array_equal(column.feature, feature)
    assert np.all(np.diff(column.key) > 0)  # keys sort as (language, feature) does


def test_a_batch_out_of_key_order_is_stored_sorted_and_keeps_the_last_repeat(tiny_tensor):
    tiny_tensor.extend_with(TensorBatch(sources=["SRC_C"], cells=[
        ("othe1234", "S_F2", "SRC_C", 1.0),
        ("pare1234", "S_F2", "SRC_C", 0.0),
        ("othe1234", "S_F1", "SRC_C", 0.25),
        ("pare1234", "S_F2", "SRC_C", 0.5),
        ("dial1234", "S_F1", "SRC_C", 1.0),
    ]))
    column = tiny_tensor.snapshot().columns[tiny_tensor.source_index("SRC_C")]
    assert SourceColumn._fields == ("key", "value")
    assert column.key.dtype == np.int64 and column.value.dtype == np.float64
    assert np.all(np.diff(column.key) > 0)
    languages, features = tiny_tensor.languages, tiny_tensor.features
    stored = [
        (languages[li].glottocode, features[fi].name, v)
        for li, fi, v in zip(column.language.tolist(), column.feature.tolist(), column.value)
    ]
    assert stored == [
        ("pare1234", "S_F2", 0.5),
        ("dial1234", "S_F1", 1.0),
        ("othe1234", "S_F1", 0.25),
        ("othe1234", "S_F2", 1.0),
    ]


# --- the columnar store against the dict-of-cells oracle -------------------

ORACLE_VALUES = [0.0, 0.25, 0.5, 1.0]


def _random_value(rng):
    r = rng.random()
    if r < 0.01:
        return [float("nan"), float("inf"), -float("inf")][int(rng.integers(3))]
    if r < 0.07:
        return [1.5, -0.25, -0.0, 2][int(rng.integers(4))]  # clamped on write
    if r < 0.25:
        return float(rng.random())
    return ORACLE_VALUES[int(rng.integers(len(ORACLE_VALUES)))]


def _random_write(rng, oracle, fresh):
    """One seeded random write as (method name, args, kwargs).

    fresh() hands out a new suffix for names never used before.
    """
    langs = [r.glottocode for r in oracle.languages]
    feats = [f.name for f in oracle.features]
    srcs = list(oracle.sources)

    def pick(names, unknown):
        if names and rng.random() > 0.01:
            return names[int(rng.integers(len(names)))]
        return unknown

    r = rng.random()
    if r < 0.08:
        parent = pick(langs, f"miss{fresh()}") if rng.random() < 0.3 else None
        if langs and rng.random() < 0.2:
            name = pick(langs, langs[0])
            label = "changed" if rng.random() < 0.5 else ""  # "" re-registers the same record
            return "add_language", (LanguageRecord(name, name=label),), {}
        return "add_language", (LanguageRecord(f"lang{fresh()}", parent=parent),), {}
    if r < 0.12:
        return "add_feature", (FeatureDescriptor(f"S_NEW{fresh()}", Category.SYNTACTIC),), {}
    if r < 0.16:
        return "add_source", (["", f"SRC{fresh()}", *srcs][int(rng.integers(len(srcs) + 2))],), {}
    batch = TensorBatch()
    for _ in range(int(rng.integers(0, 3))):
        parent = pick(langs + [r.glottocode for r in batch.languages], "miss0000") \
            if rng.random() < 0.3 else None
        batch.languages.append(LanguageRecord(f"lang{fresh()}", parent=parent))
    if rng.random() < 0.1 and langs:  # re-registering an entry as it is changes nothing
        batch.languages.append(oracle.languages[int(rng.integers(len(langs)))])
    if rng.random() < 0.3:
        batch.features.append(FeatureDescriptor(f"P_NEW{fresh()}", Category.PHONOLOGICAL))
    if rng.random() < 0.2 or not srcs:
        batch.sources.append(f"SRC{fresh()}")
    all_langs = langs + [r.glottocode for r in batch.languages]
    all_feats = feats + [f.name for f in batch.features]
    all_srcs = srcs + batch.sources
    for _ in range(int(rng.integers(0, 14))):
        if batch.cells and rng.random() < 0.15:  # the same cell again, often with a new value
            lang, feat, src, _v = batch.cells[int(rng.integers(len(batch.cells)))]
            batch.cells.append((lang, feat, src, _random_value(rng)))
            continue
        cell = (pick(all_langs, "zzzz9999"), pick(all_feats, "S_NOPE"), pick(all_srcs, "NOPE"))
        stored = oracle._cells.get(tuple(
            index.get(name) for index, name in zip(
                (oracle._lang_index, oracle._feat_index, oracle._src_index), cell)))
        # a stored cell mostly gets its own value back; otherwise a conflict
        value = stored if stored is not None and rng.random() < 0.8 else _random_value(rng)
        batch.cells.append((*cell, value))
    if rng.random() < 0.2 and oracle._cells:  # a stored cell given another value, anywhere
        (li, fi, si), v = list(oracle._cells.items())[int(rng.integers(len(oracle._cells)))]
        batch.cells.insert(int(rng.integers(len(batch.cells) + 1)), (
            oracle.languages[li].glottocode, oracle.features[fi].name, oracle.sources[si],
            float(v < 0.5)))
    return "extend_with", (batch,), {}


def _state(tensor):
    return (tensor.version, tensor.languages, tensor.features, tensor.sources,
            sorted(tensor.iter_cells()))


def _oracle_columns(oracle):
    """Per source, the (key bytes, value bytes) of the dict store's cells as
    a column holds them: int64 keys sorted, float64 values."""
    cells = [[] for _ in oracle.sources]
    for (li, fi, si), v in oracle._cells.items():
        cells[si].append(((li << 32) | fi, v))
    return [(np.array([k for k, _ in sorted(c)], np.int64).tobytes(),
             np.array([v for _, v in sorted(c)], np.float64).tobytes()) for c in cells]


def _assert_same_store(tensor, oracle, rng):
    assert _state(tensor) == _state(oracle)
    assert tensor.cell_count() == oracle.cell_count()
    columns = tensor.snapshot().columns
    assert all(c.key.dtype == np.int64 and c.value.dtype == np.float64 for c in columns)
    assert [(c.key.tobytes(), c.value.tobytes()) for c in columns] == _oracle_columns(oracle)
    langs, feats = tensor.languages, tensor.features
    for _ in range(40 if langs and feats else 0):
        lang = langs[int(rng.integers(len(langs)))].glottocode
        feat = feats[int(rng.integers(len(feats)))].name
        assert tensor.source_stats(lang, feat) == oracle.source_stats(lang, feat)
    subset = [s for s in tensor.sources if rng.random() < 0.5]
    for mode in AggregationMode:
        for sources in [None] + ([subset] if subset else []):
            want = oracle.aggregate(mode, tensor.sources if sources is None else subset)
            got = aggregate(tensor, mode, sources).values
            assert np.array_equal(got, want, equal_nan=True)
    probes = [(c[0], c[1], c[2]) for c in oracle.iter_cells()][:20] + [
        (lang.glottocode, feat.name, src) for lang in tensor.languages[:3]
        for feat in tensor.features[:3] for src in tensor.sources] + [
        ("zzzz9999", "S_F1", "SRC_A"), ("", "", "")]
    want = [oracle._cells.get(tuple(
        index.get(name) for index, name in zip(
            (oracle._lang_index, oracle._feat_index, oracle._src_index), p))) for p in probes]
    got = tensor.stored_array(CellArrays.of((*p, 0.0) for p in probes))
    assert np.array_equal(got, [np.nan if v is None else v for v in want], equal_nan=True)


def _outcome(call):
    try:
        call()
    except Exception as exc:  # compared by type and message below
        return exc
    return None


def _assert_aggregates_are_cold(tensor, rng):
    """Aggregates in both modes, first over the scope of the tensor's last
    union (so a union is updated whenever the rule allows), then over
    random scopes and all sources: each byte-equal to a cold _aggregate of
    the same snapshot."""
    snap = tensor.snapshot()
    kept = aggregate_module._last_union.get(tensor)
    scopes = [[snap.sources[si] for si in kept[1]]] if kept and kept[1] else []
    scopes += [s for s in ([x for x in snap.sources if rng.random() < 0.5] for _ in range(2)) if s]
    for scope in scopes + [None]:
        provenance = snap.sources if scope is None else tuple(scope)
        for mode in AggregationMode:
            got = aggregate(tensor, mode, scope)
            want = aggregate_module._aggregate(snap._replace(derived={}), mode, provenance)
            assert got.languages == want.languages and got.provenance == want.provenance
            assert got.values.tobytes() == want.values.tobytes(), (mode, scope)


def _small_write(oracle, rng):
    """A batch of 1 to 3 cells over registered names, with no registry entry,
    a stored cell getting its own value back: a write a union is updated by."""
    registries = (oracle.languages, oracle.features, oracle.sources)
    if not all(registries):
        return None
    cells = []
    for _ in range(int(rng.integers(1, 4))):
        key = tuple(int(rng.integers(len(r))) for r in registries)
        value = oracle._cells.get(key, ORACLE_VALUES[int(rng.integers(len(ORACLE_VALUES)))])
        cells.append((oracle.languages[key[0]].glottocode, oracle.features[key[1]].name,
                      oracle.sources[key[2]], value))
    return TensorBatch(cells=cells)


def _round_trip(tensor, oracle, directory, rng):
    """tensor saved to directory and loaded back, which must hold the same
    registries and cells; half the time the loaded tensor, to go on from."""
    save_tensor(tensor, directory)
    loaded = load_tensor(directory)
    assert _state(loaded)[1:] == _state(tensor)[1:] and loaded.cell_count() == tensor.cell_count()
    assert [(c.key.tobytes(), c.value.tobytes()) for c in loaded.snapshot().columns] == [
        (c.key.tobytes(), c.value.tobytes()) for c in tensor.snapshot().columns]
    if rng.random() < 0.5:
        return tensor
    oracle.version = loaded.version  # a load counts versions of its own
    return loaded


@pytest.mark.parametrize("seed", range(4))
def test_random_small_writes_keep_every_union_equal_to_a_cold_one(seed, tmp_path, monkeypatch):
    """Mostly small writes of new cells between reads, which a union is
    updated by, among the random writes of the model test: registry growth,
    which changes a union's shape or sources, conflicts and repeated cells."""
    rng = np.random.default_rng([seed, 11])
    tensor, oracle = FeatureTensor(), DictTensor()
    counter = iter(range(10**6))
    update, updated = aggregate_module._updated_union, []

    def counting(*args):
        values = update(*args)
        updated.append(values is not None)
        return values

    monkeypatch.setattr(aggregate_module, "_updated_union", counting)
    for step in range(200):
        batch = _small_write(oracle, rng) if step % 5 else None
        if batch is None:
            method, args, kwargs = _random_write(rng, oracle, lambda: f"{next(counter):04d}")
        else:
            method, args, kwargs = "extend_with", (batch,), {}
        want = _outcome(lambda: getattr(oracle, method)(*args, **kwargs))
        got = _outcome(lambda: getattr(tensor, method)(*args, **kwargs))
        assert type(got) is type(want) and str(got) == str(want), (method, args, kwargs)
        assert _state(tensor) == _state(oracle)
        _assert_aggregates_are_cold(tensor, rng)
        if rng.random() < 0.1:
            tensor = _round_trip(tensor, oracle, tmp_path / f"step{step}", rng)
    _assert_same_store(tensor, oracle, rng)
    # unions updated from the tensor's last one, and built cold
    assert updated.count(True) > 40 and False in updated


@pytest.mark.parametrize("seed", range(6))
def test_random_writes_match_the_dict_store(seed, tmp_path):
    """The dict store is the model: every write raises exactly when it does and
    leaves the same cells. Between writes, aggregates equal cold ones and the
    tensor goes through save and load, often going on from the loaded copy."""
    rng, side = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 8])
    tensor, oracle = FeatureTensor(), DictTensor()
    counter = iter(range(10**6))

    def fresh():
        return f"{next(counter):04d}"

    rejected, seen = 0, set()
    for _step in range(150):
        method, args, kwargs = _random_write(rng, oracle, fresh)
        before, held, stored = _state(tensor), tensor.snapshot().columns, dict(oracle._cells)
        layers = tensor.snapshot().layers
        want = _outcome(lambda: getattr(oracle, method)(*args, **kwargs))
        got = _outcome(lambda: getattr(tensor, method)(*args, **kwargs))
        assert type(got) is type(want) and str(got) == str(want), (method, args, kwargs)
        seen.add(type(got).__name__)
        cells = args[0].cells if method == "extend_with" else []
        if any(v == 0 and np.signbit(v) for *_, v in cells):
            seen.add("-0.0")
        if any(abs(v - 0.5) > 0.5 for *_, v in cells):  # clamped, or infinite
            seen.add("out of range")
        if len({cell[:3] for cell in cells}) < len(cells):
            seen.add("repeated")
        if got is not None:
            rejected += 1
            assert _state(tensor) == before
            assert all(a is b for a, b in zip(tensor.snapshot().layers, layers, strict=True))
        _assert_same_store(tensor, oracle, rng)
        # a source that the write gives no value other than the one it holds keeps its arrays
        index, given = (oracle._lang_index, oracle._feat_index, oracle._src_index), set()
        for *names, v in cells if got is None else []:
            key = tuple(i[name] for i, name in zip(index, names))
            if stored.get(key) != min(1.0, max(0.0, float(v))):
                given.add(key[2])
        assert all(tensor.snapshot().columns[si] is column for si, column in enumerate(held)
                   if si not in given)
        _assert_aggregates_are_cold(tensor, side)
        if side.random() < 0.15:
            tensor = _round_trip(tensor, oracle, tmp_path / f"step{_step}", side)
    # the sequence exercises both outcomes, and every kind of cell
    assert 10 < rejected < 120
    assert tensor.cell_count() > 30
    assert {"NoneType", "ConflictingWrite", "FormatError", "UnknownLanguage", "UnknownFeature",
            "UnknownSource", "-0.0", "out of range", "repeated"} <= seen


def test_a_touched_source_whose_cells_do_not_change_keeps_its_arrays(tiny_tensor):
    before = tiny_tensor.snapshot()
    a, b = tiny_tensor.source_index("SRC_A"), tiny_tensor.source_index("SRC_B")
    stored = tiny_tensor.get_cell("pare1234", "S_F1", "SRC_A")
    tiny_tensor.extend_with(TensorBatch(cells=[("pare1234", "S_F1", "SRC_A", stored),
                                               ("othe1234", "S_F1", "SRC_B", 1.0)]))
    after = tiny_tensor.snapshot()
    assert after.version == before.version + 1
    assert after.columns[a] is before.columns[a]
    assert after.columns[b] is not before.columns[b]
    assert tiny_tensor.get_cell("othe1234", "S_F1", "SRC_B") == 1.0


def _layered_tensor():
    """8 languages x 8 features; SRC_A and SRC_B hold 32 cells each in their
    bases, and SRC_A 2 more in its delta (2 x 8 = 16 does not pass 32: no fold)."""
    langs, feats = [f"l{i}xx1234" for i in range(8)], [f"S_F{j}" for j in range(8)]
    cells = [(langs[i], feats[j], "SRC_A" if (i + j) % 2 == 0 else "SRC_B", float(i % 2))
             for i in range(8) for j in range(8)]
    tensor = make_tensor(langs, feats, cells)
    tensor.extend_with(TensorBatch(cells=[("l0xx1234", "S_F1", "SRC_A", 1.0),
                                          ("l0xx1234", "S_F3", "SRC_A", 0.0)]))
    return tensor


def test_a_write_searches_each_touched_source_once(monkeypatch):
    """One search of each touched base and one of each non-empty touched
    delta; a delta that grows past an eighth of its base also folds, one
    search of the delta's keys in the base."""
    tensor = _layered_tensor()
    a, b = tensor.source_index("SRC_A"), tensor.source_index("SRC_B")
    held = tensor.snapshot().layers
    assert [(len(x.base.key), len(x.delta.key)) for x in held] == [(32, 2), (32, 0)]
    searched, searchsorted = [], np.searchsorted

    def counting(sorted_keys, v, *args, **kwargs):
        searched.append(sorted_keys)
        return searchsorted(sorted_keys, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    tensor.extend_with(TensorBatch(sources=["SRC_NEW"], cells=[
        ("l0xx1234", "S_F5", "SRC_A", 1.0), ("l1xx1234", "S_F1", "SRC_B", 0.0),
        ("l0xx1234", "S_F0", "SRC_A", 0.0),  # stored in the base, its own value back
        ("l0xx1234", "S_F1", "SRC_A", 1.0),  # stored in the delta, its own value back
        ("l2xx1234", "S_F0", "SRC_NEW", 0.5), ("l1xx1234", "S_F1", "SRC_B", 1.0),
    ]))
    # SRC_A's and SRC_B's bases in source order, then SRC_A's delta; the new
    # source and SRC_B's empty delta hold nothing to find
    assert [id(key) for key in searched] == [id(held[a].base.key), id(held[b].base.key),
                                             id(held[a].delta.key)]
    after = tensor.snapshot().layers
    assert after[a].base is held[a].base and after[b].base is held[b].base  # no fold
    assert [len(x.delta.key) for x in after] == [3, 1, 0]
    assert len(after[2].base.key) == 1
    assert tensor.get_cell("l1xx1234", "S_F1", "SRC_B") == 1.0  # the last write
    assert tensor.cell_count() == 66 + 3
    searched.clear()
    # 3 + 2 = 5 delta cells, and 5 * 8 = 40 passes 32: SRC_A folds
    tensor.extend_with(TensorBatch(cells=[("l0xx1234", "S_F7", "SRC_A", 1.0),
                                          ("l1xx1234", "S_F0", "SRC_A", 0.0)]))
    monkeypatch.undo()
    assert [id(key) for key in searched] == [id(after[a].base.key), id(after[a].delta.key),
                                             id(after[a].base.key)]
    folded = tensor.snapshot().layers[a]
    assert len(folded.base.key) == 32 + 5 and not len(folded.delta.key)
    assert tensor.get_cell("l0xx1234", "S_F7", "SRC_A") == 1.0 and tensor.cell_count() == 71
    assert tensor.source_stats("l1xx1234", "S_F0") == (2, [0.0, 1.0])
    assert tensor.source_stats("l2xx1234", "S_F0") == (2, [0.0, 0.5])


def test_a_delta_folds_once_it_holds_more_than_an_eighth_of_its_base():
    tensor = _layered_tensor()
    a = tensor.source_index("SRC_A")
    base = tensor.snapshot().layers[a].base
    free = [(f"l{i}xx1234", f"S_F{j}") for i in range(1, 8) for j in range(8) if (i + j) % 2]
    for k, (lang, feat) in enumerate(free[:3]):
        tensor.extend_with(TensorBatch(cells=[(lang, feat, "SRC_A", 1.0)]))
        layers = tensor.snapshot().layers[a]
        if k < 2:  # 3 and 4 cells: 4 * 8 = 32 does not pass 32
            assert layers.base is base and len(layers.delta.key) == 3 + k
        else:
            assert len(layers.base.key) == 37 and not len(layers.delta.key)
            assert layers.merged is layers.base  # an empty delta reads as the base itself
    assert tensor.cell_count() == 32 + 32 + 5


def _frozen_reads(tensor, directory):
    """What a tensor answers: merged columns, every cell by get_cell, both
    aggregates of each scope, and the bytes it saves."""
    snap = tensor.snapshot()
    cells = [(lang.glottocode, feat.name, src) for lang in snap.languages
             for feat in snap.features for src in snap.sources]
    scopes = [None, *([s] for s in snap.sources)]
    save_tensor(tensor, directory)
    return ([(c.key.tobytes(), c.value.tobytes()) for c in snap.columns],
            [tensor.get_cell(*cell) for cell in cells],
            [aggregate(tensor, mode, scope).values.tobytes()
             for mode in AggregationMode for scope in scopes],
            {path.name: path.read_bytes() for path in sorted(directory.iterdir())})


def test_a_snapshot_is_isolated_across_a_fold(tmp_path, monkeypatch):
    """A tensor copied before a write that folds a delta keeps its state:
    it reads as before, while the live tensor's union after the write is
    updated from its last one."""
    tensor = _layered_tensor()
    a = tensor.source_index("SRC_A")
    aggregate(tensor, AggregationMode.UNION)  # the live tensor's last union
    frozen = copy.copy(tensor)  # bound to the state published so far
    before = _frozen_reads(frozen, tmp_path / "before")
    layers = tensor.snapshot().layers[a]
    free = [(f"l{i}xx1234", f"S_F{j}") for i in range(1, 8) for j in range(8) if (i + j) % 2]
    tensor.extend_with(TensorBatch(cells=[(lang, feat, "SRC_A", 0.5) for lang, feat in free[:3]]))
    folded = tensor.snapshot().layers[a]
    assert folded.base is not layers.base and not len(folded.delta.key)
    cold, build = [], aggregate_module._aggregate
    monkeypatch.setattr(aggregate_module, "_aggregate",
                        lambda *args: cold.append(args) or build(*args))
    union = aggregate(tensor, AggregationMode.UNION)
    monkeypatch.undo()
    snap = tensor.snapshot()
    want = build(snap._replace(derived={}), AggregationMode.UNION, snap.sources)
    assert not cold and union.values.tobytes() == want.values.tobytes()
    after = _frozen_reads(tensor, tmp_path / "after")
    assert _frozen_reads(frozen, tmp_path / "again") == before != after
    assert frozen.snapshot().layers[a] is layers and frozen.cell_count() == 66


def test_a_reader_never_sees_a_half_written_source():
    """A reader takes snapshots and unions while 1000 small writes go in,
    with delta merges and folds; each holds whole writes only."""
    tensor = _layered_tensor()
    a, start, version = tensor.source_index("SRC_A"), tensor.cell_count(), tensor.version
    langs = [f"w{i:03d}1234" for i in range(625)]  # 8 features each: 5000 cells
    tensor.extend_with(TensorBatch(languages=[LanguageRecord(code) for code in langs]))
    errors, done, read, reads = [], threading.Event(), threading.Event(), []

    def value(key):  # the value every write gives a cell, from its key
        return (key % 7) / 6.0

    def reader():
        try:
            while not done.is_set():
                snap = tensor.snapshot()
                writes = snap.version - version - 1
                assert sum(len(layers) for layers in snap.layers) == start + 5 * writes
                column = snap.layers[a].merged
                assert len(column.key) == len(snap.layers[a]) and np.all(np.diff(column.key) > 0)
                new = column.key >> 32 >= 8  # the cells the writes add
                assert column.value[new].tobytes() == value(column.key[new]).tobytes()
                # from a snapshot of its own: SRC_A holds 34 cells plus 5 per write
                union = aggregate(tensor, AggregationMode.UNION, ["SRC_A"]).values
                assert np.count_nonzero(~np.isnan(union)) % 5 == 34 % 5
                reads.append(snap.version)
                read.set()
        except Exception as exc:  # reported below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=reader)
    try:
        thread.start()
        for k in range(1000):
            if k % 50 == 0:  # a read of every stretch of 50 writes at least
                read.clear()
                read.wait(timeout=0 if errors else 10)
            cell = np.arange(5 * k, 5 * k + 5)
            keys = _keys(8 + cell // 8, cell % 8)  # the 8 languages of _layered_tensor first
            tensor.extend_with(TensorBatch(cells=[
                (langs[c // 8], f"S_F{c % 8}", "SRC_A", value(key))
                for c, key in zip(cell.tolist(), keys.tolist())]))
    finally:
        done.set()
        thread.join(timeout=60)
        sys.setswitchinterval(old_interval)
    assert not thread.is_alive() and errors == []
    assert tensor.cell_count() == start + 5000 and len(set(reads)) >= 20


def test_rejected_batch_registers_nothing(tiny_tensor):
    before = _state(tiny_tensor)
    batch = TensorBatch(
        languages=[LanguageRecord("newl1234")],
        features=[FeatureDescriptor("S_NEW", Category.SYNTACTIC)],
        sources=["SRC_NEW"],
        cells=[("newl1234", "S_NEW", "SRC_NEW", 1.0), ("pare1234", "S_F1", "SRC_A", 0.0)],
    )
    with pytest.raises(ConflictingWrite):
        tiny_tensor.extend_with(batch)
    assert _state(tiny_tensor) == before
    assert not tiny_tensor.has_language("newl1234")


def test_first_bad_cell_in_batch_order_is_reported(tiny_tensor):
    cells = [
        ("pare1234", "S_F1", "SRC_A", 0.0),  # conflicts
        ("pare1234", "S_F2", "SRC_B", float("nan")),
        ("zzzz9999", "S_F1", "SRC_A", 1.0),
    ]
    for start, error in [(0, ConflictingWrite), (1, FormatError), (2, UnknownLanguage)]:
        with pytest.raises(error) as caught:
            tiny_tensor.extend_with(TensorBatch(cells=cells[start:]))
        assert type(caught.value) is error


def test_iter_cells_yields_each_source_sorted(tiny_tensor):
    tiny_tensor.extend_with(TensorBatch(cells=[("othe1234", "S_F1", "SRC_B", 1.0),
                                               ("dial1234", "S_F2", "SRC_B", 0.0)]))
    cells = list(tiny_tensor.iter_cells())
    t = tiny_tensor
    rank = [(t.source_index(s), t.language_index(l), t.feature_index(f)) for l, f, s, _v in cells]
    assert rank == sorted(rank) and len(set(rank)) == len(rank)


def test_feature_columns_resolves_every_kind_of_scope():
    names = ["S_A", "P_A", "S_B", "INV_A", "S_C"]
    features = [FeatureDescriptor(name, category_of(name)) for name in names]

    def cols(selector):
        return feature_columns(features, selector).tolist()

    assert cols(None) == [0, 1, 2, 3, 4]
    assert cols(Category.SYNTACTIC) == [0, 2, 4]  # registry order
    assert cols(Category.MORPHOLOGICAL) == []
    assert cols(["S_C", "P_A", "S_C", "S_A", "P_A"]) == [4, 1, 0]  # first-named order, once
    assert cols(("INV_A",)) == [3]
    assert cols("S_B") == cols(np.str_("S_B")) == [2]  # a bare name is one feature
    assert cols([]) == []
    assert feature_columns(features, []).dtype.kind == "i"
    assert feature_columns([], None).tolist() == []
    with pytest.raises(UnknownFeature, match="'S_NOPE'"):
        cols(["S_A", "S_NOPE", "P_NOPE"])  # the first unknown name, in given order
    with pytest.raises(UnknownFeature, match="'S_AB'"):
        cols("S_AB")  # a bare name is not a list of characters


# --- whole columns: first writes into empty columns, adopt_columns ----------


def _merged_oracle(column, keys, value):
    """_merged as written before an empty column took its own path; the oracle."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.append(keys[1:] != keys[:-1], True)
    order, keys = order[last], keys[last]
    value = value[order]
    pos = np.searchsorted(column.key, keys)
    hit = pos < len(column.key)
    hit[hit] = column.key[pos[hit]] == keys[hit]
    kept = column.value.copy()
    kept[pos[hit]] = value[hit]
    new = ~hit
    at = pos[new]
    return SourceColumn(np.insert(column.key, at, keys[new]), np.insert(kept, at, value[new]))


def _merge(column, keys, value):
    """The column a write of keys and value into column stores, as a write
    builds it: the keys sorted once for an empty column; else the keys that
    _lookup finds dropped, as the write's check drops them, and the rest
    inserted at the positions it finds."""
    found = []
    stored = kb_module._lookup([column], np.zeros(len(keys), np.int64), keys, found)
    [(_, _, pos)] = found
    if pos is None:
        return SourceColumn(*kb_module._last_sorted(keys, value))
    new = np.isnan(stored)
    return kb_module._inserted(column, *kb_module._last_sorted(keys[new], value[new], pos[new]))


def test_a_write_into_an_empty_column_equals_the_merge_oracle():
    rng = np.random.default_rng(53)
    for trial in range(60):
        n = int(rng.integers(1, 300))  # a write merges only sources it has cells for
        keys = _keys(rng.integers(0, 20, n), rng.integers(0, 30, n))
        if trial % 3 == 0:  # strictly increasing already
            keys = np.unique(keys)
        value = rng.choice([0.0, 1.0, 0.5, 0.125], len(keys))
        stored = rng.random() < 0.3
        column = (_merge(kb_module._NO_CELLS, keys[::2].copy(), value[::2].copy())
                  if stored else kb_module._NO_CELLS)
        # a write gives each stored cell its own value back
        held = dict(zip(column.key.tolist(), column.value.tolist()))
        value = np.array([held.get(k, v) for k, v in zip(keys.tolist(), value.tolist())])
        got = _merge(column, keys.copy(), value.copy())
        want = _merged_oracle(column, keys.copy(), value.copy())
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if trial % 3 == 0 and not stored:
            increasing = keys.copy()
            assert _merge(column, increasing, value).key is increasing  # adopted


def _registries_only():
    tensor = FeatureTensor()
    tensor.extend_with(TensorBatch(
        languages=[LanguageRecord(f"l{i:03d}1234") for i in range(3)],
        features=[FeatureDescriptor(f"S_F{j}", Category.SYNTACTIC) for j in range(2)],
        sources=["SRC_A", "SRC_B", "SRC_C"]))
    return tensor


def test_adopted_columns_equal_the_same_cells_written():
    cells = [("l0021234", "S_F0", "SRC_C", 0.25), ("l0001234", "S_F1", "SRC_C", 1.0),
             ("l0011234", "S_F0", "SRC_A", 0.0)]
    written = _registries_only()
    for src in ("SRC_A", "SRC_B", "SRC_C"):  # one batch per source, as a CSV load writes
        written.extend_with(TensorBatch(cells=[c for c in cells if c[2] == src]))
    adopted = _registries_only()
    columns = {src: SourceColumn(col.key.copy(), col.value.copy())
               for src, col in zip(written.sources, written.snapshot().columns)}
    derived = adopted.derived
    assert adopted.adopt_columns(columns) is adopted
    assert adopted.version == written.version == 3 and adopted.derived is not derived
    for src, col in zip(adopted.sources, adopted.snapshot().columns):
        assert col.key is columns[src].key and col.value is columns[src].value  # not copied
    assert sorted(adopted.iter_cells()) == sorted(written.iter_cells())
    # later writes meet the adopted cells as they meet written ones
    with pytest.raises(ConflictingWrite):
        adopted.extend_with(TensorBatch(cells=[("l0021234", "S_F0", "SRC_C", 0.5)]))
    adopted.extend_with(TensorBatch(cells=[("l0021234", "S_F1", "SRC_C", 0.5)]))
    assert adopted.get_cell("l0021234", "S_F1", "SRC_C") == 0.5 and adopted.version == 4
    # empty columns only: nothing is published
    empty = _registries_only()
    snap = empty.snapshot()
    empty.adopt_columns({"SRC_B": SourceColumn(np.empty(0, np.int64), np.empty(0))})
    assert empty.snapshot() is snap


def test_adopt_columns_rejects_what_a_write_would_not_store():
    good_key = _keys([0, 1, 2], [1, 0, 1])
    good_value = np.array([0.0, 0.5, 1.0])
    bad = {
        "keys out of order": (good_key[[1, 0, 2]], good_value),
        "a key twice": (good_key[[0, 0, 2]], good_value),
        "a negative language": (np.array([-1 << 32, *good_key[1:]]), good_value),
        "a language past the registry": (_keys([0, 1, 3], [1, 0, 1]), good_value),
        "a feature past the registry": (_keys([0, 1, 2], [1, 0, 2]), good_value),
        "value 1.5": (good_key, np.array([0.0, 1.5, 1.0])),
        "value -0.5": (good_key, np.array([0.0, -0.5, 1.0])),
        "value -0.0": (good_key, np.array([0.0, -0.0, 1.0])),
        "value NaN": (good_key, np.array([0.0, np.nan, 1.0])),
        "value -NaN": (good_key, np.array([0.0, -np.nan, 1.0])),
        "int32 keys": (good_key.astype(np.int32), good_value),
        "float32 values": (good_key, good_value.astype(np.float32)),
        "lengths differ": (good_key, good_value[:2]),
        "2-D": (good_key[None], good_value[None]),
    }
    tensor = _registries_only()
    snap = tensor.snapshot()
    for what, (key, value) in bad.items():
        with pytest.raises(FormatError):
            tensor.adopt_columns({"SRC_A": SourceColumn(np.array([], np.int64), np.array([])),
                                  "SRC_B": SourceColumn(key, value)})
        assert tensor.snapshot() is snap, what
    with pytest.raises(UnknownSource):
        tensor.adopt_columns({"SRC_X": SourceColumn(good_key, good_value)})
    tensor.adopt_columns({"SRC_A": SourceColumn(good_key, good_value)})
    snap = tensor.snapshot()
    with pytest.raises(FormatError, match="already holds cells"):
        tensor.adopt_columns({"SRC_A": SourceColumn(good_key.copy(), good_value.copy())})
    assert tensor.snapshot() is snap
