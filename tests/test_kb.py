import sys
import threading

import numpy as np
import pytest

from typodist.errors import (
    ConflictingWrite,
    FormatError,
    UnknownFeature,
    UnknownLanguage,
    UnknownSource,
)
from typodist.kb import (
    Category,
    FeatureDescriptor,
    FeatureTensor,
    LanguageRecord,
    TensorBatch,
)

from conftest import make_tensor


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
    # same value is a no-op, overwrite replaces
    tiny_tensor.extend_with(TensorBatch(cells=[("pare1234", "S_F1", "SRC_A", 1.0)]))
    tiny_tensor.extend_with(batch, overwrite=True)
    assert tiny_tensor.get_cell("pare1234", "S_F1", "SRC_A") == 0.0


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
