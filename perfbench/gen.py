"""Seeded input generator for the typodist benchmark (stdlib and numpy only).

    python3 perfbench/gen.py --workload {ingest,query,evaluate} --seed N --out DIR

Writes only the files one workload needs into DIR. The same workload and
seed give byte-identical files. Everything is drawn from a planted rank-8
structure: each language has a latent vector, each raw feature a loading,
and each source observes about 15 % of the (language, raw feature) grid
with about 5 % of its values disagreeing with the planted truth.

Files the program reads: raw source exports, ``schema.json``,
``resolution.csv``, ``rules.csv``, ``updates.json`` and the tensor
directory ``kb/`` (written straight in the documented tensor-directory
format). Files only the benchmark reads: ``expected.json`` and
``oracle.npz``, which hold what the generator planted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

RANK = 8
CATEGORIES = ("syntactic", "phonological", "inventory", "morphological")
PREFIX = {"syntactic": "S_", "phonological": "P_", "inventory": "INV_", "morphological": "M_"}
RAW_PER_CATEGORY = 50          # 40 binary, 5 nominal (3 levels), 5 ordinal
NOMINAL_LEVELS = ("a", "b", "c")
ORDINAL_MAX = 3
FILL = 0.15                    # mean share of the raw grid each source observes
NOISE = 0.05                   # share of source values that disagree with truth
PARENT_SHARE = 0.10            # languages carrying a parent in the tensor KBs
ALIAS_SHARE = 1 / 3            # languages referenced through ISO-style aliases
RETIRED_SHARE = 0.1            # aliased languages that also hold a retired code

SCALES = {"M": 2000, "S": 300}
SOURCES = ("src1", "src2", "src3", "src4")
UPDATE_SOURCE = "src5"
UPDATE_BATCH = 100
UPDATE_BATCHES = 1000          # timed batches; extra ones feed the top-up loop
UPDATE_EXTRA_BATCHES = 500
QUERY_EVERY = 50
N_RULES = 8
CASE_LANGS = 64
PERM_LANGS = 20
READBACK_SAMPLE = 1000

WORKLOAD_SALT = {"ingest": 1, "query": 2, "evaluate": 3}


# --- features -----------------------------------------------------------------

def raw_features():
    """(label, kind, category, binarized names) for the 200 raw features."""
    out = []
    for i in range(len(CATEGORIES) * RAW_PER_CATEGORY):
        cat = CATEGORIES[i // RAW_PER_CATEGORY]
        j = i % RAW_PER_CATEGORY
        label = f"feature {i:03d}"
        base = f"{PREFIX[cat]}FEATURE_{i:03d}"
        if j < 40:
            out.append((label, "binary", cat, [base]))
        elif j < 45:
            out.append((label, "nominal", cat, [f"{base}_{lv.upper()}" for lv in NOMINAL_LEVELS]))
        else:
            out.append((label, "ordinal", cat, [base]))
    return out


def binarized_columns(feats):
    """Binarized feature names and their categories."""
    names, cats = [], []
    for _label, _kind, cat, bnames in feats:
        names.extend(bnames)
        cats.extend([cat] * len(bnames))
    return names, cats


def binarize(kind: str, raw: int) -> list[float]:
    if kind == "binary":
        return [float(raw)]
    if kind == "nominal":
        return [1.0 if raw == k else 0.0 for k in range(len(NOMINAL_LEVELS))]
    return [1.0 if raw > 0 else 0.0]


def raw_text(kind: str, raw: int) -> str:
    return NOMINAL_LEVELS[raw] if kind == "nominal" else str(int(raw))


# --- languages and planted truth ------------------------------------------------

def glottocode(i: int) -> str:
    letters = ""
    n = i
    for _ in range(4):
        letters = chr(ord("a") + n % 26) + letters
        n //= 26
    return f"{letters}{(i * 37 + 1000) % 10000:04d}"


def iso_codes(rng, count: int) -> list[str]:
    picks = rng.choice(26 ** 3, size=count, replace=False)
    return ["".join(chr(ord("a") + (int(p) // 26 ** k) % 26) for k in (2, 1, 0)) for p in picks]


def plant_truth(rng, n_lang: int, feats, parents=None):
    """Raw truth levels (n_lang x n_raw) from a rank-8 latent model."""
    z = rng.normal(size=(n_lang, RANK))
    if parents is not None:
        for child, parent in enumerate(parents):
            if parent >= 0:
                z[child] = z[parent] + 0.35 * rng.normal(size=RANK)
    truth = np.zeros((n_lang, len(feats)), dtype=np.int64)
    for r, (_label, kind, _cat, _names) in enumerate(feats):
        if kind == "nominal":
            w = rng.normal(size=(RANK, 3)) / np.sqrt(RANK)
            score = 4.0 * (z @ w) + rng.gumbel(size=(n_lang, 3))
            truth[:, r] = np.argmax(score, axis=1)
        else:
            w = rng.normal(size=RANK) / np.sqrt(RANK)
            s = 4.0 * (z @ w + rng.normal(0, 0.4)) + rng.logistic(size=n_lang)
            if kind == "binary":
                truth[:, r] = s > 0
            else:
                truth[:, r] = np.digitize(s, (-0.6, 0.6, 1.8))
    return z, truth


def observe(rng, truth, feats, fill=FILL):
    """One source: observed mask and noisy raw levels."""
    n_lang, n_raw = truth.shape
    rate = np.clip(fill * rng.lognormal(0.0, 0.5, size=n_lang) / np.exp(0.125), 0.01, 0.6)
    mask = rng.random((n_lang, n_raw)) < rate[:, None]
    values = truth.copy()
    flip = rng.random((n_lang, n_raw)) < NOISE
    levels = np.array([3 if k == "nominal" else (ORDINAL_MAX + 1 if k == "ordinal" else 2)
                       for _l, k, _c, _n in feats])
    shift = 1 + (rng.random((n_lang, n_raw)) * (levels - 1)).astype(np.int64)
    values = np.where(flip, (values + shift) % levels, values)
    return mask, values


def dense_binarized(mask, values, feats, n_cols):
    """Binarized (n_lang x n_cols) matrix with NaN for missing cells."""
    n_lang = mask.shape[0]
    out = np.full((n_lang, n_cols), np.nan)
    col = 0
    for r, (_label, kind, _cat, bnames) in enumerate(feats):
        rows = np.flatnonzero(mask[:, r])
        v = values[rows, r]
        if kind == "binary":
            out[rows, col] = v
        elif kind == "nominal":
            for k in range(len(bnames)):
                out[rows, col + k] = (v == k).astype(float)
        else:
            out[rows, col] = (v > 0).astype(float)
        col += len(bnames)
    return out


# --- writers ----------------------------------------------------------------------

def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_npz(path: Path, **arrays) -> None:
    # np.savez stamps zip members with the current time; a fixed stamp keeps
    # the file byte-identical across runs of the same seed
    import io
    import zipfile

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def write_tensor_dir(directory: Path, langs, feats, dense_by_source) -> None:
    """registries.json plus one sorted <source>.csv, as typodist stores them."""
    directory.mkdir(parents=True, exist_ok=True)
    names = binarized_columns(feats)[0]
    features = []
    for _label, kind, cat, bnames in feats:
        base = bnames[0] if kind != "nominal" else bnames[0][: -len("_A")]
        for k, name in enumerate(bnames):
            if kind == "binary":
                origin = {"kind": "native", "level": None, "parent_feature": None}
            elif kind == "nominal":
                origin = {"kind": "binarized_nominal", "level": NOMINAL_LEVELS[k],
                          "parent_feature": base}
            else:
                origin = {"kind": "binarized_ordinal", "level": None,
                          "parent_feature": f"feature {int(base[-3:]):03d}"}
            features.append({"category": cat, "name": name, "origin": origin})
    with open(directory / "registries.json", "w", encoding="utf-8") as fh:
        json.dump({"languages": langs, "features": features, "sources": list(dense_by_source)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    codes = [rec["glottocode"] for rec in langs]
    for src, dense in dense_by_source.items():
        li, fi = np.nonzero(~np.isnan(dense))
        rows = sorted((codes[a], names[b], str(int(dense[a, b]))) for a, b in zip(li, fi))
        write_csv(directory / f"{src}.csv", ["language", "feature", "value"], rows)


# --- workloads ----------------------------------------------------------------------

def tensor_kb(rng, n_lang: int, out: Path):
    """A prepared KB with parents, and the planted grid the checks compare against.

    Returns the latent vectors and the entries of expected.json.
    """
    feats = raw_features()
    names, cats = binarized_columns(feats)
    parents = np.full(n_lang, -1)
    for i in range(n_lang // 10, n_lang):
        if rng.random() < PARENT_SHARE / 0.9:
            parents[i] = int(rng.integers(0, i))
    z, truth = plant_truth(rng, n_lang, feats, parents)
    isos = iso_codes(rng, n_lang)
    tier_names = np.array(["HRL", "MRL", "LRL", "Unknown"])
    tier_pick = tier_names[np.searchsorted([0.05, 0.25, 0.9], rng.random(n_lang))]
    langs = []
    for i in range(n_lang):
        langs.append({
            "glottocode": glottocode(i),
            "iso639_3": isos[i] if rng.random() < ALIAS_SHARE else None,
            "name": f"Language {i}",
            "parent": glottocode(int(parents[i])) if parents[i] >= 0 else None,
            "tier": str(tier_pick[i]),
        })
    dense = {}
    for src in SOURCES:
        mask, values = observe(rng, truth, feats)
        dense[src] = dense_binarized(mask, values, feats, len(names))
    write_tensor_dir(out / "kb", langs, feats, dense)
    stack = np.stack([dense[s] for s in SOURCES])
    write_npz(out / "oracle.npz", values=stack, categories=np.array(cats),
              languages=np.array([rec["glottocode"] for rec in langs]))
    return z, {"languages": n_lang, "features": len(names), "sources": list(SOURCES),
               "cells": int((~np.isnan(stack)).sum())}


def gen_query(rng, out: Path) -> None:
    _z, expected = tensor_kb(rng, SCALES["M"], out)
    write_json(out / "expected.json", expected)


def gen_evaluate(rng, out: Path) -> None:
    n = SCALES["S"]
    z, expected = tensor_kb(rng, n, out)
    order = rng.permutation(n)
    case = sorted(int(i) for i in order[:CASE_LANGS])
    # the planted reference metric: latent distance plus a little noise
    rows = []
    for a in range(len(case)):
        for b in range(a + 1, len(case)):
            i, j = case[a], case[b]
            ref = float(np.linalg.norm(z[i] - z[j])) + float(rng.normal(0, 0.3))
            rows.append((glottocode(i), glottocode(j), f"{ref:.6f}"))
    write_csv(out / "reference.csv", ["lang_a", "lang_b", "ref"], rows)
    expected["case_languages"] = [glottocode(i) for i in case]
    expected["perm_languages"] = [glottocode(i) for i in case[:PERM_LANGS]]
    write_json(out / "expected.json", expected)


def gen_ingest(rng, out: Path) -> None:
    n = SCALES["M"]
    feats = raw_features()
    names, _cats = binarized_columns(feats)
    n_raw = len(feats)
    _z, truth = plant_truth(rng, n, feats)
    codes = [glottocode(i) for i in range(n)]
    isos = iso_codes(rng, 2 * n)
    aliased = rng.random(n) < ALIAS_SHARE
    retired = aliased & (rng.random(n) < RETIRED_SHARE)

    # resolution table: current codes for aliased languages, plus retired ones
    res_rows = []
    for i in np.flatnonzero(aliased):
        res_rows.append((isos[i], codes[i], "0"))
        if retired[i]:
            res_rows.append((isos[n + i], codes[i], "1"))
    write_csv(out / "resolution.csv", ["external_id", "glottocode", "retired_flag"], res_rows)

    schema = {}
    for label, kind, cat, _bn in feats:
        spec = {"kind": kind, "category": cat}
        if kind == "nominal":
            spec["categories"] = list(NOMINAL_LEVELS)
        if kind == "ordinal":
            spec["max_level"] = ORDINAL_MAX
        schema[label] = spec
    write_json(out / "schema.json", {"features": schema})

    def ext_id(i: int, src_index: int) -> str:
        if not aliased[i]:
            return codes[i]
        if retired[i] and src_index in (1, 3):
            return isos[n + i]
        return isos[i]

    # observed source grids; src1 is later re-exported with changes
    observed = {}
    for s in SOURCES:
        observed[s] = observe(rng, truth, feats)

    def export_rows(src_index, mask, values, missing_mask):
        rows = []
        for i in range(n):
            for r in np.flatnonzero(mask[i] | missing_mask[i]):
                label, kind = feats[r][0], feats[r][1]
                text = "?" if missing_mask[i, r] else raw_text(kind, values[i, r])
                rows.append((ext_id(i, src_index), label, text))
        return rows

    col_of = np.cumsum([0] + [len(f[3]) for f in feats])  # first binarized column

    def cell_set(mask, values):
        """(lang idx, binarized column) -> value for an observed raw grid."""
        cells = {}
        for i, r in zip(*np.nonzero(mask)):
            for k, v in enumerate(binarize(feats[r][1], values[i, r])):
                cells[(int(i), int(col_of[r] + k))] = v
        return cells

    stored = {}                 # (lang, col, src) -> value after each step
    for k, s in enumerate(SOURCES[:3]):
        mask, values = observed[s]
        missing = (~mask) & (rng.random(mask.shape) < 0.01)
        write_csv(out / f"{s}.csv", ["language", "feature", "value"],
                  export_rows(k, mask, values, missing))
        for (i, c), v in cell_set(mask, values).items():
            stored[(i, c, s)] = v
    step1_cells = len(stored)
    # missing-marker rows are skipped before id resolution, so only languages
    # with an observed value in src2 resolve a retired code
    step1_retired = int((retired & observed["src2"][0].any(axis=1)).sum())

    # updated src1 export: same rows, new rows, and planted conflicts on
    # binary features; a conflicting row replaces the original one
    mask1, values1 = observed["src1"]
    new_rows = (~mask1) & (rng.random(mask1.shape) < 0.05)
    binary = np.array([f[1] == "binary" for f in feats])
    conflict = mask1 & binary[None, :] & (rng.random(mask1.shape) < 0.01)
    upd_mask = mask1 | new_rows
    upd_values = np.where(new_rows, truth, values1)
    upd_values = np.where(conflict, 1 - values1, upd_values)
    write_csv(out / "src1_update.csv", ["language", "feature", "value"],
              export_rows(0, upd_mask, upd_values, np.zeros_like(mask1)))
    mask4, values4 = observed["src4"]
    write_csv(out / "src4.csv", ["language", "feature", "value"],
              export_rows(3, mask4, values4, np.zeros_like(mask4)))

    # implication rules between binary features; targets are never sources,
    # so one pass reaches the fixpoint
    bin_cols = [r for r in range(n_raw) if feats[r][1] == "binary"]
    picks = rng.choice(len(bin_cols), size=2 * N_RULES, replace=False)
    rules = [(bin_cols[picks[2 * k]], bin_cols[picks[2 * k + 1]]) for k in range(N_RULES)]
    write_csv(out / "rules.csv", ["from_feature", "to_feature", "direction", "from_value", "to_value"],
              [(names[col_of[a]], names[col_of[b]], "implies", "1", "1") for a, b in rules])

    upd_cells = cell_set(upd_mask, upd_values)
    src4_cells = cell_set(mask4, values4)
    known_any = {(i, c) for (i, c, _s) in stored}
    batch_any = set(upd_cells) | set(src4_cells)
    inferred = {}
    for a, b in rules:
        ca, cb = int(col_of[a]), int(col_of[b])
        for i in range(n):
            if (i, ca) in upd_cells:
                v, src = upd_cells[(i, ca)], "src1"
            elif (i, ca) in src4_cells:
                v, src = src4_cells[(i, ca)], "src4"
            else:
                continue
            if v == 1.0 and (i, cb) not in batch_any and (i, cb) not in known_any:
                inferred[(i, cb, src)] = 1.0
    conflicts = 0
    for (i, c), v in upd_cells.items():
        old = stored.get((i, c, "src1"))
        if old is None:
            stored[(i, c, "src1")] = v
        elif old != v:
            conflicts += 1
    for (i, c), v in src4_cells.items():
        stored[(i, c, "src4")] = v
    stored.update(inferred)
    step2_retired = int((retired & mask4.any(axis=1)).sum())

    sample_keys = sorted(stored)
    pick = rng.choice(len(sample_keys), size=READBACK_SAMPLE, replace=False)
    readback = [[codes[sample_keys[p][0]], names[sample_keys[p][1]], sample_keys[p][2],
                 stored[sample_keys[p]]] for p in sorted(pick.tolist())]

    # in-process updates: 100-cell batches of brand-new cells from src5
    n_batches = UPDATE_BATCHES + UPDATE_EXTRA_BATCHES
    n_cols = len(names)
    flat = rng.choice(n * n_cols, size=n_batches * UPDATE_BATCH, replace=False)
    truth_bin = dense_binarized(np.ones_like(mask1), truth, feats, n_cols)
    batches = []
    queries = []
    for b in range(n_batches):
        chunk = flat[b * UPDATE_BATCH:(b + 1) * UPDATE_BATCH]
        li, ci = np.divmod(chunk, n_cols)
        vals = truth_bin[li, ci]
        vals = np.where(rng.random(vals.size) < NOISE, 1.0 - vals, vals)
        batches.append([[codes[a], names[c], float(v)] for a, c, v in zip(li, ci, vals)])
        if b < UPDATE_BATCHES and (b + 1) % QUERY_EVERY == 0:
            pair = rng.choice(np.unique(li), size=2, replace=False)
            queries.append([b, codes[int(pair[0])], codes[int(pair[1])]])
    union = np.full((n, n_cols), np.nan)
    for (i, c, _s), v in stored.items():
        union[i, c] = v if np.isnan(union[i, c]) else max(union[i, c], v)
    write_npz(out / "oracle.npz", union_step2=union)
    write_json(out / "updates.json", {"source": UPDATE_SOURCE, "batches": batches,
                                      "queries": queries, "timed_batches": UPDATE_BATCHES})
    write_json(out / "expected.json", {
        "languages": n,
        "step1_cells": step1_cells, "step1_retired": step1_retired,
        "step2_cells": len(stored), "step2_conflicts": conflicts,
        "step2_retired": step2_retired,
        "readback": readback,
        "languages_with_cells": len({i for (i, _c, _s) in stored}),
    })


GENERATORS = {"ingest": gen_ingest, "query": gen_query, "evaluate": gen_evaluate}


def generate(workload: str, seed: int, out) -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOAD_SALT[workload]])
    GENERATORS[workload](rng, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
