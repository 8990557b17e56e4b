"""Text analysis: lang-ID, quality, BPE counting, fingerprints, winnowing.

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sciscraper_ray.words import sql_in_list

from sciscraper_ray.pipelines.queries._shared import (
    _SQL_TOKENS,
    _docs,
    register,
)


# --------------------------------------------------------------------------
# Text analysis (lang-ID, quality, token counting, fingerprinting) — each
# formula is mirrored verbatim in the oracle SQL.
# --------------------------------------------------------------------------

from sciscraper_ray.kernels.md5 import (  # noqa: E402
    md5_hash128,
    md5_hex,
    md5_hex15,
    md5_hex15_sql,
)
from sciscraper_ray.stages.textstats import (  # noqa: E402
    BPE_SPLIT_PATTERN,
    LANG_PROFILES,
    STOPWORDS_EN,
    WinnowStage,
    bpe_token_count_batch,
    lang_id_batch,
    quality_batch,
)
from sciscraper_ray.stages.relational import group_count_batch


def _tokens_by(batch: pa.Table, col: str) -> pa.Table:
    """One ``(col, token)`` row per token of ``batch["text"]`` under the
    reference tokenizer, ``col`` taken from the token's document."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    toks = tokenize_column(batch["text"]).combine_chunks()
    par = pc.list_parent_indices(toks)
    return pa.table({col: pc.take(batch[col], par), "token": pc.list_flatten(toks)})


def _lang_sql() -> str:
    langs = sorted(LANG_PROFILES)
    counts = ",\n".join(
        f"sum(CASE WHEN token IN {sql_in_list(LANG_PROFILES[lang])} THEN 1 ELSE 0 END) AS c_{lang}"
        for lang in langs
    )
    # argmax with alphabetical tie-break == first strict max in lang order
    pick = "CASE "
    for lang in langs:
        others = [f"c_{o}" for o in langs if o < lang]
        cond = f"c_{lang} > 0"
        for o in others:
            cond += f" AND c_{lang} > {o}"
        for o in [f"c_{o}" for o in langs if o > lang]:
            cond += f" AND c_{lang} >= {o}"
        pick += f"WHEN {cond} THEN '{lang}' "
    pick += "ELSE 'und' END"
    return f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), scores AS (
        SELECT doc_id, {counts} FROM toks GROUP BY doc_id
    )
    SELECT d.doc_id, COALESCE({pick}, 'und') AS lang_pred
    FROM documents d LEFT JOIN scores USING (doc_id)
    """


@register("doc_lang_id", oracle=_lang_sql())
def doc_lang_id(sf_dir: str):
    """Stopword-profile language heuristic (argmax hit count, alphabetical
    tie-break, 'und' when nothing matches)."""
    return _docs(sf_dir).map_batches(
        lambda b: lang_id_batch(b).drop_columns(["text"]), batch_format="pyarrow"
    )


@register(
    "doc_quality",
    oracle=f"""
    WITH base AS (
        SELECT doc_id,
               length(text) AS n_chars,
               len({_SQL_TOKENS}) AS n_words,
               list_sum(list_transform({_SQL_TOKENS}, x -> length(x))) AS sum_len,
               len(list_filter({_SQL_TOKENS},
                   x -> x IN {sql_in_list(STOPWORDS_EN)})) AS stop_cnt
        FROM documents
    )
    SELECT doc_id,
           n_chars,
           CAST(n_words AS BIGINT) AS n_words,
           sum_len * 1.0 / n_words AS mean_word_len,
           stop_cnt * 1.0 / n_words AS stopword_ratio,
           0.5 * LEAST(1.0, n_words / 100.0)
             + 0.3 * (1.0 - stop_cnt * 1.0 / n_words)
             + 0.2 * LEAST(1.0, (sum_len * 1.0 / n_words) / 8.0) AS quality
    FROM base
    """,
)
def doc_quality(sf_dir: str):
    """Quality scoring: length/stopword/word-length metrics + composite."""
    return _docs(sf_dir).map_batches(quality_batch, batch_format="pyarrow")


@register(
    "doc_bpe_tokens",
    oracle=f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{BPE_SPLIT_PATTERN}')) AS BIGINT)
               AS bpe_tokens
    FROM documents
    """,
)
def doc_bpe_tokens(sf_dir: str):
    """BPE-ish pre-tokenizer count (compiled regex, RE2-compatible)."""
    return _docs(sf_dir).map_batches(bpe_token_count_batch, batch_format="pyarrow")


@register(
    "doc_fingerprint",
    oracle="SELECT doc_id, md5(text) AS fingerprint FROM documents",
)
def doc_fingerprint(sf_dir: str):
    """Content fingerprint (md5; DuckDB-compatible)."""
    def fingerprint(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b["doc_id"], "fingerprint": md5_hex(b["text"].to_pylist())}
        )

    return _docs(sf_dir).map_batches(fingerprint, batch_format="pyarrow")


def _winnow_sql(k: int = 8, window: int = 4) -> str:
    """Winnowing recomputed from first principles in SQL: Karp-Rabin
    k-gram hashes via direct polynomial evaluation in HUGEINT (equals the
    Python rolling form mod 2^61-1), leftmost-min-per-window selection via
    arg_min over the (h, i) pair packed into one HUGEINT, and the
    run-length dedup — which equals DISTINCT j, because the leftmost-min
    rule makes the selected position sequence non-decreasing."""
    p = (1 << 61) - 1
    terms = " + ".join(
        f"CAST(ascii(substr(text, i + {1 + j}, 1)) AS HUGEINT) * {257 ** (k - 1 - j)}"
        for j in range(k)
    )
    return f"""
    WITH gh AS (
        SELECT doc_id, i, CAST(({terms}) % {p} AS BIGINT) AS h
        FROM (
            SELECT doc_id, text, unnest(range(length(text) - {k - 1})) AS i
            FROM documents WHERE length(text) >= {k}
        )
    ), counts AS (SELECT doc_id, count(*) AS nh FROM gh GROUP BY doc_id),
    win AS (
        SELECT doc_id, i AS wstart,
               arg_min(i, CAST(h AS HUGEINT) * 4294967296 + i) OVER (
                   PARTITION BY doc_id ORDER BY i
                   ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING
               ) AS j
        FROM gh
    ), sel AS (
        SELECT DISTINCT w.doc_id, w.j
        FROM win w JOIN counts c USING (doc_id)
        WHERE w.wstart <= c.nh - {window}
    ), fp AS (
        SELECT s.doc_id, g.h
        FROM sel s JOIN gh g ON g.doc_id = s.doc_id AND g.i = s.j
    ), agg AS (
        SELECT doc_id, count(*) AS n_fingerprints,
               min(h) AS min_fp, max(h) AS max_fp
        FROM fp GROUP BY doc_id
    )
    SELECT d.doc_id,
           COALESCE(a.n_fingerprints, 0) AS n_fingerprints,
           a.min_fp, a.max_fp
    FROM documents d LEFT JOIN agg a USING (doc_id)
    """


@register("doc_winnow", oracle=_winnow_sql())
def doc_winnow(sf_dir: str):
    """Winnowing document fingerprints (Karp-Rabin k-grams, min-per-window,
    Schleimer et al. 2003) — oracle recomputes the full algorithm in SQL."""
    return _docs(sf_dir).map_batches(
        WinnowStage, batch_format="pyarrow", concurrency=(1, 8)
    )



# --------------------------------------------------------------------------
# Unigram entropy — the information-density quality signal (low-entropy
# documents are template/spam boilerplate; CCNet and Gopher both gate on
# repetition, entropy is the scale-free generalization). One tokenize pass,
# all per-doc statistics from bincount over the flat (doc, token) counts.
# --------------------------------------------------------------------------


@register(
    "doc_token_entropy",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), counts AS (
        SELECT doc_id, token, count(*) AS c FROM toks GROUP BY doc_id, token
    ), agg AS (
        SELECT doc_id, sum(c) AS n, count(*) AS types,
               sum(c * log2(c)) AS s
        FROM counts GROUP BY doc_id
    )
    SELECT doc_id,
           CAST(n AS BIGINT) AS n_tokens,
           CAST(types AS BIGINT) AS n_types,
           round(log2(n) - s / n, 6) AS entropy,
           CASE WHEN types > 1
                THEN round((log2(n) - s / n) / log2(types), 6)
                ELSE 0.0 END AS norm_entropy
    FROM agg
    """,
)
def doc_token_entropy(sf_dir: str):
    """Per-document Shannon entropy of the unigram distribution plus the
    type-normalized variant (entropy / log2(n_types), the 'efficiency' —
    1.0 means a uniform vocabulary, ~0 means one token dominates).

    Embarrassingly parallel: no shuffle at all. Per batch the identity
    H = log2(n) - sum(c*log2(c))/n needs only the per-(doc, token)
    counts, which one pandas groupby computes vectorized; the three
    per-doc reductions are bincounts over the group->doc index. Both
    engines evaluate the identical closed form, so round(,6) pins the
    float comparison."""
    import pandas as pd

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def entropy_batch(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, dtype=np.int64)
        lens = np.diff(offs)
        doc = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        df = pd.DataFrame({"d": doc, "t": toks.flatten().to_pandas()})  # bounded: worker-side column conversion
        grp = df.groupby(["d", "t"], sort=False).size()
        d_idx = grp.index.get_level_values(0).to_numpy()
        cv = grp.to_numpy().astype(np.float64)
        nb = len(batch)
        n = np.bincount(d_idx, weights=cv, minlength=nb)
        types = np.bincount(d_idx, minlength=nb).astype(np.int64)
        s = np.bincount(d_idx, weights=cv * np.log2(cv), minlength=nb)
        ent = np.log2(n) - s / n
        denom = np.where(types > 1, np.log2(np.maximum(types, 2)), 1.0)
        norm = np.where(types > 1, ent / denom, 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
                "n_types": pa.array(types, pa.int64()),
                "entropy": pa.array(np.round(ent, 6), pa.float64()),
                "norm_entropy": pa.array(np.round(norm, 6), pa.float64()),
            }
        )

    return _docs(sf_dir).map_batches(entropy_batch, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Per-source KL divergence from the corpus unigram distribution — the
# domain-shift / mixture-drift metric a curation pipeline tracks per
# ingest source (DoReMi/DSIR-style domain weighting starts from exactly
# these distributional distances).
# --------------------------------------------------------------------------


@register(
    "source_kl_divergence",
    oracle=f"""
    WITH toks AS (
        SELECT source, unnest({_SQL_TOKENS}) AS token FROM documents
    ), c AS (
        SELECT source, token, count(*) AS c FROM toks GROUP BY source, token
    ), tot AS (
        SELECT source, sum(c) AS t FROM c GROUP BY source
    ), g AS (
        SELECT token, sum(c) AS g FROM c GROUP BY token
    ), grand AS (
        SELECT sum(c) AS gg FROM c
    )
    SELECT c.source,
           CAST(max(tot.t) AS BIGINT) AS n_tokens,
           round(sum((c.c / tot.t) * log2((c.c / tot.t) / (g.g / grand.gg))), 6)
               AS kl_bits
    FROM c JOIN tot USING (source) JOIN g USING (token), grand
    GROUP BY c.source
    """,
)
def source_kl_divergence(sf_dir: str, plan: str = "auto"):
    """KL(source || corpus) in bits over unigram distributions: per-batch
    (source, token) count partials (vocabulary x sources x batches rows,
    Heaps'-law small) through the shared two-plan merge; the KL sum is
    then one vectorized pass over the vocabulary-bounded merged table —
    group arithmetic via factorized indices, never a per-source loop.
    Both engines evaluate p*log2(p/q) with double division, so round(,6)
    pins the comparison."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from sciscraper_ray.pipelines.plan import driver_frame, resolve_plan

    partials = _docs(sf_dir, columns=("source", "text")).map_batches(
        lambda b: group_count_batch(_tokens_by(b, "source"), ["source", "token"]),
        batch_format="pyarrow",
    )
    mode, partials = resolve_plan(partials, plan)
    if mode == "driver":
        df = driver_frame(partials, what="source_kl_divergence")
        agg = df.groupby(["source", "token"], as_index=False)["cnt"].sum()
    else:
        agg = (
            partials.groupby(["source", "token"])
            .aggregate(Sum(on="cnt", alias_name="cnt"))
            .to_pandas()  # bounded: |sources| x vocab post-aggregate
        )
    c = agg["cnt"].to_numpy(np.float64)
    s_codes, s_uniq = pd.factorize(agg["source"], sort=True)
    t_codes, _ = pd.factorize(agg["token"], sort=False)
    tot = np.bincount(s_codes, weights=c)
    gtok = np.bincount(t_codes, weights=c)
    grand = c.sum()
    p = c / tot[s_codes]
    q = gtok[t_codes] / grand
    kl = np.bincount(s_codes, weights=p * np.log2(p / q))
    return pa.table(
        {
            "source": pa.array(np.asarray(s_uniq)),
            "n_tokens": pa.array(tot.astype(np.int64), pa.int64()),
            "kl_bits": pa.array(np.round(kl, 6), pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Skip-gram window co-occurrence — the (word, context) counting pass a
# word2vec/GloVe embedding trainer runs (Mikolov et al. 2013); window-2
# ordered pairs, vocabulary-bounded exchange like token_pair_counts.
# --------------------------------------------------------------------------

_COOC_WINDOW = 2


@register(
    "token_window_cooc",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    )
    SELECT a.token AS w1, b.token AS w2, count(*) AS cnt
    FROM toks a JOIN toks b
      ON a.doc_id = b.doc_id
     AND b.ord - a.ord BETWEEN 1 AND {_COOC_WINDOW}
    GROUP BY w1, w2
    ORDER BY cnt DESC, w1 ASC, w2 ASC
    LIMIT 80
    """,
)
def token_window_cooc(sf_dir: str):
    """Ordered co-occurrence counts within a forward window of 2, top-80:
    per batch, each offset d in 1..W is one vectorized shift of the flat
    token buffer (same-doc adjacency = equal parent indices — no per-doc
    loop, no position join), the offsets' pair streams value-count
    locally, and the shuffle moves (w1, w2, cnt) partials bounded by the
    batch's pair vocabulary. The oracle runs the quadratic position
    self-join the engine never materializes."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        n = len(flat)
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        w1s, w2s = [], []
        for d in range(1, _COOC_WINDOW + 1):
            if n <= d:
                break
            same_doc = pa.array(parents[:-d] == parents[d:])
            w1s.append(flat.slice(0, n - d).filter(same_doc))
            w2s.append(flat.slice(d, n - d).filter(same_doc))
        if not w1s:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                "w1": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in w1s]).to_pandas(),  # bounded: worker-side column conversion
                "w2": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in w2s]).to_pandas(),  # bounded: worker-side column conversion
            }
        )
        vc = df.value_counts().rename("cnt").reset_index()
        return pa.Table.from_pandas(vc, preserve_index=False)

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .sort(key=["cnt", "w1", "w2"], descending=[True, False, False])
        .limit(80)
    )


# --------------------------------------------------------------------------
# Heaps'-law fit — vocabulary-growth exponent V(n) ~ k * n^beta over the
# corpus in doc_id order (Heaps 1978): the corpus-health scalar that
# tells a curation pipeline whether new data still adds vocabulary.
# --------------------------------------------------------------------------

_HEAPS_W = 1024  # coarse doc_id range width for the two-level scan


@register(
    "corpus_heaps_law",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), n AS (
        SELECT doc_id, count(*) AS nt FROM toks GROUP BY doc_id
    ), f AS (
        SELECT min(doc_id) AS doc_id FROM toks GROUP BY token
    ), fc AS (
        SELECT doc_id, count(*) AS ft FROM f GROUP BY doc_id
    ), cum AS (
        SELECT n.doc_id,
               sum(n.nt) OVER (ORDER BY n.doc_id) AS ct,
               sum(COALESCE(fc.ft, 0)) OVER (ORDER BY n.doc_id) AS cy
        FROM n LEFT JOIN fc USING (doc_id)
    ), xy AS (
        SELECT ln(CAST(ct AS DOUBLE)) AS x, ln(CAST(cy AS DOUBLE)) AS y
        FROM cum
    )
    SELECT count(*) AS n_docs,
           round((count(*) * sum(x * y) - sum(x) * sum(y))
                 / (count(*) * sum(x * x) - sum(x) * sum(x)), 6)
               AS heaps_beta,
           round((sum(y)
                  - ((count(*) * sum(x * y) - sum(x) * sum(y))
                     / (count(*) * sum(x * x) - sum(x) * sum(x))) * sum(x))
                 / count(*), 6) AS heaps_logk
    FROM xy
    """,
)
def corpus_heaps_law(sf_dir: str, plan: str = "auto"):
    """log-log least-squares fit of cumulative vocabulary vs cumulative
    tokens, both prefix sums in doc_id order, WITHOUT corpus-sized driver
    state: (1) per-doc token counts stream once; (2) each token's
    first-occurrence doc comes from groupby(token).Min — the
    vocabulary-bounded exchange every first-occurrence operator here
    uses; (3) the two prefix sums run as the textbook two-level scan
    (doc_pack_offsets pattern — coarse doc_id ranges reduce to (range,
    token_total, newtype_total) cells, the driver cumsums the TINY range
    table into bases, and each range scans internally); (4) each range
    emits only its 5 regression partials (n, Σx, Σy, Σxy, Σx²), so the
    final fit reduces |ranges| * 5 doubles. Identical closed form in the
    oracle."""
    import pandas as pd
    from ray.data.aggregate import Min, Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def per_doc(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"])
        n = pc.coalesce(pc.list_value_length(toks), pa.scalar(0, pa.int32()))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "rng": pa.array(ids // _HEAPS_W, pa.int64()),
                "nt": pc.cast(n, pa.int64()),
            }
        )

    def token_firsts(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parents]
        t = pa.table({"token": flat, "doc_id": pa.array(ids, pa.int64())})
        g = t.group_by("token").aggregate([("doc_id", "min")])
        return g.rename_columns(["token", "first_doc"])

    import ray.data

    ds = _docs(sf_dir)
    counted = ds.map_batches(per_doc, batch_format="pyarrow").materialize()

    # vocabulary-bounded: one row per distinct token after the merge
    firsts = (
        ds.map_batches(token_firsts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Min(on="first_doc", alias_name="first_doc"))
    )

    def first_counts(b: pa.Table) -> pa.Table:
        ids = b["first_doc"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {"doc_id": b["first_doc"], "rng": pa.array(ids // _HEAPS_W, pa.int64())}
        )
        return group_count_batch(t, ["doc_id", "rng"], count="ft")

    ft = (
        firsts.map_batches(first_counts, batch_format="pyarrow")
        .groupby(["doc_id", "rng"])
        .aggregate(Sum(on="ft", alias_name="ft"))
    )

    # pass 1: coarse range totals -> tiny driver table -> base offsets
    def range_totals(b: pa.Table) -> pa.Table:
        g = b.group_by("rng").aggregate([("nt", "sum")])
        return g.rename_columns(["rng", "tot"])

    def range_totals_ft(b: pa.Table) -> pa.Table:
        g = b.group_by("rng").aggregate([("ft", "sum")])
        return g.rename_columns(["rng", "tot"])

    h_nt = (
        counted.map_batches(range_totals, batch_format="pyarrow")
        .to_pandas().groupby("rng")["tot"].sum().sort_index()  # bounded: |ranges| x blocks
    )
    h_ft = (
        ft.map_batches(range_totals_ft, batch_format="pyarrow")
        .to_pandas().groupby("rng")["tot"].sum().sort_index()  # bounded: |ranges| x blocks
    )
    # reindex over the union range grid: a range where the (early-
    # saturating) vocabulary adds no new types is absent from h_ft, but
    # its BASE is still the full prior total — without the reindex the
    # base fell to 0 and log(cy)=log(0) poisoned the fit (sf0.1 finding)
    all_rngs = sorted(set(h_nt.index) | set(h_ft.index))
    h_nt = h_nt.reindex(all_rngs, fill_value=0)
    h_ft = h_ft.reindex(all_rngs, fill_value=0)
    base_nt = dict(zip(h_nt.index, h_nt.cumsum().shift(fill_value=0)))
    base_ft = dict(zip(h_ft.index, h_ft.cumsum().shift(fill_value=0)))

    # pass 2: in-range scan; each range emits 5 regression partials
    from sciscraper_ray.stages.relational import bucketed_hash_join

    ft2 = ft.map_batches(
        lambda b: pa.table({"doc_id2": b["doc_id"], "ft": b["ft"]}),
        batch_format="pyarrow",
    )
    merged = bucketed_hash_join(
        counted, ft2, left_on="doc_id", right_on="doc_id2",
        num_buckets=32, how="left",
    )

    def scan_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        rng = int(g["rng"].iloc[0])
        nt = g["nt"].to_numpy(np.int64)
        ftv = g["ft"].fillna(0).to_numpy(np.int64)
        ct = int(base_nt.get(rng, 0)) + np.cumsum(nt)
        cy = int(base_ft.get(rng, 0)) + np.cumsum(ftv)
        x = np.log(ct.astype(np.float64))
        y = np.log(cy.astype(np.float64))
        return pd.DataFrame(
            {
                "n": [len(x)],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxy": [(x * y).sum()],
                "sxx": [(x * x).sum()],
            }
        )

    parts = (
        merged.groupby("rng")
        .map_groups(scan_range, batch_format="pandas")
        .to_pandas()  # bounded: |ranges| summary rows
    )
    n = float(parts["n"].sum())
    sx, sy = float(parts["sx"].sum()), float(parts["sy"].sum())
    sxy, sxx = float(parts["sxy"].sum()), float(parts["sxx"].sum())
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    logk = (sy - beta * sx) / n
    return pa.table(
        {
            "n_docs": pa.array([int(n)], pa.int64()),
            "heaps_beta": pa.array([round(beta, 6)], pa.float64()),
            "heaps_logk": pa.array([round(logk, 6)], pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# Declared-vs-predicted language confusion matrix — the crawl-QA
# aggregate behind doc_lang_mismatch's per-row report (which langtags
# are systematically wrong, not just which rows).
# --------------------------------------------------------------------------


@register(
    "doc_lang_confusion",
    oracle=f"""
    SELECT d.lang AS declared, p.lang_pred AS predicted,
           count(*) AS docs
    FROM ({_lang_sql()}) p JOIN documents d USING (doc_id)
    GROUP BY declared, predicted
    """,
)
def doc_lang_confusion(sf_dir: str):
    """Confusion-matrix aggregate over the content-based language ID vs
    the page's declared tag: the per-batch kernel runs the same
    vectorized lang_id pass as doc_lang_id and pre-aggregates to
    (declared, predicted, count) — the exchange is bounded by
    |langs|^2 x batches, never the document stream."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        out = lang_id_batch(batch)
        t = pa.table(
            {"declared": batch["lang"], "predicted": out["lang_pred"]}
        )
        g = t.group_by(["declared", "predicted"]).aggregate(
            [("predicted", "count")]
        )
        return g.rename_columns(["declared", "predicted", "c"])

    return (
        _docs(sf_dir, columns=("doc_id", "text", "lang"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["declared", "predicted"])
        .aggregate(Sum(on="c", alias_name="docs"))
    )


# --------------------------------------------------------------------------
# Prefix autocomplete index — for every 3-char token prefix, the corpus's
# most frequent completion (the build step behind a search-box
# suggest service).
# --------------------------------------------------------------------------


@register(
    "token_prefix_autocomplete",
    oracle=f"""
    WITH toks AS (
        SELECT unnest({_SQL_TOKENS}) AS token FROM documents
    ), c AS (
        SELECT token, count(*) AS cnt FROM toks
        WHERE length(token) >= 3 GROUP BY token
    ), ranked AS (
        SELECT substr(token, 1, 3) AS prefix, token, cnt,
               row_number() OVER (
                   PARTITION BY substr(token, 1, 3)
                   ORDER BY cnt DESC, token ASC
               ) AS rn
        FROM c
    )
    SELECT prefix, token AS completion, cnt FROM ranked WHERE rn = 1
    """,
)
def token_prefix_autocomplete(sf_dir: str):
    """Top completion per 3-char prefix: per-batch token counts (the
    standard vocabulary-bounded partial), one groupby-Sum merge, then
    the per-prefix argmax is a single vectorized lexsort +
    segment-boundary take over the merged vocabulary table — never a
    per-prefix loop. Ties break (count desc, token asc) on both
    engines."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(tokens)
        flat = flat.filter(
            pc.greater_equal(pc.utf8_length(flat), 3)
        )
        vc = flat.value_counts()
        return pa.table(
            {"token": vc.field("values"), "cnt": vc.field("counts")}
        )

    merged = (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: vocabulary
    )
    tok = merged["token"].to_numpy()
    cnt = merged["cnt"].to_numpy(np.int64)
    prefix = np.array([t[:3] for t in tok])
    order = np.lexsort((tok, -cnt, prefix))
    pfx_s, tok_s, cnt_s = prefix[order], tok[order], cnt[order]
    first = np.r_[True, pfx_s[1:] != pfx_s[:-1]]
    return pa.table(
        {
            "prefix": pa.array(pfx_s[first]),
            "completion": pa.array(tok_s[first]),
            "cnt": pa.array(cnt_s[first], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Readability: Flesch reading ease with vowel-group syllable counting —
# a pure per-row Arrow-kernel stage (zero Python in the hot path).
# --------------------------------------------------------------------------


@register(
    "doc_readability",
    oracle=f"""
    SELECT doc_id,
           CAST(len({_SQL_TOKENS}) AS BIGINT) AS n_words,
           CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                AS BIGINT) AS n_syllables,
           CAST(greatest(len(regexp_extract_all(text, '[.!?]+')), 1)
                AS BIGINT) AS n_sentences,
           206.835
             - 1.015 * (CAST(len({_SQL_TOKENS}) AS DOUBLE)
                        / greatest(len(regexp_extract_all(text, '[.!?]+')), 1))
             - 84.6 * (CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                            AS DOUBLE)
                       / len({_SQL_TOKENS})) AS flesch
    FROM documents
    """,
)
def doc_readability(sf_dir: str):
    """Flesch reading ease per document. Syllables are vowel-group runs
    ([aeiouy]+ non-overlapping matches) — a vowel run never spans a
    space, so counting runs over the WHOLE lowered text equals the
    per-word sum without ever splitting (one count_substring_regex
    kernel per batch, no token explosion). Words use the reference
    tokenizer's count (spaces+1 on the trimmed string); sentences are
    [.!?]+ runs clamped to >=1. The score is left UNROUNDED: both
    engines evaluate the identical double expression per row, which is
    bit-deterministic (no reduction, no sum order), unlike a rounded
    value whose half-even/half-away boundary could diverge."""
    import ray.data

    ds = _docs(sf_dir)

    def score(b: pa.Table) -> pa.Table:
        trimmed = pc.ascii_trim_whitespace(b["text"])
        words = pc.add(
            pc.count_substring(trimmed, pattern=" "), 1
        ).cast(pa.int64())
        syl = pc.count_substring_regex(
            pc.utf8_lower(b["text"]), pattern="[aeiouy]+"
        ).cast(pa.int64())
        sent = pc.max_element_wise(
            pc.count_substring_regex(b["text"], pattern="[.!?]+").cast(
                pa.int64()
            ),
            pa.scalar(1, pa.int64()),
        )
        w = words.to_numpy(zero_copy_only=False).astype(np.float64)
        s = sent.to_numpy(zero_copy_only=False).astype(np.float64)
        y = syl.to_numpy(zero_copy_only=False).astype(np.float64)
        flesch = 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_words": words,
                "n_syllables": syl,
                "n_sentences": sent,
                "flesch": pa.array(flesch, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Sentence segmentation stats — the per-language length profile a corpus
# report quotes (and the gate ahead of sentence-level dedup/packing).
# --------------------------------------------------------------------------

_SENT_SPLIT = "[.!?]+"
_TRIM_CHARS = " \t\n\r"


@register(
    "doc_sentence_stats",
    oracle=f"""
    WITH segs AS (
        SELECT lang,
               trim(unnest(regexp_split_to_array(text, '{_SENT_SPLIT}')),
                    ' ' || chr(9) || chr(10) || chr(13)) AS seg
        FROM documents
    )
    SELECT lang,
           CAST(count(*) FILTER (seg <> '') AS BIGINT) AS n_sentences,
           CAST(coalesce(sum(length(seg)) FILTER (seg <> ''), 0) AS BIGINT)
               AS sum_chars
    FROM segs GROUP BY lang
    """,
)
def doc_sentence_stats(sf_dir: str):
    """Per-language sentence tally: split every document on terminal
    punctuation runs ([.!?]+ — RE2 on both engines), trim each segment
    of explicit ASCII whitespace (' ', TAB, LF, CR; spelled out because
    SQL trim() and Python strip() default to DIFFERENT whitespace sets),
    and count/measure the non-empty segments. Fully vectorized: one
    split_pattern_regex per batch, flat-buffer trim + length, lang
    repeated onto the flat rows from the list offsets; the only
    exchange is the |langs|-bounded final groupby over per-batch
    partials."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        segs = pc.split_pattern_regex(text, _SENT_SPLIT)
        if isinstance(segs, pa.ChunkedArray):
            segs = segs.combine_chunks()
        offs = np.asarray(segs.offsets, np.int64)
        flat = pc.utf8_trim(segs.values, _TRIM_CHARS)
        counts = np.diff(offs)
        langs = np.repeat(
            np.asarray(b["lang"].to_pylist(), object), counts
        )
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        # null texts yield null list rows (zero flat entries) — dropped,
        # matching SQL's unnest(NULL) producing no rows
        keep &= pc.is_valid(flat).to_numpy(zero_copy_only=False)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "lang": pa.array(langs[keep].tolist(), pa.string()),
                "chars": pa.array(lens[keep], pa.int64()),
            }
        )
        return group_count_batch(
            t, ["lang"], {"chars": "sum_chars"}, count="n_sentences"
        )

    return (
        _docs(sf_dir, columns=("text", "lang"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum(on="n_sentences", alias_name="n_sentences"),
            Sum(on="sum_chars", alias_name="sum_chars"),
        )
    )


@register(
    "source_simpson_diversity",
    oracle=f"""
    WITH toks AS (
        SELECT source, unnest({_SQL_TOKENS}) AS token FROM documents
    ), counts AS (
        SELECT source, token, count(*) AS n
        FROM toks WHERE token <> '' GROUP BY source, token
    )
    SELECT source,
           CAST(sum(n * (n - 1)) AS BIGINT) AS simpson_num,
           CAST(sum(n) * (sum(n) - 1) AS BIGINT) AS simpson_den
    FROM counts GROUP BY source
    """,
)
def source_simpson_diversity(sf_dir: str):
    """Simpson's diversity index per source, kept as an exact integer
    rational (num = Σ n_i(n_i-1), den = N(N-1)) — the repeat-probability
    measure of vocabulary concentration; 1 - num/den is the diversity.
    Integers end to end: no float division to diverge from the oracle,
    and both sides BIGINT-cast the sums (the HUGEINT→float64 hash trap).
    Two bounded exchanges: per-batch (source, token) partial counts →
    vocab-bounded groupby; per-source moment partials → |sources|-bounded
    groupby."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def tok_partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        counts = np.diff(offs)
        src = np.repeat(np.asarray(b["source"].to_pylist(), object), counts)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        keep &= pc.is_valid(flat).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "source": pa.array(src[keep].tolist(), pa.string()),
                "token": flat.filter(pa.array(keep)),
            }
        )
        return group_count_batch(t, ["source", "token"], count="n")

    per_token = (
        _docs(sf_dir, columns=("text", "source"))
        .map_batches(tok_partial, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum(on="n", alias_name="n"))
    )

    def moment_partial(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "source": b["source"],
                "num": pa.array(n * (n - 1), pa.int64()),
                "N": pa.array(n, pa.int64()),
            }
        )
        return (
            t.group_by("source")
            .aggregate([("num", "sum"), ("N", "sum")])
            .rename_columns(["source", "num", "N"])
        )

    agg = (
        per_token.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum(on="num", alias_name="num"), Sum(on="N", alias_name="N"))
    )

    def finish(b: pa.Table) -> pa.Table:
        N = b["N"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": b["source"],
                "simpson_num": b["num"],
                "simpson_den": pa.array(N * (N - 1), pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Character-level trigram frequency — the codepoint-n-gram table behind
# lang-ID profiles and transliteration checks, at corpus scale.
# --------------------------------------------------------------------------

_CTRI_TOPK = 50


@register(
    "char_trigram_topk",
    oracle=f"""
    WITH pos AS (
        SELECT text, unnest(range(length(text) - 2)) AS p
        FROM documents WHERE length(text) >= 3
    ), tri AS (
        SELECT substring(text, CAST(p + 1 AS INT), 3) AS trigram
        FROM pos
    )
    SELECT trigram, CAST(count(*) AS BIGINT) AS cnt FROM tri
    GROUP BY trigram
    ORDER BY cnt DESC, trigram ASC
    LIMIT {_CTRI_TOPK}
    """,
)
def char_trigram_topk(sf_dir: str):
    """Corpus-wide character-trigram top-k, fully vectorized: each batch
    joins its texts with a \\x00 sentinel, views the codepoint buffer as
    uint32, and takes all length-3 sliding windows via stride tricks;
    windows touching a sentinel drop. Each trigram packs into ONE int64
    (codepoints < 2^21, so c0 | c1<<21 | c2<<42 fits 63 bits) — the
    shuffle moves packed-int partial counts, never strings; only the 50
    winning keys decode back to text on the driver. Oracle parity:
    substring() indexes CHARACTERS on both engines."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        texts = [t for t in b["text"].to_pylist() if t is not None]
        if not texts:
            return pa.table(
                {"key": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
            )
        joined = "\x00".join(texts)
        cp = np.frombuffer(joined.encode("utf-32-le"), np.uint32).astype(np.int64)
        if len(cp) < 3:
            return pa.table(
                {"key": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
            )
        w = np.lib.stride_tricks.sliding_window_view(cp, 3)
        valid = (w != 0).all(axis=1)
        keys = w[valid, 0] | (w[valid, 1] << 21) | (w[valid, 2] << 42)
        uk, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        _docs(sf_dir, columns=("text",))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: distinct trigrams (alphabet³ ceiling)
    )
    agg["trigram"] = [
        chr(k & 0x1FFFFF) + chr((k >> 21) & 0x1FFFFF) + chr((k >> 42) & 0x1FFFFF)
        for k in agg["key"]
    ]
    top = agg.sort_values(
        ["cnt", "trigram"], ascending=[False, True], kind="stable"
    ).head(_CTRI_TOPK)
    return pa.table(
        {
            "trigram": pa.array(top["trigram"].tolist(), pa.string()),
            "cnt": pa.array(top["cnt"].to_numpy().astype(np.int64), pa.int64()),
        }
    )


@register(
    "doc_ascii_ratio",
    oracle="""
    SELECT source,
           CAST(sum(length(regexp_replace(text, '[^ -~]', '', 'g'))
                    ) AS BIGINT) AS ascii_chars,
           CAST(sum(length(text)) AS BIGINT) AS total_chars
    FROM documents WHERE text IS NOT NULL
    GROUP BY source
    """,
)
def doc_ascii_ratio(sf_dir: str):
    """Printable-ASCII character share per source — the mojibake /
    encoding-health gate (a source whose ascii share suddenly drops is
    mis-decoded upstream). Exact integer rationals (ascii_chars,
    total_chars); counting is one vectorized codepoint-range test over
    the batch's flat codepoint buffer. One |sources|-bounded exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        srcs, asc, tot = [], [], []
        for s, t in zip(b["source"].to_pylist(), b["text"].to_pylist()):
            if t is None:
                continue
            cp = np.frombuffer(t.encode("utf-32-le"), np.uint32)
            srcs.append(s)
            asc.append(int(((cp >= 0x20) & (cp <= 0x7E)).sum()))
            tot.append(len(cp))
        t = pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "ascii_chars": pa.array(asc, pa.int64()),
                "total_chars": pa.array(tot, pa.int64()),
            }
        )
        return (
            t.group_by("source")
            .aggregate([("ascii_chars", "sum"), ("total_chars", "sum")])
            .rename_columns(["source", "ascii_chars", "total_chars"])
        )

    return (
        _docs(sf_dir, columns=("text", "source"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum(on="ascii_chars", alias_name="ascii_chars"),
            Sum(on="total_chars", alias_name="total_chars"),
        )
    )


@register(
    "doc_hapax_trigrams",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), tri AS (
        SELECT doc_id, ts[p+1] || ' ' || ts[p+2] || ' ' || ts[p+3] AS g
        FROM toks, unnest(range(len(ts) - 2)) AS u(p)
        WHERE len(ts) >= 3
    ), c AS (
        SELECT g, count(*) AS c, min(doc_id) AS d FROM tri GROUP BY g
    )
    SELECT d AS doc_id, CAST(count(*) AS BIGINT) AS n_hapax_trigrams
    FROM c WHERE c = 1 GROUP BY d
    """,
)
def doc_hapax_trigrams(sf_dir: str):
    """Corpus-hapax word-TRIGRAM attribution per document — which docs
    carry phrasing that appears nowhere else (the novelty / provenance
    signal; single tokens are useless here because the synthetic vocab
    saturates, every unigram repeats). The join-free trick: a hapax
    occurs EXACTLY once, so aggregating (count, min_doc) per gram pins
    it to its containing doc inside the same gram-bounded groupby; the
    final tally groups the count=1 rows by doc. Trigram construction is
    three shifted views of the flat token buffer joined in one Arrow
    kernel, masked where a window crosses a document boundary."""
    import ray.data
    from ray.data.aggregate import Min, Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        n = len(flat)
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            np.diff(offs),
        )
        if n < 3:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                    "d": pa.array([], pa.int64()),
                }
            )
        grams = pc.binary_join_element_wise(
            flat.slice(0, n - 2), flat.slice(1, n - 2), flat.slice(2, n - 2),
            " ",
        )
        same_doc = doc[: n - 2] == doc[2:]
        t = pa.table(
            {
                "g": grams.filter(pa.array(same_doc)),
                "doc_id": pa.array(doc[: n - 2][same_doc], pa.int64()),
            }
        )
        return group_count_batch(t, ["g"], count="c", aggs={"d": ("doc_id", "min")})

    per_gram = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum(on="c", alias_name="c"), Min(on="d", alias_name="d"))
    )

    def tally(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["c"], 1))
        return group_count_batch(
            pa.table({"doc_id": b["d"]}), ["doc_id"], count="n_hapax_trigrams"
        )

    return (
        per_gram.map_batches(tally, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum(on="n_hapax_trigrams", alias_name="n_hapax_trigrams"))
    )


_TTR_WIN = 20


@register(
    "doc_windowed_ttr",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), wins AS (
        SELECT doc_id, ord // {_TTR_WIN} AS w,
               count(DISTINCT token) AS d
        FROM toks GROUP BY doc_id, w
    )
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_windows,
           CAST(sum(d) AS BIGINT) AS sum_distinct
    FROM wins GROUP BY doc_id
    """,
)
def doc_windowed_ttr(sf_dir: str):
    """Windowed type-token ratio (MTLD-style lexical diversity, kept
    integer): tokens chop into fixed non-overlapping 20-token windows
    per doc; each window reports its distinct-token count; per doc the
    windows' count and distinct-sum come back (the ratio is the
    reader's division). Vectorized: window ids from the flat token
    offsets, per-batch distinct (doc, window, token) via Arrow group_by,
    one distinct-triple groupby (bounded by token volume), then the
    doc-keyed rollup of window partials."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        counts = np.diff(offs)
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), counts
        )
        ords = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], counts)
        keep = pc.is_valid(flat).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "doc_id": pa.array(doc[keep], pa.int64()),
                "w": pa.array(ords[keep] // _TTR_WIN, pa.int64()),
                "token": flat.filter(pa.array(keep)),
            }
        )
        return t.group_by(["doc_id", "w", "token"]).aggregate([])

    triples = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["doc_id", "w", "token"])
        .count()
    )

    wins = (
        triples.map_batches(
            lambda b: group_count_batch(b, ["doc_id", "w"], count="d"),
            batch_format="pyarrow",
        )
        .groupby(["doc_id", "w"])
        .aggregate(Sum(on="d", alias_name="d"))
    )

    def doc_partial(b: pa.Table) -> pa.Table:
        return group_count_batch(
            b, ["doc_id"], {"d": "sum_distinct"}, count="n_windows"
        )

    return (
        wins.map_batches(doc_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum(on="n_windows", alias_name="n_windows"),
            Sum(on="sum_distinct", alias_name="sum_distinct"),
        )
    )


@register(
    "token_burstiness",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), tf AS (
        SELECT token, doc_id, count(*) AS tf
        FROM toks WHERE token <> '' GROUP BY token, doc_id
    )
    SELECT token,
           CAST(sum(tf) AS BIGINT) AS cf,
           CAST(count(*) AS BIGINT) AS df,
           CAST(max(tf) AS BIGINT) AS max_tf
    FROM tf GROUP BY token
    """,
)
def token_burstiness(sf_dir: str):
    """Token burstiness profile (Church/Gale): collection frequency,
    document frequency, and the peak within-document count per token —
    cf/df far above 1 marks topical 'bursty' terms, the signal
    TF-IDF-family weighting rests on. Two bounded exchanges: per-batch
    (token, doc) count partials → (vocab x doc)-bounded groupby, then
    per-token moment partials → vocab-bounded groupby."""
    import ray.data
    from ray.data.aggregate import Max, Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            np.diff(offs),
        )
        keep = pc.is_valid(flat).to_numpy(zero_copy_only=False)
        keep &= pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "token": flat.filter(pa.array(keep)),
                "doc_id": pa.array(doc[keep], pa.int64()),
            }
        )
        return group_count_batch(t, ["token", "doc_id"], count="tf")

    tf = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["token", "doc_id"])
        .aggregate(Sum(on="tf", alias_name="tf"))
    )

    def moment_partial(b: pa.Table) -> pa.Table:
        return group_count_batch(
            b, ["token"], {"tf": "cf"}, count="df", aggs={"max_tf": ("tf", "max")}
        )

    return (
        tf.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum(on="cf", alias_name="cf"),
            Sum(on="df", alias_name="df"),
            Max(on="max_tf", alias_name="max_tf"),
        )
    )


@register(
    "token_positional_bias",
    oracle=f"""
    WITH d AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), toks AS (
        SELECT doc_id, unnest(ts) AS token,
               unnest(range(len(ts))) AS ord, len(ts) AS L
        FROM d
    ), f AS (
        SELECT doc_id, token, min(ord) AS fo, any_value(L) AS L
        FROM toks WHERE token <> '' GROUP BY doc_id, token
    )
    SELECT token,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(fo) AS BIGINT) AS sum_first_ord,
           CAST(sum(L) AS BIGINT) AS sum_doc_len
    FROM f GROUP BY token
    """,
)
def token_positional_bias(sf_dir: str):
    """Positional bias per token: where in a document a token FIRST
    appears, summed as exact integer rationals (Σ first-position,
    Σ doc-length — the reader's division gives the mean normalized
    position). Tokens that always surface early are header/boilerplate
    candidates; late ones live in references — the positional prior
    boilerplate classifiers feed on. Vectorized: per-batch flat-buffer
    ordinals, (doc, token) Min via Arrow group_by partials, then the
    vocab-bounded moment rollup."""
    import ray.data
    from ray.data.aggregate import Min, Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        counts = np.diff(offs)
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), counts
        )
        L = np.repeat(counts, counts)
        ords = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], counts)
        keep = pc.is_valid(flat).to_numpy(zero_copy_only=False)
        keep &= pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "doc_id": pa.array(doc[keep], pa.int64()),
                "token": flat.filter(pa.array(keep)),
                "fo": pa.array(ords[keep], pa.int64()),
                "L": pa.array(L[keep], pa.int64()),
            }
        )
        return (
            t.group_by(["doc_id", "token"])
            .aggregate([("fo", "min"), ("L", "min")])
            .rename_columns(["doc_id", "token", "fo", "L"])
        )

    first = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["doc_id", "token"])
        .aggregate(
            Min(on="fo", alias_name="fo"),
            Min(on="L", alias_name="L"),
        )
    )

    def moment_partial(b: pa.Table) -> pa.Table:
        sums = {"fo": "sum_first_ord", "L": "sum_doc_len"}
        return group_count_batch(b, ["token"], sums, count="n_docs")

    return (
        first.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum(on="n_docs", alias_name="n_docs"),
            Sum(on="sum_first_ord", alias_name="sum_first_ord"),
            Sum(on="sum_doc_len", alias_name="sum_doc_len"),
        )
    )


@register(
    "source_phrase_overlap",
    oracle=f"""
    WITH d AS (
        SELECT source, {_SQL_TOKENS} AS ts FROM documents
    ), tri AS (
        SELECT DISTINCT source,
               ts[p+1] || ' ' || ts[p+2] || ' ' || ts[p+3] AS g
        FROM d, unnest(range(len(ts) - 2)) AS u(p)
        WHERE len(ts) >= 3
    )
    SELECT a.source AS source_a, b.source AS source_b,
           CAST(count(*) AS BIGINT) AS n_shared
    FROM tri a JOIN tri b ON a.g = b.g AND a.source < b.source
    GROUP BY source_a, source_b
    """,
)
def source_phrase_overlap(sf_dir: str):
    """Cross-source phrase contamination: how many distinct word
    TRIGRAMS each pair of ingest feeds shares — the template-reuse /
    syndication fingerprint (exact-dup overlap is zero in this corpus;
    phrase-level overlap is where the signal lives). Plan: trigrams
    hash to 128-bit keys (two int64 columns — grams never shuffle as
    strings), distinct (source, gram) via one vocab-bounded groupby,
    then the bucketed co-partitioned SELF-join on the high half with an
    exact low-half + source-order filter; the pair tally is
    |sources|²-bounded. The 128-bit key makes a false shared-phrase a
    cryptographic event, same contract as dedup_exact."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.stages.relational import bucketed_hash_join

    def gram_partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        counts = np.diff(offs)
        src = np.repeat(np.asarray(b["source"].to_pylist(), object), counts)
        n = len(flat)
        if n < 3:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "h1": pa.array([], pa.int64()),
                    "h2": pa.array([], pa.int64()),
                }
            )
        grams = pc.binary_join_element_wise(
            flat.slice(0, n - 2), flat.slice(1, n - 2), flat.slice(2, n - 2),
            " ",
        )
        # mask windows crossing a document boundary (source equality is
        # NOT enough — adjacent docs often share a source)
        doc_ix = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        keep = doc_ix[: n - 2] == doc_ix[2:]
        gl = grams.filter(pa.array(keep)).to_pylist()
        h1, h2, _ = md5_hash128(gl)
        t = pa.table(
            {
                "source": pa.array(src[: n - 2][keep].tolist(), pa.string()),
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
            }
        )
        return t.group_by(["source", "h1", "h2"]).aggregate([])

    distinct = (
        _docs(sf_dir, columns=("text", "source"))
        .map_batches(gram_partial, batch_format="pyarrow")
        .groupby(["source", "h1", "h2"])
        .count()
        .map_batches(
            lambda b: b.select(["source", "h1", "h2"]), batch_format="pyarrow"
        )
    )
    right = distinct.map_batches(
        lambda b: pa.table(
            {"source_b": b["source"], "g1": b["h1"], "g2": b["h2"]}
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_hash_join(distinct, right, left_on="h1", right_on="g1")

    def pair_partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(b["h2"], b["g2"]),
            pc.less(b["source"], b["source_b"]),
        )
        b = b.filter(keep)
        t = pa.table({"source_a": b["source"], "source_b": b["source_b"]})
        return group_count_batch(t, ["source_a", "source_b"], count="n_shared")

    return (
        joined.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["source_a", "source_b"])
        .aggregate(Sum(on="n_shared", alias_name="n_shared"))
    )


@register(
    "lang_bpe_fertility",
    oracle=f"""
    SELECT lang,
           CAST(sum(len(regexp_extract_all(text, '{BPE_SPLIT_PATTERN}'))) AS BIGINT)
               AS sum_bpe,
           CAST(sum(len(list_filter({_SQL_TOKENS}, x -> x <> ''))) AS BIGINT)
               AS sum_words,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY lang
    """,
)
def lang_bpe_fertility(sf_dir: str):
    """Tokenizer fertility per language (BPE-ish subword count over
    whitespace word count, kept as exact integer rationals) — the
    compression-ratio number that decides how expensive a language is
    to train on. One pass computes both counts (compiled regex + flat
    tokenize offsets); one |langs|-bounded exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.stages.textstats import _BPE_RE

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        bpe = np.fromiter(
            (len(_BPE_RE.findall(t)) if t is not None else 0 for t in texts),
            np.int64,
            count=len(texts),
        )
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        nonempty = (
            pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            & pc.is_valid(flat).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(nonempty)))
        words = cum[offs[1:]] - cum[offs[:-1]]
        t = pa.table(
            {
                "lang": b["lang"],
                "sum_bpe": pa.array(bpe, pa.int64()),
                "sum_words": pa.array(words, pa.int64()),
            }
        )
        sums = {"sum_bpe": "sum_bpe", "sum_words": "sum_words"}
        return group_count_batch(t, ["lang"], sums, count="n_docs")

    return (
        _docs(sf_dir, columns=("text", "lang"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum(on="sum_bpe", alias_name="sum_bpe"),
            Sum(on="sum_words", alias_name="sum_words"),
            Sum(on="n_docs", alias_name="n_docs"),
        )
    )


@register(
    "doc_lead_sentence",
    oracle=f"""
    SELECT doc_id,
           list_filter(
               list_transform(
                   regexp_split_to_array(text, '{_SENT_SPLIT}'),
                   x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))
               ),
               x -> x <> ''
           )[1] AS lead_sentence
    FROM documents
    """,
)
def doc_lead_sentence(sf_dir: str):
    """Lead-sentence extraction (the snippet a SERP or abstract preview
    shows): first non-empty trimmed segment under the [.!?]+ split
    convention of doc_sentence_stats. Fully vectorized first-per-segment
    selection: trim + non-empty mask on the flat segment buffer, then
    one np.minimum.reduceat of masked positions per document — no
    Python per row; docs with no sentence yield null."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        segs = pc.split_pattern_regex(text, _SENT_SPLIT)
        if isinstance(segs, pa.ChunkedArray):
            segs = segs.combine_chunks()
        offs = np.asarray(segs.offsets, np.int64)
        flat = pc.utf8_trim(segs.values, _TRIM_CHARS)
        n = len(flat)
        good = (
            pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            & pc.is_valid(flat).to_numpy(zero_copy_only=False)
        )
        pos = np.where(good, np.arange(n, dtype=np.int64), n)
        counts = np.diff(offs)
        first = np.full(len(counts), n, np.int64)
        nz = counts > 0
        if nz.any():
            first[nz] = np.minimum.reduceat(pos, offs[:-1][nz])
        lead = pc.if_else(
            pa.array(first < n),
            flat.take(pa.array(np.minimum(first, n - 1) if n else np.zeros(len(counts), np.int64), pa.int64())),
            pa.nulls(len(counts), pa.string()),
        ) if n else pa.nulls(len(counts), pa.string())
        return pa.table({"doc_id": b["doc_id"], "lead_sentence": lead})

    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        partial, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Good-Turing count-of-counts and the vocab coverage curve — both are
# functions of the corpus trigram frequency HISTOGRAM (r -> N_r), which is
# tiny (one row per distinct frequency, O(sqrt(corpus grams)) rows by
# Zipf), so the heavy lifting is a single gram-keyed exchange shared by
# the two queries and the driver only ever sees the histogram. Trigrams,
# not unigrams: the synthetic vocab saturates (~31 types), trigrams give
# a real Zipf tail (9.4k hapaxes at sf0.01).
# --------------------------------------------------------------------------


def _trigram_count_hist(sf_dir: str):
    """Corpus word-trigram count-of-counts histogram as pandas (r, n_r).

    Plan: per-batch Arrow group_by compresses each batch's gram stream to
    (gram, partial count) — the one all-to-all exchange then moves gram
    keys, never token streams — a second vocab-of-frequencies groupby
    collapses the per-gram counts to the histogram. The driver receives
    only (distinct frequency, type count) rows.
    """
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        n = len(flat)
        if n < 3:
            return pa.table(
                {"g": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        doc = np.repeat(
            np.arange(len(b), dtype=np.int64), np.diff(offs)
        )
        grams = pc.binary_join_element_wise(
            flat.slice(0, n - 2), flat.slice(1, n - 2), flat.slice(2, n - 2),
            " ",
        )
        same_doc = doc[: n - 2] == doc[2:]
        t = pa.table({"g": grams.filter(pa.array(same_doc))})
        return group_count_batch(t, ["g"], count="c")

    per_gram = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum(on="c", alias_name="r"))
    )

    return (
        per_gram.map_batches(
            lambda b: group_count_batch(b, ["r"], count="n_r"), batch_format="pyarrow"
        )
        .groupby("r")
        .aggregate(Sum(on="n_r", alias_name="n_r"))
        .to_pandas()  # bounded: |r frequency classes|
        .sort_values("r", ignore_index=True)
    )


_SQL_TRIGRAM_HIST = f"""
    toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), tri AS (
        SELECT ts[p+1] || ' ' || ts[p+2] || ' ' || ts[p+3] AS g
        FROM toks, unnest(range(len(ts) - 2)) AS u(p)
        WHERE len(ts) >= 3
    ), cnt AS (
        SELECT g, count(*) AS r FROM tri GROUP BY g
    ), h AS (
        SELECT r, CAST(count(*) AS BIGINT) AS n_r FROM cnt GROUP BY r
    )
"""


@register(
    "token_good_turing",
    oracle=f"""
    WITH {_SQL_TRIGRAM_HIST}
    SELECT CAST(h.r AS BIGINT) AS r, h.n_r AS n_r,
           CAST((h.r + 1) * coalesce(h2.n_r, 0) AS BIGINT) AS gt_num
    FROM h LEFT JOIN h h2 ON h2.r = h.r + 1
    """,
)
def token_good_turing(sf_dir: str):
    """Good-Turing count-of-counts over corpus word trigrams (Good 1953;
    the ingredient of Katz backoff and the N1/N2 discounts in KN): for
    each observed frequency r, the number of trigram types N_r seen
    exactly r times, and the adjusted-count NUMERATOR (r+1)*N_{{r+1}}
    (the GT estimate is that rational over n_r; kept as exact integers —
    the unseen-mass estimate P0 is gt_num/total at r=0's successor, and
    never rounding means the oracle compare is exact, not 1e-6-close).
    Same exchange budget as doc_hapax_trigrams: one gram-keyed shuffle of
    per-batch pre-aggregated partials, then a frequency-keyed groupby of
    at most one row per distinct frequency."""
    hist = _trigram_count_hist(sf_dir)
    r = hist["r"].to_numpy(np.int64)
    n_r = hist["n_r"].to_numpy(np.int64)
    n_of = dict(zip(r.tolist(), n_r.tolist()))
    gt_num = np.array(
        [(x + 1) * n_of.get(x + 1, 0) for x in r.tolist()], np.int64
    )
    return pa.table(
        {
            "r": pa.array(r, pa.int64()),
            "n_r": pa.array(n_r, pa.int64()),
            "gt_num": pa.array(gt_num, pa.int64()),
        }
    )


@register(
    "token_coverage_topk",
    oracle=f"""
    WITH {_SQL_TRIGRAM_HIST},
    w AS (
        SELECT r, n_r,
               coalesce(CAST(sum(r * n_r) OVER (
                   ORDER BY r DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ) AS BIGINT), 0) AS mb,
               coalesce(CAST(sum(n_r) OVER (
                   ORDER BY r DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ) AS BIGINT), 0) AS tb,
               CAST(sum(r * n_r) OVER () AS BIGINT) AS tot
        FROM h
    ),
    p AS (SELECT unnest([50, 90, 99]) AS pct)
    SELECT CAST(p.pct AS BIGINT) AS pct,
           CAST(w.tb + (p.pct * w.tot - 100 * w.mb + 100 * w.r - 1)
                // (100 * w.r) AS BIGINT) AS vocab_size,
           CAST(w.mb + ((p.pct * w.tot - 100 * w.mb + 100 * w.r - 1)
                // (100 * w.r)) * w.r AS BIGINT) AS covered_mass,
           w.tot AS total_mass
    FROM p JOIN w
      ON 100 * w.mb < p.pct * w.tot
     AND 100 * (w.mb + w.r * w.n_r) >= p.pct * w.tot
    """,
)
def token_coverage_topk(sf_dir: str):
    """Vocabulary coverage curve: the SMALLEST number of trigram types
    that covers >= {50, 90, 99} percent of corpus trigram mass when types
    are admitted most-frequent-first (the tokenizer-vocab-sizing question:
    "how big must the vocab be to cover 99 percent of the stream").
    Greedy by frequency is optimal, and the answer depends only on the
    count HISTOGRAM — within a frequency class every type contributes
    equally, so the minimal set takes ceil(remaining mass / r) types from
    the crossing class. Pure integer arithmetic on both sides (percent scaled by 100,
    Python bigints mirror BIGINT); at warehouse scale pct*total stays
    under 1e16 << int64 max."""
    hist = _trigram_count_hist(sf_dir).sort_values(
        "r", ascending=False, ignore_index=True
    )
    rs = [int(x) for x in hist["r"]]
    ns = [int(x) for x in hist["n_r"]]
    total = sum(a * b for a, b in zip(rs, ns))
    out_pct, out_vocab, out_cov = [], [], []
    for pct in (50, 90, 99):
        mb = 0  # mass before this class
        tb = 0  # types before this class
        for r, n_r in zip(rs, ns):
            if 100 * (mb + r * n_r) >= pct * total:
                k = (pct * total - 100 * mb + 100 * r - 1) // (100 * r)
                out_pct.append(pct)
                out_vocab.append(tb + k)
                out_cov.append(mb + k * r)
                break
            mb += r * n_r
            tb += n_r
    return pa.table(
        {
            "pct": pa.array(out_pct, pa.int64()),
            "vocab_size": pa.array(out_vocab, pa.int64()),
            "covered_mass": pa.array(out_cov, pa.int64()),
            "total_mass": pa.array([total] * len(out_pct), pa.int64()),
        }
    )


@register(
    "doc_sorted_lcp",
    oracle="""
    WITH o AS (
        SELECT doc_id, text,
               lag(text) OVER (ORDER BY text, doc_id) AS prev
        FROM documents
    )
    SELECT doc_id, CAST(coalesce((
        SELECT max(i)
        FROM unnest(range(1, least(length(text), length(prev)) + 1)) AS t(i)
        WHERE substr(text, 1, CAST(i AS INT)) = substr(prev, 1, CAST(i AS INT))
    ), 0) AS BIGINT) AS lcp_prev
    FROM o
    """,
)
def doc_sorted_lcp(sf_dir: str):
    """Per-document longest-common-prefix with its predecessor in global
    lexicographic order — the suffix-array-flavored signal behind
    prefix-duplicate detection and front-coding compression estimates
    (a high LCP marks a near-copy that exact dedup's full-hash misses).

    The interesting part is the physical plan: a NEIGHBOR computation
    after a DISTRIBUTED sort. Ray Data's sort gives no cross-block
    adjacency, so the op builds it: (1) a deterministic md5-sampled
    boundary set range-partitions by text (the lineitem_range_partition
    partitioner — sample-derived, so ranges balance under any text
    skew); (2) each range sorts locally and computes all interior LCPs
    in one vectorized byte-matrix pass (pad to a (n x maxlen) uint8
    grid, lcp = rows of zero cumulated mismatch — no per-pair loop);
    (3) the only cross-range dependency is ONE text per boundary: each
    range's first row carries the range's first/last texts, the driver
    stitches the B boundary LCPs (B = num ranges, not data-sized), and
    a broadcast patch pass fixes exactly those rows. Total exchange:
    one B-way partition of (doc_id, text) plus B boundary rows."""
    import ray.data

    NUM_RANGES = 16
    SAMPLE_MOD = 13

    def sample(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        # the 32-bit big-endian digest prefix is hex15 >> 28
        keep = (md5_hex15(str(int(i)) for i in ids) >> 28) % SAMPLE_MOD == 0
        return pa.table({"text": b["text"].filter(pa.array(keep))})

    docs = _docs(sf_dir, columns=("doc_id", "text"))
    boundary_texts = sorted(
        docs.map_batches(sample, batch_format="pyarrow").to_pandas()["text"]  # bounded: per-block boundary sample
    )
    step = max(1, len(boundary_texts) // NUM_RANGES)
    bounds = boundary_texts[step::step][: NUM_RANGES - 1]

    def assign(b: pa.Table) -> pa.Table:
        r = np.zeros(len(b), np.int64)
        for bd in bounds:
            r += pc.greater_equal(b["text"], bd).to_numpy(
                zero_copy_only=False
            )
        return pa.table(
            {"doc_id": b["doc_id"], "text": b["text"], "r": pa.array(r)}
        )

    def range_lcp(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(  # bounded: worker-side kernel conversion
            ["text", "doc_id"], ignore_index=True
        )
        texts = [t.encode() for t in df["text"]]
        n = len(texts)
        lens = np.array([len(t) for t in texts], np.int64)
        maxlen = max(1, int(lens.max()))
        grid = np.frombuffer(
            b"".join(t.ljust(maxlen, b"\0") for t in texts), np.uint8
        ).reshape(n, maxlen)
        lcp = np.zeros(n, np.int64)
        if n > 1:
            neq = grid[1:] != grid[:-1]
            lcp[1:] = np.minimum(
                (np.cumsum(neq, axis=1) == 0).sum(axis=1),
                np.minimum(lens[1:], lens[:-1]),
            )
        lcp[0] = -1  # stitched from the neighboring range by the driver
        first = np.array([None] * n, object)
        last = np.array([None] * n, object)
        first[0], last[0] = df["text"].iloc[0], df["text"].iloc[-1]
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "lcp_prev": pa.array(lcp),
                "r": pa.array(
                    np.full(n, int(df.get("r", g["r"].to_pandas()).iloc[0]))  # bounded: worker-side kernel conversion
                ),
                "first_text": pa.array(first, pa.string()),
                "last_text": pa.array(last, pa.string()),
            }
        )

    ranged = (
        docs.map_batches(assign, batch_format="pyarrow")
        .groupby("r")
        .map_groups(range_lcp, batch_format="pyarrow")
        .materialize()
    )

    def _lcp(a: str, b: str) -> int:
        m = min(len(a), len(b))
        i = 0
        while i < m and a[i] == b[i]:
            i += 1
        return i

    firsts = sorted(
        ranged.filter(lambda row: row["lcp_prev"] == -1).take_all(),
        key=lambda row: row["r"],
    )
    fix: dict[int, int] = {}
    prev_last = None
    for row in firsts:
        fix[int(row["doc_id"])] = (
            0 if prev_last is None else _lcp(row["first_text"], prev_last)
        )
        prev_last = row["last_text"]

    def patch(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        lcp = b["lcp_prev"].to_numpy(zero_copy_only=False).copy()
        for i in np.flatnonzero(lcp == -1):
            lcp[i] = fix[int(ids[i])]
        return pa.table(
            {"doc_id": pa.array(ids), "lcp_prev": pa.array(lcp)}
        )

    return ranged.map_batches(patch, batch_format="pyarrow")


@register(
    "token_ams_f2",
    oracle=f"""
    WITH {_SQL_TRIGRAM_HIST},
    gh AS (
        SELECT r, {md5_hex15_sql('g')} AS hh FROM cnt
    ),
    js AS (SELECT CAST(unnest(range(16)) AS INT) AS j),
    z AS (
        SELECT CAST(j AS BIGINT) AS j,
               CAST(sum((((hh >> j) & 1) * 2 - 1) * r) AS BIGINT) AS z
        FROM gh CROSS JOIN js GROUP BY j
    ),
    f2 AS (SELECT CAST(sum(r * r * n_r) AS BIGINT) AS true_f2 FROM h)
    SELECT j, z, CAST(z * z AS BIGINT) AS est_f2, true_f2
    FROM z CROSS JOIN f2
    """,
)
def token_ams_f2(sf_dir: str):
    """AMS/tug-of-war F2 sketch (Alon-Matias-Szegedy 1996) over corpus
    trigram frequencies, audited against the exact second moment. F2 =
    sum of squared counts is the SELF-JOIN SIZE of the gram table — the
    query-optimizer cardinality primitive — and the sketch estimates it
    with NO gram-keyed exchange at all: z_j = sum_w sign_j(w) * c_w is
    linear in counts, so per-batch partials (16 ints per batch) simply
    add; E[z_j^2] = F2. The 16 signs derive from bits 0..15 of the
    shared 15-hex md5 of the gram (documented weakening of 4-wise
    independence — determinism and SQL-mirrorability over variance).
    The exact true_f2 rides the trigram count HISTOGRAM (sum r^2*N_r),
    reusing _trigram_count_hist's one bounded exchange — the audit
    column is what costs a shuffle, never the sketch."""
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        n = len(flat)
        z = np.zeros(16, np.int64)
        if n >= 3:
            doc = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(offs))
            grams = pc.binary_join_element_wise(
                flat.slice(0, n - 2), flat.slice(1, n - 2),
                flat.slice(2, n - 2), " ",
            )
            same_doc = doc[: n - 2] == doc[2:]
            t = pa.table({"g": grams.filter(pa.array(same_doc))})
            t = group_count_batch(t, ["g"], count="c")
            hs = md5_hex15(t["g"].to_pylist())
            c = t["c"].to_numpy(zero_copy_only=False)
            for j in range(16):
                z[j] = int(np.sum((((hs >> j) & 1) * 2 - 1) * c))
        return pa.table(
            {"j": pa.array(np.arange(16, dtype=np.int64)), "z": pa.array(z)}
        )

    zj = (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("j")
        .aggregate(Sum(on="z", alias_name="z"))
        .to_pandas()  # bounded: |j positions|
        .sort_values("j", ignore_index=True)
    )
    hist = _trigram_count_hist(sf_dir)
    true_f2 = int(
        (hist["r"].to_numpy(np.int64) ** 2 * hist["n_r"].to_numpy(np.int64))
        .sum()
    )
    z = zj["z"].to_numpy(np.int64)
    return pa.table(
        {
            "j": pa.array(zj["j"].to_numpy(np.int64)),
            "z": pa.array(z),
            "est_f2": pa.array(z * z),
            "true_f2": pa.array(np.full(16, true_f2, np.int64)),
        }
    )


_RAKE_STOPS = ("a", "the")
_RAKE_STOPS_SQL = "('a', 'the')"


@register(
    "token_rake_stats",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), pos AS (
        SELECT doc_id, ts[CAST(p AS INT) + 1] AS w, p
        FROM toks, unnest(range(len(ts))) AS u(p)
    ), marked AS (
        SELECT doc_id, w, p,
               CAST(sum(CASE WHEN w IN {_RAKE_STOPS_SQL} THEN 1 ELSE 0 END)
                   OVER (PARTITION BY doc_id ORDER BY p) AS BIGINT)
                   AS phrase_id
        FROM pos
    ), phrase AS (
        SELECT doc_id, phrase_id, w,
               CAST(count(*) OVER (PARTITION BY doc_id, phrase_id)
                   AS BIGINT) AS plen
        FROM marked WHERE w NOT IN {_RAKE_STOPS_SQL}
    )
    SELECT w AS token,
           CAST(count(*) AS BIGINT) AS freq,
           CAST(sum(plen) AS BIGINT) AS deg
    FROM phrase GROUP BY w
    """,
)
def token_rake_stats(sf_dir: str):
    """RAKE keyword statistics (Rose et al. 2010) over the corpus:
    candidate phrases are maximal stopword-free token runs; for each
    word, freq = occurrences inside phrases and deg = sum of the
    lengths of the phrases it occurs in. RAKE's keyword score is
    deg/freq — emitted as the exact integer pair (one division from the
    statistic) so the compare is exact. The segmentation is a
    vectorized prefix-sum: phrase_id = running count of stopwords seen,
    computed per batch with np.cumsum over the flattened token stream
    (document boundaries salt the id so phrases never span docs); the
    per-word aggregate is vocabulary-bounded."""
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    stops = set(_RAKE_STOPS)

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        n = len(flat)
        if n == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "freq": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                }
            )
        doc = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(offs))
        is_stop = pc.is_in(
            flat, value_set=pa.array(sorted(stops))
        ).to_numpy(zero_copy_only=False)
        # phrase key: (doc, running stop count) — strictly increasing
        # across doc boundaries because every doc restarts the pair
        pid = np.cumsum(is_stop)
        key = doc * (n + 1) + pid
        keep = ~is_stop
        kk = key[keep]
        # phrase lengths via one sort-free pass: kk is already
        # non-decreasing (doc and pid both non-decreasing in stream order)
        starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
        seg_len = np.diff(np.r_[starts, len(kk)])
        plen = np.repeat(seg_len, seg_len)
        t = pa.table(
            {
                "token": pa.array(flat.filter(pa.array(keep))),
                "deg": pa.array(plen.astype(np.int64)),
            }
        )
        return group_count_batch(t, ["token"], {"deg": "deg"}, count="freq")

    return (
        _docs(sf_dir, columns=("doc_id", "text"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum(on="freq", alias_name="freq"), Sum(on="deg", alias_name="deg")
        )
    )


@register(
    "doc_texttiling_boundaries",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), pos AS (
        SELECT doc_id, ts[CAST(p AS INT) + 1] AS w,
               CAST(p // 20 AS BIGINT) AS blk
        FROM toks, unnest(range(len(ts))) AS u(p)
    ), cnt AS (
        SELECT doc_id, blk, w, CAST(count(*) AS BIGINT) AS c
        FROM pos GROUP BY 1, 2, 3
    ), norms AS (
        SELECT doc_id, blk, CAST(sum(c * c) AS BIGINT) AS nn
        FROM cnt GROUP BY 1, 2
    ), dots AS (
        SELECT a.doc_id, a.blk, CAST(sum(a.c * b.c) AS BIGINT) AS dot
        FROM cnt a JOIN cnt b
          ON a.doc_id = b.doc_id AND b.blk = a.blk + 1 AND a.w = b.w
        GROUP BY 1, 2
    ), gaps AS (
        SELECT n1.doc_id, coalesce(d.dot, 0) AS dot, n1.nn AS na, n2.nn AS nb
        FROM norms n1
        JOIN norms n2 ON n1.doc_id = n2.doc_id AND n2.blk = n1.blk + 1
        LEFT JOIN dots d ON d.doc_id = n1.doc_id AND d.blk = n1.blk
    )
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_gaps,
           CAST(sum(CASE WHEN 4 * dot * dot < na * nb THEN 1 ELSE 0 END)
               AS BIGINT) AS n_boundaries
    FROM gaps GROUP BY doc_id
    """,
)
def doc_texttiling_boundaries(sf_dir: str):
    """TextTiling topic-shift detection (Hearst 1997), exact-integer
    form: adjacent 20-token blocks are compared as bag-of-words vectors
    and a gap is a topic boundary when cosine similarity drops below
    0.5. The float cosine never materializes — both terms are
    non-negative integers, so cos < 1/2 is EXACTLY 4*dot^2 < |a|^2*|b|^2
    (squaring is monotone for dot >= 0), which keeps the oracle compare
    exact instead of 1e-6-close. Docs shorter than two blocks emit no
    row (no gap exists — pinned on both sides). Embarrassingly parallel:
    each document's blocks live in its own row, so the whole op is one
    map_batches with np.add.at scatter adds over (doc-block, token-id)
    keys — no exchange at all."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "n_boundaries": pa.array([], pa.int64()),
            }
        )
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        n = int(offs[-1])
        if n == 0:
            return empty
        lens = np.diff(offs)
        doc = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        pos = np.arange(n, dtype=np.int64) - offs[doc]
        blk = pos // 20
        words = toks.values.to_numpy(zero_copy_only=False)
        _, wid = np.unique(words, return_inverse=True)
        v = int(wid.max()) + 1
        mb = int(blk.max()) + 2
        dbk = doc * mb + blk
        key = dbk * v + wid
        uk, c = np.unique(key, return_counts=True)
        c = c.astype(np.int64)
        # norms per doc-block
        nn = np.zeros(len(b) * mb, np.int64)
        np.add.at(nn, uk // v, c * c)
        # dots: align (doc, blk, w) with (doc, blk+1, w) = key + v
        nxt = np.searchsorted(uk, uk + v)
        ok = (nxt < len(uk)) & (uk[np.minimum(nxt, len(uk) - 1)] == uk + v)
        dot = np.zeros(len(b) * mb, np.int64)
        np.add.at(dot, uk[ok] // v, c[ok] * c[nxt[ok]])
        # per-doc gap scan, fully vectorized: enumerate every gap index
        # (doc-block pairs) across the batch in one segmented arange
        n_blocks = (lens + 19) // 20
        g = np.maximum(n_blocks - 1, 0)
        tot = int(g.sum())
        if tot == 0:
            return empty
        doci = np.repeat(np.arange(len(b), dtype=np.int64), g)
        within = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(g) - g, g
        )
        gi = doci * mb + within
        bd = (4 * dot[gi] * dot[gi] < nn[gi] * nn[gi + 1]).astype(np.int64)
        n_bd = np.bincount(doci, weights=bd, minlength=len(b)).astype(
            np.int64
        )
        has = g > 0
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids[has].astype(np.int64)),
                "n_gaps": pa.array(g[has].astype(np.int64)),
                "n_boundaries": pa.array(n_bd[has]),
            }
        )

    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        partial, batch_format="pyarrow"
    )


@register(
    "token_stupid_backoff",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, {_SQL_TOKENS} AS ts FROM documents
    ), bi AS (
        SELECT ts[CAST(p AS INT) + 1] AS w1, ts[CAST(p AS INT) + 2] AS w2
        FROM toks, unnest(range(len(ts) - 1)) AS u(p)
        WHERE len(ts) >= 2
    ), bc AS (
        SELECT w1, w2, CAST(count(*) AS BIGINT) AS c12 FROM bi GROUP BY 1, 2
    ), un AS (
        SELECT unnest(ts) AS w FROM toks
    ), uc AS (
        SELECT w, CAST(count(*) AS BIGINT) AS c FROM un GROUP BY 1
    ), tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM uc)
    SELECT u1.w AS w1, u2.w AS w2,
           CASE WHEN bc.c12 IS NOT NULL THEN bc.c12
                ELSE 2 * u2.c END AS score_num,
           CASE WHEN bc.c12 IS NOT NULL THEN u1.c
                ELSE 5 * tot.n END AS score_den,
           CAST(bc.c12 IS NULL AS BIGINT) AS backed_off
    FROM uc u1 CROSS JOIN uc u2 CROSS JOIN tot
    LEFT JOIN bc ON bc.w1 = u1.w AND bc.w2 = u2.w
    """,
)
def token_stupid_backoff(sf_dir: str):
    """Stupid-backoff bigram scores (Brants et al. 2007 — the smoothing
    that replaced KN at web scale because it needs NO discount fitting)
    over the full vocab x vocab grid: S(w2|w1) = c12/c1 when the bigram
    was seen, else 0.4 * c2/N. Scores stay exact unreduced integer
    fractions (score_num, score_den) — the one float division is the
    caller's — so the oracle compare is exact; backed_off marks which
    cell took the unigram path (the grid makes backoff REAL: observed
    bigram enumeration alone would never trigger it). Plan: one pass
    emits per-batch bigram partials (doc-boundary masked), a second
    the unigram partials; both groupbys and the final grid join are
    vocabulary-bounded, never corpus-bounded. Completes the LM
    smoothing family next to token_kn_continuation (KN),
    token_good_turing (GT) and doc_bigram_lm_ppl (add-k)."""
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def bigram_partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        flat = toks.values
        n = len(flat)
        if n < 2:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c12": pa.array([], pa.int64()),
                }
            )
        doc = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(offs))
        same = pa.array(doc[: n - 1] == doc[1:])
        t = pa.table(
            {
                "w1": flat.slice(0, n - 1).filter(same),
                "w2": flat.slice(1, n - 1).filter(same),
            }
        )
        return group_count_batch(t, ["w1", "w2"], count="c12")

    def unigram_partial(b: pa.Table) -> pa.Table:
        flat = pc.list_flatten(tokenize_column(b["text"]))
        vc = flat.value_counts()
        return pa.table(
            {
                "w": vc.field("values"),
                "c": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    docs = _docs(sf_dir, columns=("doc_id", "text"))
    bi = (
        docs.map_batches(bigram_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum(on="c12", alias_name="c12"))
        .to_pandas()  # bounded: bigram vocabulary post-aggregate (Heaps-law)
    )
    un = (
        docs.map_batches(unigram_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum(on="c", alias_name="c"))
        .to_pandas()  # bounded: vocabulary post-aggregate
    )
    words = un["w"].tolist()
    c_of = dict(zip(words, un["c"].astype(int)))
    c12_of = {
        (r.w1, r.w2): int(r.c12) for r in bi.itertuples()
    }
    total = sum(c_of.values())
    rows = [
        (
            w1, w2,
            c12_of.get((w1, w2), 2 * c_of[w2]),
            c_of[w1] if (w1, w2) in c12_of else 5 * total,
            int((w1, w2) not in c12_of),
        )
        for w1 in words
        for w2 in words
    ]
    names = ["w1", "w2", "score_num", "score_den", "backed_off"]
    return pa.table(
        {
            "w1": pa.array([r[0] for r in rows], pa.string()),
            "w2": pa.array([r[1] for r in rows], pa.string()),
            "score_num": pa.array([r[2] for r in rows], pa.int64()),
            "score_den": pa.array([r[3] for r in rows], pa.int64()),
            "backed_off": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


_FH_DIMS = 16


def _fh_cols_sql() -> str:
    return ",\n".join(
        f"           CAST(coalesce(sum(CASE WHEN b = {d} THEN s END), 0)"
        f" AS BIGINT) AS h{d}"
        for d in range(_FH_DIMS)
    )


@register(
    "doc_feature_hashing",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS w FROM documents
    ), hh AS (
        SELECT doc_id, {md5_hex15_sql('w')} AS h FROM toks
    ), fh AS (
        SELECT doc_id, CAST(h % {_FH_DIMS} AS BIGINT) AS b,
               CASE WHEN (h // {_FH_DIMS}) % 2 = 0 THEN 1 ELSE -1 END AS s
        FROM hh
    )
    SELECT doc_id,
{_fh_cols_sql()}
    FROM fh GROUP BY doc_id
    """,
)
def doc_feature_hashing(sf_dir: str):
    """Hashing-trick document featurizer (Weinberger et al. 2009 — the
    Vowpal-Wabbit/spam-filter representation): each token scatters a
    +-1 (sign bit of its hash) into one of 16 buckets (low bits), giving
    every doc a fixed-width signed-INTEGER feature vector with no vocab
    dictionary to build, ship, or synchronize — the property that makes
    it the featurizer of choice when the vocabulary itself would be a
    coordination problem at cluster scale. Signs make collisions cancel
    in expectation (the unbiased variant). Both sides derive bucket and
    sign from the shared 15-hex md5, and the vectors are exact ints, so
    the hash compare is exact. Embarrassingly parallel: one np.add.at
    scatter per batch over (doc, bucket); per-batch hashing is bounded
    by batch-distinct tokens, and nothing shuffles."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        flat = toks.values.to_numpy(zero_copy_only=False)
        doc = np.repeat(
            np.arange(len(b), dtype=np.int64),
            np.diff(np.asarray(toks.offsets, np.int64)),
        )
        vocab, inv = np.unique(flat, return_inverse=True)
        hs = md5_hex15(vocab)
        bucket = (hs % _FH_DIMS)[inv]
        sign = (1 - 2 * ((hs // _FH_DIMS) % 2))[inv]
        vec = np.zeros(len(b) * _FH_DIMS, np.int64)
        np.add.at(vec, doc * _FH_DIMS + bucket, sign)
        vec = vec.reshape(len(b), _FH_DIMS)
        cols = {"doc_id": b["doc_id"]}
        for d in range(_FH_DIMS):
            cols[f"h{d}"] = pa.array(vec[:, d])
        return pa.table(cols)

    return _docs(sf_dir, columns=("doc_id", "text")).map_batches(
        partial, batch_format="pyarrow"
    )


@register(
    "token_postings_varbyte_size",
    oracle=f"""
    WITH toks AS (
        SELECT doc_id, unnest({_SQL_TOKENS}) AS token FROM documents
    ), posting AS (
        SELECT DISTINCT token, doc_id FROM toks
    ), d AS (
        SELECT token, doc_id,
               lag(doc_id) OVER (PARTITION BY token ORDER BY doc_id) AS prev
        FROM posting
    ), g AS (
        SELECT token,
               CASE WHEN prev IS NULL THEN doc_id + 1
                    ELSE doc_id - prev END AS delta
        FROM d
    )
    SELECT token, count(*) AS df,
           CAST(sum(CASE WHEN delta < 128 THEN 1
                         WHEN delta < 16384 THEN 2
                         WHEN delta < 2097152 THEN 3
                         ELSE 4 END) AS BIGINT) AS encoded_bytes
    FROM g GROUP BY token
    """,
)
def token_postings_varbyte_size(sf_dir: str):
    """Inverted-index compression accounting: the exact varbyte
    (VByte/LEB128, 7 data bits per byte) size of every token's
    gap-encoded posting list — the storage model behind every IR
    engine's index budget, and the quantity token_postings_delta_stats'
    gap histogram exists to drive. First gap is doc_id+1 so doc 0
    encodes non-degenerately. Plan: per-batch DISTINCT (token, doc_id)
    partials shrink the exchange to postings; the per-token gap+size
    pass is a vocab-bounded map_groups whose kernel is one vectorized
    np.diff + threshold-sum (no per-posting Python). At open-web scale
    the vocab-bounded groupby becomes the bucketed lexsort segment scan
    the delta-stats op already documents — same outputs."""
    import pandas as pd
    from ray.data.aggregate import Count

    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        offs = np.asarray(toks.offsets, np.int64)
        doc = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            np.diff(offs),
        )
        t = pa.table({"token": toks.values, "doc_id": pa.array(doc)})
        return t.group_by(["token", "doc_id"]).aggregate([])

    def sizes(g: "pd.DataFrame") -> "pd.DataFrame":
        ids = np.sort(np.unique(g["doc_id"].to_numpy()))
        deltas = np.diff(ids, prepend=-1)
        deltas[0] = ids[0] + 1
        nbytes = np.where(
            deltas < 128, 1, np.where(deltas < 16384, 2, np.where(deltas < 2097152, 3, 4))
        )
        return pd.DataFrame(
            {
                "token": [g["token"].iloc[0]],
                "df": [len(ids)],
                "encoded_bytes": [int(nbytes.sum())],
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .map_groups(sizes, batch_format="pandas")
    )


@register(
    "token_chi2_keyness",
    oracle=f"""
    WITH toks AS (
        SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS grp,
               unnest({_SQL_TOKENS}) AS token
        FROM documents
    ), cnt AS (
        SELECT token,
               CAST(sum(grp) AS BIGINT) AS k_en,
               CAST(sum(1 - grp) AS BIGINT) AS k_rest
        FROM toks GROUP BY token
    ), tot AS (
        SELECT CAST(sum(k_en) AS BIGINT) AS n_en,
               CAST(sum(k_rest) AS BIGINT) AS n_rest
        FROM cnt
    ), f AS (
        SELECT token, k_en, k_rest,
               CAST(n_en + n_rest AS DOUBLE) AS nd,
               CAST(k_en * (n_rest - k_rest)
                    - k_rest * (n_en - k_en) AS DOUBLE) AS xd,
               CAST(k_en + k_rest AS DOUBLE) AS r1,
               CAST((n_en + n_rest) - (k_en + k_rest) AS DOUBLE) AS r2,
               CAST(n_en AS DOUBLE) AS c1,
               CAST(n_rest AS DOUBLE) AS c2
        FROM cnt, tot
    )
    SELECT token, k_en, k_rest,
           ((nd * xd) * xd) / (((r1 * r2) * c1) * c2) AS chi2
    FROM f
    """,
)
def token_chi2_keyness(sf_dir: str):
    """Corpus-comparison keyness: the 2x2 chi-square statistic per token
    between the English sub-corpus and everything else — the standard
    'which words characterize THIS slice' diagnostic (chosen over
    Dunning log-likelihood deliberately: chi-square is a pure RATIONAL
    of the four exact integer cell counts, so there is no transcendental
    whose last-ulp disagreement between libm implementations could leak
    into the hash; the one division happens on bit-identical doubles
    folded in the same parenthesized order on both engines). Plan:
    per-batch (token, side) count partials -> one vocab-bounded
    groupby-Sum -> driver computes chi2 over |vocab| rows. Cell products
    stay under 2^53 here; at 10^12-token scale the driver fold swaps to
    Python big ints (the HHI lesson) with the same emitted doubles."""
    import ray.data
    from ray.data.aggregate import Sum

    from sciscraper_ray.kernels.tokenize import tokenize_column

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b["text"]).combine_chunks()
        counts = np.diff(np.asarray(toks.offsets, np.int64))
        is_en = pc.equal(b["lang"], "en").to_numpy(zero_copy_only=False)
        grp = np.repeat(is_en.astype(np.int64), counts)
        t = pa.table(
            {
                "token": toks.values,
                "k_en": pa.array(grp, pa.int64()),
                "k_rest": pa.array(1 - grp, pa.int64()),
            }
        )
        g = t.group_by("token").aggregate([("k_en", "sum"), ("k_rest", "sum")])
        return g.rename_columns(["token", "k_en", "k_rest"])

    cnt = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum(on="k_en", alias_name="k_en"),
            Sum(on="k_rest", alias_name="k_rest"),
        )
        .to_pandas()  # bounded: vocabulary
    )
    k_en = cnt["k_en"].to_numpy(np.int64)
    k_rest = cnt["k_rest"].to_numpy(np.int64)
    n_en = int(k_en.sum())
    n_rest = int(k_rest.sum())
    nd = float(n_en + n_rest)
    xd = (k_en * (n_rest - k_rest) - k_rest * (n_en - k_en)).astype(
        np.float64
    )
    r1 = (k_en + k_rest).astype(np.float64)
    r2 = float(n_en + n_rest) - r1
    c1 = float(n_en)
    c2 = float(n_rest)
    chi2 = ((nd * xd) * xd) / (((r1 * r2) * c1) * c2)
    return pa.table(
        {
            "token": pa.array(cnt["token"].tolist(), pa.string()),
            "k_en": pa.array(k_en, pa.int64()),
            "k_rest": pa.array(k_rest, pa.int64()),
            "chi2": pa.array(chi2, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# Dice-coefficient collocations: the log-free companion to
# token_pmi_collocations (Smadja/Church phrase measures; word2vec-style
# phrase passes often swap PMI for Dice on small corpora because it has
# no rare-event blowup). Score in EXACT integer micro-units so the
# compare is bit-identical: dice_micro = half-up(2e6 * f(xy)/(f(x·)+f(·y)))
# computed as (4e6*cnt + (lc+rc)) // (2*(lc+rc)) in int64 on both engines.


@register(
    "token_dice_collocations",
    oracle=f"""
    WITH d AS (
        SELECT {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n FROM documents
    ), w AS (
        SELECT unnest(range(n - 1)) AS k, toks FROM d WHERE n >= 2
    ), bg AS (
        SELECT toks[k + 1] AS token, toks[k + 2] AS next_token FROM w
    ), cnt AS (
        SELECT token, next_token, count(*) AS cnt
        FROM bg GROUP BY token, next_token
    ),
    lft AS (SELECT token, sum(cnt) AS lc FROM cnt GROUP BY token),
    rgt AS (SELECT next_token, sum(cnt) AS rc FROM cnt GROUP BY next_token)
    SELECT c.token, c.next_token, CAST(c.cnt AS BIGINT) AS cnt,
           CAST(
               (4000000 * c.cnt + (l.lc + r.rc)) // (2 * (l.lc + r.rc))
               AS BIGINT
           ) AS dice_micro
    FROM cnt c
    JOIN lft l ON l.token = c.token
    JOIN rgt r ON r.next_token = c.next_token
    WHERE c.cnt >= 5
    """,
)
def token_dice_collocations(sf_dir: str):
    """Dice-coefficient phrase detection over adjacent-bigram events seen
    >= 5 times: 2*f(xy) / (f(x·) + f(·y)) with marginals summed over
    bigram events (the same marginal convention as the PMI twin, so the
    two scores are comparable per pair). Identical physical plan: Arrow
    group_by partials per batch, the exchange bounded by distinct-bigram
    vocabulary, marginals via two vectorized transforms on the merged
    vocab table; the score is pure int64 arithmetic — no logs, no
    doubles, bit-identical on both engines."""
    from sciscraper_ray.pipelines.queries.dedup import _bigram_counts

    merged = _bigram_counts(sf_dir, "token_dice_collocations")
    lc = merged.groupby("token")["cnt"].transform("sum").to_numpy(np.int64)
    rc = merged.groupby("next_token")["cnt"].transform("sum").to_numpy(np.int64)
    cnt = merged["cnt"].to_numpy(np.int64)
    keep = cnt >= 5
    denom = lc[keep] + rc[keep]
    dice = (4_000_000 * cnt[keep] + denom) // (2 * denom)
    return pa.table(
        {
            "token": pa.array(merged["token"].to_numpy()[keep], pa.string()),
            "next_token": pa.array(
                merged["next_token"].to_numpy()[keep], pa.string()
            ),
            "cnt": pa.array(cnt[keep], pa.int64()),
            "dice_micro": pa.array(dice, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# License classification — the governance gate a training-data pipeline
# runs before a document may enter a commercial corpus. Priority-ordered
# pattern table (most-restrictive CC variant first so 'CC BY-NC-SA'
# never downgrades to 'CC BY'); each pattern is one vectorized
# match_substring_regex pass over the batch, the chain an if_else
# cascade — no Python per row.

_LICENSE_TABLE = (
    # (license id, regex, commercial_ok, attribution_required)
    ("cc-by-nc-sa", r"CC BY-NC-SA|Attribution-NonCommercial-ShareAlike", 0, 1),
    ("cc-by-nc", r"CC BY-NC|Attribution-NonCommercial", 0, 1),
    ("cc-by-sa", r"CC BY-SA|Attribution-ShareAlike", 1, 1),
    ("cc-by", r"CC BY|Creative Commons Attribution", 1, 1),
    ("cc0", r"CC0|public domain dedication", 1, 0),
    ("gpl", r"GNU General Public License|GPLv?[23]", 1, 1),
    ("apache-2.0", r"Apache License,? Version 2\.0|Apache-2\.0", 1, 1),
    ("mit", r"MIT [Ll]icense", 1, 1),
    ("proprietary", r"[Aa]ll rights reserved", 0, 0),
)


def classify_license(texts):
    """``(license, commercial_ok, attribution_required)`` arrays; rows
    matching no pattern classify as ('none', 0, 0) — unknown provenance
    is excluded from commercial corpora by default."""
    lic = pa.nulls(len(texts), pa.string())
    com = pa.nulls(len(texts), pa.int64())
    att = pa.nulls(len(texts), pa.int64())
    for name, pat, c_ok, a_req in _LICENSE_TABLE:
        hit = pc.match_substring_regex(texts, pat)
        unset = pc.and_(hit, pc.is_null(lic))
        lic = pc.if_else(unset, pa.scalar(name, pa.string()), lic)
        com = pc.if_else(unset, pa.scalar(c_ok, pa.int64()), com)
        att = pc.if_else(unset, pa.scalar(a_req, pa.int64()), att)
    lic = pc.fill_null(lic, "none")
    com = pc.fill_null(com, 0)
    att = pc.fill_null(att, 0)
    return lic, com, att


@register(
    "doc_license_classify",
    oracle="""
    SELECT doc_id,
           CASE doc_id % 8
               WHEN 0 THEN 'cc-by' WHEN 1 THEN 'cc-by-sa'
               WHEN 2 THEN 'cc-by-nc' WHEN 3 THEN 'mit'
               WHEN 4 THEN 'apache-2.0' WHEN 5 THEN 'gpl'
               WHEN 6 THEN 'proprietary' ELSE 'none'
           END AS license,
           CAST(CASE doc_id % 8
               WHEN 0 THEN 1 WHEN 1 THEN 1 WHEN 2 THEN 0 WHEN 3 THEN 1
               WHEN 4 THEN 1 WHEN 5 THEN 1 WHEN 6 THEN 0 ELSE 0
           END AS BIGINT) AS commercial_ok,
           CAST(CASE doc_id % 8
               WHEN 0 THEN 1 WHEN 1 THEN 1 WHEN 2 THEN 1 WHEN 3 THEN 1
               WHEN 4 THEN 1 WHEN 5 THEN 1 WHEN 6 THEN 0 ELSE 0
           END AS BIGINT) AS attribution_required
    FROM documents
    """,
)
def doc_license_classify(sf_dir: str):
    """Rule-based license gate over page footers: each doc's text gets a
    deterministic license statement appended (%8 cases: the three CC
    tiers, MIT, Apache, GPL, all-rights-reserved, or nothing), with the
    CC BY-SA case phrased to ALSO contain the plain 'Creative Commons
    Attribution' phrase — the priority table must pick the more
    restrictive variant or the doc leaks into a commercial corpus with
    the wrong obligations. Pure vectorized map stage (one regex pass per
    table row), zero exchange; at 100 TB the same stage runs over the
    extracted-text column."""

    def run(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        stamped = []
        for i, t in zip(ids, texts):
            i = int(i)
            case = i % 8
            footer = (
                "Licensed under CC BY 4.0.",
                "Creative Commons Attribution-ShareAlike: CC BY-SA 4.0.",
                "For non-commercial use: CC BY-NC 4.0 applies.",
                "Released under the MIT license.",
                "Covered by the Apache License, Version 2.0.",
                "Distributed under the GNU General Public License.",
                "Copyright. All rights reserved.",
                "",
            )[case]
            stamped.append(f"{t} {footer}" if footer else t)
        lic, com, att = classify_license(pa.array(stamped, pa.string()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "license": lic,
                "commercial_ok": com,
                "attribution_required": att,
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Unicode script-mix profiling: per doc, codepoint counts per script
# class — the mojibake/mixed-script symptom detector that runs next to
# lang-ID in a multilingual crawl. Pure vectorized regex counting (one
# Arrow pass per script class), no Python rows.

_SCRIPT_CLASSES = (
    ("cyrillic", r"[\x{0400}-\x{04FF}]", "[Ѐ-ӿ]"),
    ("greek", r"[\x{0370}-\x{03FF}]", "[Ͱ-Ͽ]"),
    ("cjk", r"[\x{4E00}-\x{9FFF}]", "[一-鿿]"),
)


@register(
    "doc_script_mix",
    oracle=r"""
    WITH t AS (
        SELECT doc_id,
               text || CASE
                   WHEN doc_id % 7 = 0 THEN ' Привет мир'
                   WHEN doc_id % 7 = 1 THEN ' αβγ δέλτα'
                   WHEN doc_id % 7 = 2 THEN ' 中文 测试'
                   WHEN doc_id % 7 = 3 THEN ' Привет αβγ 中'
                   ELSE ''
               END AS tt
        FROM documents
    )
    SELECT doc_id,
           CAST(length(regexp_replace(tt, '[^\x{0400}-\x{04FF}]', '', 'g'))
               AS BIGINT) AS cyrillic_chars,
           CAST(length(regexp_replace(tt, '[^\x{0370}-\x{03FF}]', '', 'g'))
               AS BIGINT) AS greek_chars,
           CAST(length(regexp_replace(tt, '[^\x{4E00}-\x{9FFF}]', '', 'g'))
               AS BIGINT) AS cjk_chars,
           CAST(CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END AS BIGINT)
               AS is_mixed
    FROM t
    """,
)
def doc_script_mix(sf_dir: str):
    """Script-mix X-ray: Cyrillic/Greek/CJK codepoint counts per doc
    (the base corpus is Latin-only; %7 cases plant one foreign-script
    tail each and case 3 plants all three at once — the mixed-script
    page a mojibake detector must flag). Engine counts via one
    pc.count_substring_regex pass per script class; is_mixed = at least
    two non-Latin classes present. The oracle counts the same codepoint
    ranges with RE2 strip-and-length. Zero exchange."""

    def run(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        tails = []
        for i in ids:
            i = int(i)
            tails.append(
                {
                    0: " Привет мир",
                    1: " αβγ δέλτα",
                    2: " 中文 测试",
                    3: " Привет αβγ 中",
                }.get(i % 7, "")
            )
        tt = pc.binary_join_element_wise(
            b["text"], pa.array(tails, pa.string()), ""
        )
        counts = {}
        for name, _duck_re, arrow_re in _SCRIPT_CLASSES:
            counts[name] = pc.cast(
                pc.count_substring_regex(tt, arrow_re), pa.int64()
            )
        present = None
        for name in counts:
            flag = pc.cast(pc.greater(counts[name], 0), pa.int64())
            present = flag if present is None else pc.add(present, flag)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64)),
                "cyrillic_chars": counts["cyrillic"],
                "greek_chars": counts["greek"],
                "cjk_chars": counts["cjk"],
                "is_mixed": pc.cast(
                    pc.greater_equal(present, 2), pa.int64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


# S-stemmer (Harman 1991, "How effective is suffixing?") — the three
# plural-conflation rules with their exception lists, mirrored verbatim
# in the oracle's CASE chain. The synthetic vocabulary has no plural
# surface forms, so the fixture injects deterministic suffix variants
# ((doc_id + token position) % 7 selects 's'/'ies'/'es'/none), the same
# construction pattern the dedup family uses for copies.
_STEM_SQL = """
        CASE
            WHEN length(tok) > 4 AND tok LIKE '%ies'
                 AND tok NOT LIKE '%eies' AND tok NOT LIKE '%aies'
                THEN substr(tok, 1, length(tok) - 3) || 'y'
            WHEN length(tok) > 3 AND tok LIKE '%es'
                 AND tok NOT LIKE '%aes' AND tok NOT LIKE '%ees'
                 AND tok NOT LIKE '%oes'
                THEN substr(tok, 1, length(tok) - 1)
            WHEN length(tok) > 2 AND tok LIKE '%s'
                 AND tok NOT LIKE '%us' AND tok NOT LIKE '%ss'
                THEN substr(tok, 1, length(tok) - 1)
            ELSE tok
        END
"""


def _s_stem_np(toks: "np.ndarray") -> "np.ndarray":
    """Vectorized S-stemmer over an object array of tokens (pandas str
    kernels; one boolean-mask pass per rule, first matching rule wins)."""
    import pandas as pd

    s = pd.Series(toks, dtype=object)
    n = s.str.len().to_numpy()
    r1 = (
        (n > 4)
        & s.str.endswith("ies").to_numpy()
        & ~s.str.endswith(("eies", "aies")).to_numpy()
    )
    r2 = (
        (n > 3)
        & s.str.endswith("es").to_numpy()
        & ~s.str.endswith(("aes", "ees", "oes")).to_numpy()
        & ~r1
    )
    r3 = (
        (n > 2)
        & s.str.endswith("s").to_numpy()
        & ~s.str.endswith(("us", "ss")).to_numpy()
        & ~r1
        & ~r2
    )
    out = s.copy()
    out[r1] = s[r1].str[:-3] + "y"
    out[r2] = s[r2].str[:-1]
    out[r3] = s[r3].str[:-1]
    return out.to_numpy()


@register(
    "token_stem_conflate",
    oracle=f"""
    WITH base AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS tok0,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), surf AS (
        SELECT tok0 || CASE (doc_id + ord) % 7
                   WHEN 0 THEN 's' WHEN 1 THEN 'ies' WHEN 2 THEN 'es'
                   ELSE '' END AS tok
        FROM base
    ), stemmed AS (
        SELECT tok, {_STEM_SQL} AS stem FROM surf
    )
    SELECT stem, CAST(count(DISTINCT tok) AS BIGINT) AS n_forms,
           CAST(count(*) AS BIGINT) AS cnt
    FROM stemmed GROUP BY stem
    """,
)
def token_stem_conflate(sf_dir: str):
    """Plural-conflation classes under the S-stemmer (Harman 1991): each
    vocabulary stem with how many distinct surface forms collapse into it
    and the total token mass — the classic index-time vocabulary
    compaction, and a direct measure of how much a cheap rule-based
    stemmer shrinks the type inventory. The three rules ('ies'->'y',
    drop-'s' after 'es', bare-'s') with their exception suffixes
    (eies/aies, aes/ees/oes, us/ss) run as vectorized pandas str masks;
    the exchange is per-batch (stem, surface) Arrow group_by partials
    merged on the driver — bounded by vocabulary x 4 surface variants,
    never corpus size."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def partials(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table(
                {
                    "stem": pa.array([], pa.string()),
                    "tok": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        starts = np.flatnonzero(np.concatenate(([True], par[1:] != par[:-1])))
        ords = np.arange(len(flat)) - np.repeat(starts, np.diff(np.concatenate((starts, [len(flat)]))))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[par]
        sel = (ids + ords) % 7
        suffix = np.where(
            sel == 0, "s", np.where(sel == 1, "ies", np.where(sel == 2, "es", ""))
        )
        import pandas as pd

        surf = (pd.Series(flat, dtype=object) + pd.Series(suffix)).to_numpy()
        stems = _s_stem_np(surf)
        t = pa.table(
            {"stem": pa.array(stems, pa.string()), "tok": pa.array(surf, pa.string())}
        )
        return group_count_batch(t, ["stem", "tok"])

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir).map_batches(partials, batch_format="pyarrow"),
        what="token_stem_conflate",
    )
    merged = parts.groupby(["stem", "tok"], as_index=False)["cnt"].sum()
    out = merged.groupby("stem").agg(n_forms=("tok", "size"), cnt=("cnt", "sum")).reset_index()
    return pa.table(
        {
            "stem": pa.array(out["stem"], pa.string()),
            "n_forms": pa.array(out["n_forms"].to_numpy(np.int64), pa.int64()),
            "cnt": pa.array(out["cnt"].to_numpy(np.int64), pa.int64()),
        }
    )


@register(
    "source_chao1_richness",
    oracle=f"""
    WITH toks AS (
        SELECT lang, unnest({_SQL_TOKENS}) AS token FROM documents
    ), cnt AS (
        SELECT lang, token, count(*) AS c FROM toks GROUP BY lang, token
    )
    SELECT lang,
           CAST(count(*) AS BIGINT) AS n_types,
           CAST(count(*) FILTER (c = 1) AS BIGINT) AS f1,
           CAST(count(*) FILTER (c = 2) AS BIGINT) AS f2,
           count(*) + (CAST(count(*) FILTER (c = 1) AS DOUBLE)
                       * (CAST(count(*) FILTER (c = 1) AS DOUBLE) - 1))
                      / (2 * (CAST(count(*) FILTER (c = 2) AS DOUBLE) + 1))
               AS chao1
    FROM cnt GROUP BY lang
    """,
)
def source_chao1_richness(sf_dir: str):
    """Chao1 species-richness estimate of each language's UNSEEN
    vocabulary: chao1 = D + f1*(f1-1)/(2*(f2+1)) (the bias-corrected
    form, so f2 = 0 is safe) from the observed type count D and the
    singleton/doubleton frequencies-of-frequencies f1, f2 — the standard
    ecology estimator ported to corpus health (how much vocabulary a
    bigger crawl of this language would still discover). Per-batch
    (lang, token) Arrow group_by partials, driver merge bounded by
    vocabulary; the frequency-of-frequency reduction and the estimator
    are one vectorized pandas pass. Identical double arithmetic order on
    both sides, so the unrounded chao1 hashes bit-identically."""
    def partials(batch: pa.Table) -> pa.Table:
        return group_count_batch(_tokens_by(batch, "lang"), ["lang", "token"])

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("lang", "text")).map_batches(
            partials, batch_format="pyarrow"
        ),
        what="source_chao1_richness",
    )
    merged = parts.groupby(["lang", "token"], as_index=False)["cnt"].sum()
    c = merged["cnt"].to_numpy()
    grp = merged.groupby("lang")
    out = grp.agg(
        n_types=("token", "size"),
    ).reset_index()
    f1 = grp["cnt"].apply(lambda s: int((s == 1).sum())).to_numpy(np.int64)
    f2 = grp["cnt"].apply(lambda s: int((s == 2).sum())).to_numpy(np.int64)
    nt = out["n_types"].to_numpy(np.int64)
    chao1 = nt + (f1.astype(np.float64) * (f1.astype(np.float64) - 1)) / (
        2 * (f2.astype(np.float64) + 1)
    )
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n_types": pa.array(nt, pa.int64()),
            "f1": pa.array(f1, pa.int64()),
            "f2": pa.array(f2, pa.int64()),
            "chao1": pa.array(chao1, pa.float64()),
        }
    )


def _textrank_sql(iters: int = 5) -> str:
    """TextRank unrolled to fixed-K power iteration over the DISTINCT
    adjacent-token co-occurrence graph (same CTE chain as the
    round-2 _pagerank_sql, node space = token strings)."""
    ctes = [
        f"d AS (SELECT {_SQL_TOKENS} AS toks, len({_SQL_TOKENS}) AS n FROM documents)",
        "w AS (SELECT unnest(range(n - 1)) AS k, toks FROM d WHERE n >= 2)",
        "bg AS (SELECT toks[k + 1] AS t1, toks[k + 2] AS t2 FROM w)",
        "e0 AS (SELECT DISTINCT least(t1, t2) AS a, greatest(t1, t2) AS b"
        " FROM bg WHERE t1 <> t2)",
        "edges AS (SELECT a AS src, b AS dst FROM e0"
        " UNION ALL SELECT b AS src, a AS dst FROM e0)",
        "deg AS (SELECT src AS node, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src)",
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg)",
        "r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
        SELECT e.dst AS node,
               (1.0 - 0.85) / (SELECT n FROM nn)
                   + 0.85 * sum(p.r / dg.d) AS r
        FROM edges e
        JOIN r{k - 1} p ON p.node = e.src
        JOIN deg dg ON dg.node = e.src
        GROUP BY e.dst
    )"""
        )
    return (
        "WITH "
        + ",\n    ".join(ctes)
        + f"\n    SELECT node AS token, round(r, 10) AS r FROM r{iters}"
    )


@register("token_textrank", oracle=_textrank_sql(5))
def token_textrank(sf_dir: str):
    """TextRank keyword scoring (Mihalcea & Tarau 2004): PageRank
    (d=0.85, 5 fixed iterations) over the undirected graph whose nodes
    are vocabulary tokens and whose edges are DISTINCT adjacent-token
    co-occurrences — the classic unsupervised keyword extractor, run
    corpus-wide. Per-batch shifted-slice bigram harvest with in-batch
    distinct, a vocabulary-bounded (<= V^2 pairs, in practice ~V) driver
    merge builds the token <-> dense-id map, and the iteration itself is
    the shared two-plan pipelines/graph.py pagerank engine (driver
    bincount below 50M edges, co-partitioned bucketed join + groupby-sum
    shuffle above). The oracle unrolls the identical fixed-K recurrence
    on VARCHAR nodes."""
    import pandas as pd

    from sciscraper_ray.pipelines.graph import pagerank
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def pair_partials(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        m = len(flat) - 1
        if m <= 0:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        t1 = flat.slice(0, m).to_numpy(zero_copy_only=False)
        t2 = flat.slice(1, m).to_numpy(zero_copy_only=False)
        inside = (par[:m] == par[1:]) & (t1 != t2)
        lo = np.minimum(t1[inside], t2[inside])
        hi = np.maximum(t1[inside], t2[inside])
        df = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    from sciscraper_ray.pipelines.plan import driver_frame

    pairs = (
        driver_frame(
            _docs(sf_dir).map_batches(pair_partials, batch_format="pyarrow"),
            what="token_textrank",
        )
        .drop_duplicates()
    )
    vocab = np.unique(np.concatenate([pairs["a"].to_numpy(), pairs["b"].to_numpy()]))
    idx = {t: i for i, t in enumerate(vocab)}
    a = pairs["a"].map(idx).to_numpy(np.int64)
    b = pairs["b"].map(idx).to_numpy(np.int64)
    edges = pa.table(
        {
            "a": pa.array(np.concatenate([a, b]), pa.int64()),
            "b": pa.array(np.concatenate([b, a]), pa.int64()),
        }
    )
    ranked = pagerank(edges, damping=0.85, iters=5)
    if not isinstance(ranked, pa.Table):  # shuffle plan returns a Dataset
        ranked = pa.Table.from_pandas(ranked.to_pandas(), preserve_index=False)  # bounded: ranked synth nodes
    node = ranked["node"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "token": pa.array(vocab[node], pa.string()),
            "r": ranked["r"],
        }
    )


@register(
    "token_llr_keyness",
    oracle=f"""
    WITH toks AS (
        SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS grp,
               unnest({_SQL_TOKENS}) AS token
        FROM documents
    ), cnt AS (
        SELECT token,
               CAST(sum(grp) AS BIGINT) AS k_en,
               CAST(sum(1 - grp) AS BIGINT) AS k_rest
        FROM toks GROUP BY token
    ), tot AS (
        SELECT CAST(sum(k_en) AS BIGINT) AS n_en,
               CAST(sum(k_rest) AS BIGINT) AS n_rest
        FROM cnt
    ), f AS (
        SELECT token, k_en, k_rest,
               CAST(k_en AS DOUBLE) AS a, CAST(k_rest AS DOUBLE) AS b,
               CAST(n_en - k_en AS DOUBLE) AS c,
               CAST(n_rest - k_rest AS DOUBLE) AS d,
               CAST(n_en + n_rest AS DOUBLE) AS nn,
               CAST(k_en + k_rest AS DOUBLE) AS r1,
               CAST(n_en AS DOUBLE) AS c1, CAST(n_rest AS DOUBLE) AS c2
        FROM cnt, tot
    )
    SELECT token, k_en, k_rest,
           2 * ((CASE WHEN a > 0 THEN a * ln((a * nn) / (r1 * c1)) ELSE 0 END
               + CASE WHEN b > 0 THEN b * ln((b * nn) / (r1 * c2)) ELSE 0 END)
              + (CASE WHEN c > 0 THEN c * ln((c * nn) / ((nn - r1) * c1)) ELSE 0 END
               + CASE WHEN d > 0 THEN d * ln((d * nn) / ((nn - r1) * c2)) ELSE 0 END))
               AS llr
    FROM f
    """,
)
def token_llr_keyness(sf_dir: str):
    """Dunning log-likelihood-ratio keyness (Dunning 1993, the G2
    statistic) of every token between the English subcorpus and the
    rest — the standard corpus-comparison score that, unlike chi-square
    (token_chi2_keyness), stays calibrated for rare words. G2 =
    2 * sum over the 2x2 cells of k * ln(k*N / (row*col)) with the
    0*ln(0) = 0 convention. Same vocab-bounded plan as the chi2 twin:
    per-batch (grp, token) Arrow group_by partials, driver merge, one
    vectorized numpy pass; the double arithmetic (and term order) is
    mirrored exactly in the oracle, so the unrounded statistic hashes
    bit-identically."""
    def partials(batch: pa.Table) -> pa.Table:
        t = _tokens_by(batch, "lang")
        t = t.append_column("grp", pc.cast(pc.equal(t["lang"], "en"), pa.int64()))
        return group_count_batch(t, ["token"], {"grp": "k_en"})

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("lang", "text")).map_batches(
            partials, batch_format="pyarrow"
        ),
        what="token_llr_keyness",
    )
    merged = parts.groupby("token", as_index=False).sum()
    k_en = merged["k_en"].to_numpy(np.int64)
    k_rest = merged["cnt"].to_numpy(np.int64) - k_en
    n_en = int(k_en.sum())
    n_rest = int(k_rest.sum())
    a = k_en.astype(np.float64)
    b = k_rest.astype(np.float64)
    c = np.float64(n_en) - a
    d = np.float64(n_rest) - b
    nn = np.float64(n_en + n_rest)
    r1 = a + b
    c1, c2 = np.float64(n_en), np.float64(n_rest)

    def term(k, row, col):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = k * np.log((k * nn) / (row * col))
        return np.where(k > 0, t, 0.0)

    llr = 2 * (
        (term(a, r1, c1) + term(b, r1, c2))
        + (term(c, nn - r1, c1) + term(d, nn - r1, c2))
    )
    return pa.table(
        {
            "token": pa.array(merged["token"], pa.string()),
            "k_en": pa.array(k_en, pa.int64()),
            "k_rest": pa.array(k_rest, pa.int64()),
            "llr": pa.array(llr, pa.float64()),
        }
    )


@register(
    "token_yule_k",
    oracle=f"""
    WITH toks AS (
        SELECT lang, unnest({_SQL_TOKENS}) AS token FROM documents
    ), cnt AS (
        SELECT lang, token, count(*) AS c FROM toks GROUP BY lang, token
    )
    SELECT lang,
           CAST(sum(c) AS BIGINT) AS m1,
           CAST(sum(c * c) AS BIGINT) AS m2,
           10000.0 * (CAST(sum(c * c) AS DOUBLE) - sum(c))
               / (CAST(sum(c) AS DOUBLE) * sum(c)) AS yule_k
    FROM cnt GROUP BY lang
    """,
)
def token_yule_k(sf_dir: str):
    """Yule's K characteristic per language — the length-invariant
    repeat-rate constant K = 10^4 (M2 - M1) / M1^2 from the first two
    frequency moments (M1 = token mass, M2 = sum of squared type
    counts). Unlike raw type-token ratio it barely moves with corpus
    size, which is what makes it the standard cross-corpus repetition
    gauge (template floods and bot text spike it). The moments are
    exact int64 off the same vocab-bounded (lang, token) partial
    exchange as the chao1/type-stats family; only the final constant is
    a double, in identical arithmetic order on both sides."""
    def partials(batch: pa.Table) -> pa.Table:
        return group_count_batch(_tokens_by(batch, "lang"), ["lang", "token"])

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("lang", "text")).map_batches(
            partials, batch_format="pyarrow"
        ),
        what="token_yule_k",
    )
    merged = parts.groupby(["lang", "token"], as_index=False)["cnt"].sum()
    grp = merged.groupby("lang")["cnt"]
    m1 = grp.sum().astype(np.int64)
    m2 = grp.apply(lambda s: int((s.to_numpy(np.int64) ** 2).sum()))
    langs = m1.index.to_numpy()
    m1v = m1.to_numpy(np.int64)
    m2v = m2.to_numpy(np.int64)
    yk = 10000.0 * (m2v.astype(np.float64) - m1v) / (m1v.astype(np.float64) * m1v)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "m1": pa.array(m1v, pa.int64()),
            "m2": pa.array(m2v, pa.int64()),
            "yule_k": pa.array(yk, pa.float64()),
        }
    )


@register(
    "source_js_divergence",
    oracle=f"""
    WITH toks AS (
        SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS grp,
               unnest({_SQL_TOKENS}) AS token
        FROM documents
    ), c AS (
        SELECT token,
               CAST(sum(grp) AS BIGINT) AS ce,
               CAST(sum(1 - grp) AS BIGINT) AS cr
        FROM toks GROUP BY token
    ), tot AS (
        SELECT CAST(sum(ce) AS BIGINT) AS ne, CAST(sum(cr) AS BIGINT) AS nr
        FROM c
    ), pq AS (
        SELECT CAST(ce AS DOUBLE) / ne AS p, CAST(cr AS DOUBLE) / nr AS q
        FROM c, tot
    )
    SELECT (SELECT count(*) FROM c) AS n_types,
           round(sum(CASE WHEN p > 0
                          THEN 0.5 * (p * log2(p / ((p + q) / 2)))
                          ELSE 0 END
                   + CASE WHEN q > 0
                          THEN 0.5 * (q * log2(q / ((p + q) / 2)))
                          ELSE 0 END), 6) AS js_bits
    FROM pq
    """,
)
def source_js_divergence(sf_dir: str):
    """Jensen-Shannon divergence (bits) between the English and
    non-English unigram distributions — the SYMMETRIC, always-finite
    sibling of source_kl_divergence (KL explodes on tokens absent from
    one side; JS handles them with the 0*log0 = 0 convention against
    the mixture M = (P+Q)/2), which is why JS is the drift metric used
    when neither distribution is a safe reference. Same vocab-bounded
    (grp, token) partial exchange and one vectorized pass; round(,6)
    pins the double comparison as in the KL twin."""
    def partials(batch: pa.Table) -> pa.Table:
        t = _tokens_by(batch, "lang")
        t = t.append_column("grp", pc.cast(pc.equal(t["lang"], "en"), pa.int64()))
        return group_count_batch(t, ["token"], {"grp": "ce"})

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("lang", "text")).map_batches(
            partials, batch_format="pyarrow"
        ),
        what="source_js_divergence",
    )
    merged = parts.groupby("token", as_index=False).sum()
    ce = merged["ce"].to_numpy(np.int64)
    cr = merged["cnt"].to_numpy(np.int64) - ce
    ne, nr = int(ce.sum()), int(cr.sum())
    p = ce.astype(np.float64) / ne
    q = cr.astype(np.float64) / nr
    m = (p + q) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = 0.5 * (p * np.log2(p / m))
        tq = 0.5 * (q * np.log2(q / m))
    js = float(np.where(p > 0, tp, 0.0).sum() + np.where(q > 0, tq, 0.0).sum())
    return pa.table(
        {
            "n_types": pa.array([len(merged)], pa.int64()),
            "js_bits": pa.array([np.round(js, 6)], pa.float64()),
        }
    )


@register(
    "token_symspell_neighbors",
    oracle=f"""
    WITH v AS (
        SELECT DISTINCT unnest({_SQL_TOKENS}) AS tok FROM documents
    )
    SELECT x.tok AS token, CAST(count(y.tok) AS BIGINT) AS n_neighbors
    FROM v x LEFT JOIN v y
      ON x.tok <> y.tok
     AND abs(length(x.tok) - length(y.tok)) <= 1
     AND levenshtein(x.tok, y.tok) <= 1
    GROUP BY x.tok
    """,
)
def token_symspell_neighbors(sf_dir: str):
    """Typo-neighborhood degree of every vocabulary token (how many
    other types sit within edit distance 1) via the SymSpell
    deletion-key plan: two words with lev <= 1 always share a key in
    {w} ∪ {w minus one char}, so candidate pairs come from ONE groupby
    on deletion variants — O(V * avg_len) keys — instead of the V^2
    all-pairs scan the oracle runs. Survivors are verified with the
    vectorized Levenshtein row-DP. This is the spell-correction /
    OCR-noise index build (Garbe's SymSpell), and the neighbor degree
    itself flags vocabulary noise: natural-language types average a
    handful of neighbors, OCR shards spike. Exchange is vocabulary-
    bounded end to end; the per-batch stage only emits distinct
    tokens."""
    import pandas as pd

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from sciscraper_ray.pipelines.dedup import levenshtein_np

    def vocab_partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        return (
            pa.table({"tok": flat})
            .group_by("tok")
            .aggregate([])
        )

    from sciscraper_ray.pipelines.plan import driver_frame

    vocab = (
        driver_frame(
            _docs(sf_dir).map_batches(vocab_partial, batch_format="pyarrow"),
            what="token_symspell_neighbors",
        )["tok"]
        .drop_duplicates()
        .tolist()
    )
    # deletion-key buckets: word itself + each single-char deletion
    keys: dict[str, list[int]] = {}
    for i, w in enumerate(vocab):
        for k in {w} | {w[:j] + w[j + 1 :] for j in range(len(w))}:
            keys.setdefault(k, []).append(i)
    cand = set()
    for members in keys.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                cand.add((members[a], members[b]))
    deg = np.zeros(len(vocab), np.int64)
    for a, b in cand:
        wa, wb = vocab[a], vocab[b]
        if abs(len(wa) - len(wb)) <= 1 and levenshtein_np(wa, wb) <= 1:
            deg[a] += 1
            deg[b] += 1
    return pa.table(
        {
            "token": pa.array(vocab, pa.string()),
            "n_neighbors": pa.array(deg, pa.int64()),
        }
    )


_SUBSAMPLE_T = 1e-3


@register(
    "token_subsample_mikolov",
    oracle=f"""
    WITH base AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM documents
    ), tot AS (
        SELECT CAST(count(*) AS DOUBLE) AS n FROM base
    ), freq AS (
        SELECT token, CAST(count(*) AS BIGINT) AS cnt,
               count(*) / (SELECT n FROM tot) AS f
        FROM base GROUP BY token
    ), p AS (
        SELECT token, cnt,
               least(1.0, sqrt({_SUBSAMPLE_T} / f) + {_SUBSAMPLE_T} / f) AS keep_p
        FROM freq
    ), coin AS (
        SELECT b.token,
               CAST({{u}} AS DOUBLE) / 1152921504606846976 AS u
        FROM base b
    )
    SELECT p.token, p.cnt AS orig_cnt,
           CAST(count(*) FILTER (c.u < p.keep_p) AS BIGINT) AS kept_cnt
    FROM coin c JOIN p ON p.token = c.token
    GROUP BY p.token, p.cnt
    """.replace(
        "{u}",
        md5_hex15_sql(
            "CAST(b.doc_id AS VARCHAR) || ':' || CAST(b.ord AS VARCHAR)"
            " || ':' || b.token"
        ),
    ),
)
def token_subsample_mikolov(sf_dir: str):
    """word2vec-style frequency subsampling (Mikolov et al. 2013 eq. 5):
    each token OCCURRENCE survives with probability
    min(1, sqrt(t/f) + t/f), t = 1e-3 — the pass that deletes most
    'the'-class occurrences while keeping every rare word, standard in
    embedding-corpus prep. The coin is a deterministic md5 of
    (doc, position, token) mapped to [0,1), so the subsample is
    reproducible and resumable by construction (re-running a shard
    keeps exactly the same occurrences — no RNG state to checkpoint).
    Per-batch (token, orig, kept) partials keep the exchange
    vocab-bounded; the oracle replays the same md5 coin and the same
    double threshold, collision-for-collision."""
    import pandas as pd

    from sciscraper_ray.kernels.tokenize import tokenize_column
    from ray.data.aggregate import Sum

    # pass 1: global frequencies (vocab-bounded)
    def freq_partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = pc.list_flatten(toks)
        return group_count_batch(pa.table({"token": flat}), ["token"])

    freq = (
        _docs(sf_dir)
        .map_batches(freq_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum(on="cnt", alias_name="cnt"))
        .to_pandas()  # bounded: |j cells| post-aggregate
    )
    total = float(freq["cnt"].sum())
    f = freq["cnt"].to_numpy(np.int64) / total
    keep_p = np.minimum(1.0, np.sqrt(_SUBSAMPLE_T / f) + _SUBSAMPLE_T / f)
    p_map = dict(zip(freq["token"], keep_p))
    import ray

    p_ref = ray.put(p_map)

    def sample_partial(batch: pa.Table) -> pa.Table:
        pm = ray.get(p_ref)
        toks = tokenize_column(batch["text"]).combine_chunks()
        flat = toks.to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        rows: dict[str, list[int]] = {}
        coins = md5_hex15(
            f"{int(i)}:{k}:{t}" for i, lst in zip(ids, flat) for k, t in enumerate(lst)
        ) / 1152921504606846976.0
        for t, u in zip((t for lst in flat for t in lst), coins):
            r = rows.setdefault(t, [0, 0])
            r[0] += 1
            if u < pm[t]:
                r[1] += 1
        return pa.table(
            {
                "token": pa.array(list(rows), pa.string()),
                "orig": pa.array([v[0] for v in rows.values()], pa.int64()),
                "kept": pa.array([v[1] for v in rows.values()], pa.int64()),
            }
        )

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = (
        driver_frame(
            _docs(sf_dir).map_batches(sample_partial, batch_format="pyarrow"),
            what="token_subsample_mikolov",
        )
        .groupby("token", as_index=False)
        .sum()
    )
    return pa.table(
        {
            "token": pa.array(parts["token"], pa.string()),
            "orig_cnt": pa.array(parts["orig"].to_numpy(np.int64), pa.int64()),
            "kept_cnt": pa.array(parts["kept"].to_numpy(np.int64), pa.int64()),
        }
    )


_DELTA_TOPK = 15


@register(
    "source_burrows_delta",
    oracle=f"""
    WITH toks AS (
        SELECT source, unnest({_SQL_TOKENS}) AS token FROM documents
    ), mfw AS MATERIALIZED (
        SELECT token FROM toks GROUP BY token
        ORDER BY count(*) DESC, token ASC LIMIT {_DELTA_TOPK}
    ), st AS (
        SELECT source, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY source
    ), cnt AS (
        SELECT t.source, t.token, CAST(count(*) AS BIGINT) AS c
        FROM toks t JOIN mfw USING (token) GROUP BY t.source, t.token
    ), rel AS MATERIALIZED (
        SELECT s.source, m.token,
               COALESCE(c.c, 0) / CAST(s.n AS DOUBLE) AS f
        FROM st s CROSS JOIN mfw m
        LEFT JOIN cnt c ON c.source = s.source AND c.token = m.token
    ), mu AS MATERIALIZED (
        SELECT token, avg(f) AS mu,
               sqrt(avg(f * f) - avg(f) * avg(f)) AS sd
        FROM rel GROUP BY token
    ), z AS MATERIALIZED (
        SELECT r.source, r.token, (r.f - m.mu) / m.sd AS z
        FROM rel r JOIN mu m USING (token)
    )
    SELECT a.source AS s1, b.source AS s2,
           round(avg(abs(a.z - b.z)), 8) AS delta
    FROM z a JOIN z b ON a.token = b.token AND a.source < b.source
    GROUP BY a.source, b.source
    """,
)
def source_burrows_delta(sf_dir: str):
    """Burrows' Delta (2002) between every pair of ingest sources — THE
    stylometric distance: relative frequencies of the corpus's top-15
    most-frequent words, z-scored per word across sources, then the
    mean absolute z-difference per source pair. In a crawl pipeline
    this fingerprints template/bot sources (machine-generated feeds
    cluster at tiny deltas; organic prose spreads). Per-batch (source,
    token) partials keep the exchange at sources x 15 words; the
    z-profile matrix and all pairwise deltas are one vectorized pass.
    Population sd computed as sqrt(E[f^2]-E[f]^2) identically on both
    sides; round(,8) pins the 15-term averages."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        return group_count_batch(_tokens_by(batch, "source"), ["source", "token"])

    from sciscraper_ray.pipelines.plan import driver_frame

    parts = driver_frame(
        _docs(sf_dir, columns=("source", "text")).map_batches(
            partials, batch_format="pyarrow"
        ),
        what="source_burrows_delta",
    )
    merged = parts.groupby(["source", "token"], as_index=False)["cnt"].sum()
    tot_by_tok = merged.groupby("token")["cnt"].sum()
    # exactly the oracle's MFW rank: count desc, token asc
    mfw = sorted(tot_by_tok.index, key=lambda t: (-tot_by_tok[t], t))[:_DELTA_TOPK]
    n_by_src = merged.groupby("source")["cnt"].sum()
    sources = sorted(n_by_src.index)
    f = np.zeros((len(sources), len(mfw)), np.float64)
    sub = merged[merged["token"].isin(mfw)]
    si = {s: i for i, s in enumerate(sources)}
    ti = {t: i for i, t in enumerate(mfw)}
    for r in sub.itertuples(index=False):
        f[si[r.source], ti[r.token]] = r.cnt / float(n_by_src[r.source])
    mu = f.mean(axis=0)
    sd = np.sqrt((f * f).mean(axis=0) - mu * mu)
    z = (f - mu) / sd
    s1o, s2o, deltas = [], [], []
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            s1o.append(sources[i])
            s2o.append(sources[j])
            deltas.append(np.round(np.abs(z[i] - z[j]).mean(), 8))
    return pa.table(
        {
            "s1": pa.array(s1o, pa.string()),
            "s2": pa.array(s2o, pa.string()),
            "delta": pa.array(np.array(deltas, np.float64), pa.float64()),
        }
    )


# Dictionary for the Aho-Corasick scan: drawn from the corpus vocabulary,
# chosen BORDERLESS (no pattern has a proper prefix equal to a suffix), so
# occurrences cannot self-overlap and the oracle's single-pass
# replace-count equals the automaton's all-occurrence count; cross-pattern
# overlaps ("able" inside "table", "art" inside "part", "or" inside
# "sort") exercise the suffix-link output path.
_AHO_PATTERNS = (
    "table", "tab", "able", "part", "art", "row", "sort", "or", "scan",
)


@register(
    "doc_aho_dictionary_scan",
    oracle="""
    SELECT d.doc_id, p.pattern,
           CAST((length(lower(d.text))
                 - length(replace(lower(d.text), p.pattern, '')))
                / length(p.pattern) AS BIGINT) AS n_hits
    FROM documents d
    CROSS JOIN (VALUES {values}) AS p(pattern)
    """.format(
        values=", ".join(f"('{p}')" for p in _AHO_PATTERNS)
    ),
)
def doc_aho_dictionary_scan(sf_dir: str):
    """Aho-Corasick one-pass multi-pattern scan (stages/aho.py): the
    automaton (goto trie -> BFS failure links -> byte-DFA) compiles once
    per ACTOR in __init__ — the house stateful-stage pattern — and each
    document is scanned once for all dictionary patterns simultaneously,
    counting every occurrence including matches ending inside longer
    ones via the collapsed suffix-link outputs. Patterns are borderless,
    so the oracle's replace-based count is exactly the all-occurrence
    count. Output is (doc, pattern, hits) — dictionary-bounded wide
    rows, no shuffle; at 100 TB this is the blocklist/PII/contamination
    lexicon scrubber's counting pass."""

    class AhoScan:
        def __init__(self) -> None:
            from sciscraper_ray.stages.aho import AhoCorasick

            self.ac = AhoCorasick(list(_AHO_PATTERNS))

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = np.asarray(
                b["doc_id"].to_numpy(zero_copy_only=False), np.int64
            )
            counts = self.ac.scan_batch(
                [(t or "").lower() for t in b["text"].to_pylist()]
            )
            n, p = counts.shape
            return pa.table(
                {
                    "doc_id": pa.array(np.repeat(ids, p)),
                    "pattern": pa.array(
                        list(_AHO_PATTERNS) * n, pa.string()
                    ),
                    "n_hits": pa.array(counts.ravel()),
                }
            )

    return _docs(sf_dir).map_batches(
        AhoScan, batch_format="pyarrow", concurrency=(1, 8)
    )
