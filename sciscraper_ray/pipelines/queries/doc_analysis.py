"""Document analysis + identifier mining (DocScraper semantics, M3-M13).

Split from pipelines/queries.py (round 4); registration side effects
only — import order is fixed by the package __init__.
"""
from __future__ import annotations

from sciscraper_ray.words import BYCATCH_WORDS
from sciscraper_ray.words import TARGET_WORDS
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from sciscraper_ray.words import REFERENCE_ROOT, sql_in_list

from sciscraper_ray.pipelines.queries._shared import (
    NOT_RUN,
    _SQL_TOKENS,
    _docs,
    _sql_ranked,
    register,
)


# --------------------------------------------------------------------------
# Document analysis family (reference DocScraper semantics, SURVEY §2.2/2.5)
# --------------------------------------------------------------------------


@register(
    "doc_tokenize",
    oracle=f"""
    SELECT doc_id,
           CAST(len({_SQL_TOKENS}) AS INTEGER) AS total_word_count
    FROM documents
    """,
)
def doc_tokenize(sf_dir: str):
    """M3+A2: single-space tokenizer + total_word_count."""
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def count_tokens(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "total_word_count": pc.cast(
                    pc.list_value_length(tokens), pa.int32()
                ),
            }
        )

    return _docs(sf_dir).map_batches(count_tokens, batch_format="pyarrow")


def _wordscore_sql(
    tgt_sql: str, byc_sql: str, table: str = "documents"
) -> str:
    """The wordscore oracle body, parameterized by word-set IN-lists and
    source relation (so the same SQL serves the synthetic vocabulary, the
    enrichment CTE, and the reference word lists)."""
    return f"""
    {_sql_ranked(tgt_sql, table)},
    tgt AS (
        SELECT doc_id, SUM(cnt) AS s FROM ranked WHERE rnk <= 3 GROUP BY doc_id
    ),
    btoks AS (
        SELECT doc_id,
               unnest({_SQL_TOKENS}) AS token,
               unnest(range(len({_SQL_TOKENS}))) AS ord
        FROM {table}
    ), bcounts AS (
        SELECT doc_id, token, count(*) AS cnt, min(ord) AS first_ord
        FROM btoks WHERE token IN {byc_sql}
        GROUP BY doc_id, token
    ), branked AS (
        SELECT doc_id, cnt,
               row_number() OVER (
                   PARTITION BY doc_id ORDER BY cnt DESC, first_ord ASC
               ) AS rnk
        FROM bcounts
    ), byc AS (
        SELECT doc_id, SUM(cnt) AS s FROM branked WHERE rnk <= 3 GROUP BY doc_id
    )
    SELECT d.doc_id,
           CAST(COALESCE(tgt.s, 0) AS INTEGER) AS matching_terms,
           CAST(COALESCE(byc.s, 0) AS INTEGER) AS bycatch_terms,
           CAST(len({_SQL_TOKENS}) AS INTEGER) AS total_word_count,
           CASE WHEN len({_SQL_TOKENS}) <= 0 THEN 0.0
                ELSE GREATEST(0.0, LEAST(1.0,
                    (COALESCE(tgt.s, 0) * 1.0
                     + COALESCE(byc.s, 0) * -0.25
                     + (len({_SQL_TOKENS}) - COALESCE(tgt.s, 0) - COALESCE(byc.s, 0)) * 0.5
                    ) / len({_SQL_TOKENS})))
           END AS wordscore
    FROM {table} d
    LEFT JOIN tgt ON d.doc_id = tgt.doc_id
    LEFT JOIN byc ON d.doc_id = byc.doc_id
    """


_WORDSCORE_SQL = _wordscore_sql(
    sql_in_list(TARGET_WORDS), sql_in_list(BYCATCH_WORDS)
)


@register("doc_wordscore", oracle=_WORDSCORE_SQL)
def doc_wordscore(sf_dir: str):
    """M1 text path: the flagship fused DocAnalyzer stage (fastscore mode)."""
    from sciscraper_ray.pipelines.flagship import wordscore_pipeline

    ds = wordscore_pipeline(f"{sf_dir}/documents.parquet")
    return ds.select_columns(
        ["doc_id", "matching_terms", "bycatch_terms", "total_word_count", "wordscore"]
    )


def _ref_word_sets() -> tuple[frozenset, frozenset, list]:
    """The reference's PRODUCTION vocabulary (360 target + 120 bycatch
    words, REFERENCE_ROOT/words/*.txt loaded with the reference's
    strip().lower() semantics — docscraper.py:110-127) plus a deterministic
    mapping vocabulary: every single-token word from both sets and 120
    non-matching fillers. Multi-word entries stay in the SETS (they can
    never match a single token — reference-identical) but are excluded
    from the mapping vocabulary so re-tokenization stays aligned."""
    from sciscraper_ray.words import load_word_file

    tgt = load_word_file(str(REFERENCE_ROOT / "words" / "target_words.txt"))
    byc = load_word_file(str(REFERENCE_ROOT / "words" / "bycatch_words.txt"))
    vocab = sorted(w for w in (tgt | byc) if w and " " not in w)
    vocab += [f"filler{i}" for i in range(120)]
    return tgt, byc, vocab


def _refwords_oracle() -> str:
    tgt, byc, vocab = _ref_word_sets()
    n = len(vocab)
    arr = "[" + ", ".join(f"'{w}'" for w in vocab) + "]"
    pick = f"({arr})[(length(t)*31 + ascii(t)) % {n} + 1]"
    mapped = f"""mapped AS (
        SELECT doc_id,
               array_to_string(
                   list_transform({_SQL_TOKENS}, t -> {pick}), ' '
               ) AS text
        FROM documents
    ),"""
    body = _wordscore_sql(sql_in_list(tgt), sql_in_list(byc), table="mapped")
    return body.replace("WITH toks AS", f"WITH {mapped}\n    toks AS", 1)


def doc_wordscore_refwords(sf_dir: str):
    """M4/M5 parity on the reference's PRODUCTION word lists (north-star
    "against its pytest fixtures" closure): document tokens are mapped
    deterministically into the reference vocabulary (same formula mirrored
    in the oracle SQL), then the ordinary DocAnalyzer runs with the real
    360/120-word sets loaded via load_word_file."""
    from sciscraper_ray.stages.doc_analyzer import DocAnalyzer
    from sciscraper_ray.kernels.tokenize import format_manuscript

    tgt, byc, vocab = _ref_word_sets()
    n = len(vocab)

    def remap(batch: pa.Table) -> pa.Table:
        texts = []
        for t in batch["text"].to_pylist():
            if t is None:  # propagate null (never crash the task)
                texts.append(None)
                continue
            toks = format_manuscript(t)
            texts.append(
                " ".join(
                    vocab[(len(tok) * 31 + (ord(tok[0]) if tok else 0)) % n]
                    for tok in toks
                )
            )
        return pa.table(
            {"doc_id": batch["doc_id"], "text": pa.array(texts, pa.string())}
        )

    ds = _docs(sf_dir).map_batches(remap, batch_format="pyarrow")
    out = ds.map_batches(
        DocAnalyzer,
        fn_constructor_kwargs={
            "target_words": tgt,
            "bycatch_words": byc,
            "with_parentheticals": False,
        },
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    return out.select_columns(
        ["doc_id", "matching_terms", "bycatch_terms", "total_word_count", "wordscore"]
    )


# The oracle embeds the reference word lists, so the query exists only where
# the reference checkout does.
if (REFERENCE_ROOT / "words").is_dir():
    register("doc_wordscore_refwords", oracle=_refwords_oracle())(
        doc_wordscore_refwords
    )
else:
    NOT_RUN["doc_wordscore_refwords"] = f"reference absent ({REFERENCE_ROOT})"


def _top3_exploded(sf_dir: str, word_set: frozenset[str]):
    """M4 as an exploded relation: (doc_id, token, cnt, rnk), rnk<=3."""
    from sciscraper_ray.kernels.terms import top_terms_exploded
    from sciscraper_ray.kernels.tokenize import tokenize_column

    def explode(batch: pa.Table) -> pa.Table:
        tokens = tokenize_column(batch["text"]).combine_chunks()
        out = top_terms_exploded(tokens, word_set)
        doc_ids = batch["doc_id"].take(pa.array(out["parent"], type=pa.int64()))
        return pa.table(
            {
                "doc_id": doc_ids,
                "token": pa.array(out["token"], type=pa.string()),
                "cnt": pa.array(out["count"], type=pa.int64()),
                "rnk": pa.array(out["rank"], type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(explode, batch_format="pyarrow")


@register(
    "doc_top3_target",
    oracle=f"""
    {_sql_ranked(sql_in_list(TARGET_WORDS))}
    SELECT doc_id, token, cnt, rnk FROM ranked WHERE rnk <= 3
    """,
)
def doc_top3_target(sf_dir: str):
    return _top3_exploded(sf_dir, TARGET_WORDS)


@register(
    "doc_top3_bycatch",
    oracle=f"""
    {_sql_ranked(sql_in_list(BYCATCH_WORDS))}
    SELECT doc_id, token, cnt, rnk FROM ranked WHERE rnk <= 3
    """,
)
def doc_top3_bycatch(sf_dir: str):
    return _top3_exploded(sf_dir, BYCATCH_WORDS)


# --------------------------------------------------------------------------
# Identifier mining (M7-M13). The synthetic documents table carries no
# DOIs, so both sides append a deterministic identifier suffix to some rows
# (keyed on doc_id); the oracle states the expected canonical form directly.
# --------------------------------------------------------------------------

_IDENT_SUFFIX_SQL = """
    CASE WHEN doc_id % 3 = 0
             THEN text || ' doi:10.' || (1000 + doc_id % 9000) || '/ax.' || doc_id
         WHEN doc_id % 3 = 1
             THEN text || ' see arxiv:2345.' || (20000 + doc_id) || 'v2'
         ELSE text
    END
"""
# NOTE: the arXiv id must sit at end-of-text — the reference's ARXIV_REGEX
# canonicalizer is $-anchored (doi_regex.py:36-44), so "arxiv:1234.5678 more
# words" standardizes to None. That quirk is part of the pinned contract.


def _ident_suffix_ray(batch: pa.Table) -> pa.Table:
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
    text = batch["text"].to_pylist()
    mod = doc_id % 3
    out = np.empty(len(text), dtype=object)
    for i, t in enumerate(text):
        if mod[i] == 0:
            out[i] = f"{t} doi:10.{1000 + doc_id[i] % 9000}/ax.{doc_id[i]}"
        elif mod[i] == 1:
            out[i] = f"{t} see arxiv:2345.{20000 + doc_id[i]}v2"
        else:
            out[i] = t
    return pa.table({"doc_id": batch["doc_id"], "text": pa.array(out, type=pa.string())})


@register(
    "doc_identifiers",
    oracle="""
    SELECT doc_id,
           CASE WHEN doc_id % 3 = 0
                    THEN '10.' || (1000 + doc_id % 9000) || '/ax.' || doc_id
                WHEN doc_id % 3 = 1 THEN '2345.' || (20000 + doc_id)
           END AS identifier,
           CASE WHEN doc_id % 3 = 0 THEN 'doi'
                WHEN doc_id % 3 = 1 THEN 'arxiv'
           END AS identifier_type
    FROM documents
    """,
)
def doc_identifiers(sf_dir: str):
    """M13 extract+standardize over the full pattern chains."""
    from sciscraper_ray.kernels.identifiers import extract_identifiers_array

    def extract(batch: pa.Table) -> pa.Table:
        batch = _ident_suffix_ray(batch)
        ids, kinds = extract_identifiers_array(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "identifier": pa.array(ids, type=pa.string()),
                "identifier_type": pa.array(kinds, type=pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(extract, batch_format="pyarrow")


@register(
    "doc_parentheticals",
    oracle="""
    SELECT doc_id,
           '(p = .0' || (doc_id % 9) || ', n = ' || (10 + doc_id % 90) || ')' AS stat
    FROM documents WHERE doc_id % 4 = 0
    """,
)
def doc_parentheticals(sf_dir: str):
    """M6: greedy parenthetical-statistic findall, exploded to rows."""
    from sciscraper_ray.kernels.parentheticals import PAPER_STATISTIC

    def extract(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        text = batch["text"].to_pylist()
        out_ids: list[int] = []
        out_stats: list[str] = []
        for i, t in enumerate(text):
            if doc_id[i] % 4 == 0:
                t = f"{t} (p = .0{doc_id[i] % 9}, n = {10 + doc_id[i] % 90})"
            for m in PAPER_STATISTIC.findall(t):
                out_ids.append(int(doc_id[i]))
                out_stats.append(m)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "stat": pa.array(out_stats, type=pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(extract, batch_format="pyarrow")




# ---------------------------------------------------------------------------
# Information-extraction normalizers: quantities with units and dates in
# heterogeneous formats, both normalized by parsing the RAW strings (the
# engine never sees the synthesis arithmetic).

_UNIT_SI = {"kg": ("g", 1000), "cm": ("mm", 10), "MB": ("KB", 1024)}

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


@register(
    "doc_measurements_extract",
    oracle="""
    WITH m(ord, unit_raw, unit_si, mult, base, modulo) AS (
        VALUES (0, 'kg', 'g', 1000, 1, 90),
               (1, 'cm', 'mm', 10, 1, 50),
               (2, 'MB', 'KB', 1024, 1, 30)
    )
    SELECT d.doc_id, CAST(m.ord AS BIGINT) AS ord,
           CAST(m.base + d.doc_id % m.modulo AS BIGINT) AS value_raw,
           m.unit_raw,
           CAST((m.base + d.doc_id % m.modulo) * m.mult AS BIGINT)
               AS value_si,
           m.unit_si
    FROM documents d CROSS JOIN m
    """,
)
def doc_measurements_extract(sf_dir: str):
    """Quantity/unit extraction with SI normalization — the measurement
    miner a scientific-corpus pipeline runs over extracted text. Each
    doc's text carries three planted measurements (kg/cm/MB with
    doc-varying integer values inside prose); ONE compiled regex pass per
    batch finds every number-unit pair in document order and a constant
    unit table normalizes (kg->g x1000, cm->mm x10, MB->KB x1024,
    integer-exact). The engine parses raw strings only. Fused map stage,
    zero exchange."""
    import re as _re

    pat = _re.compile(r"(\d+) (kg|cm|MB)\b")

    def run(b: pa.Table) -> pa.Table:
        ids_, or_, vr_, ur_, vs_, us_ = [], [], [], [], [], []
        for did, text in zip(
            b["doc_id"].to_numpy(zero_copy_only=False),
            b["text"].to_pylist(),
        ):
            i = int(did)
            prose = (
                f"{text} Sample weighs {1 + i % 90} kg and spans "
                f"{1 + i % 50} cm; buffer holds {1 + i % 30} MB."
            )
            for ord_, m in enumerate(pat.finditer(prose)):
                v = int(m.group(1))
                unit = m.group(2)
                si_unit, mult = _UNIT_SI[unit]
                ids_.append(i)
                or_.append(ord_)
                vr_.append(v)
                ur_.append(unit)
                vs_.append(v * mult)
                us_.append(si_unit)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "ord": pa.array(or_, pa.int64()),
                "value_raw": pa.array(vr_, pa.int64()),
                "unit_raw": pa.array(ur_, pa.string()),
                "value_si": pa.array(vs_, pa.int64()),
                "unit_si": pa.array(us_, pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


@register(
    "doc_dates_normalize",
    oracle=f"""
    WITH base AS (
        SELECT doc_id, 1 + doc_id % 12 AS m, 1 + doc_id % 28 AS d
        FROM documents
    )
    SELECT doc_id,
           CASE doc_id % 3
               WHEN 0 THEN '2021-' || lpad(CAST(m AS VARCHAR), 2, '0')
                           || '-' || lpad(CAST(d AS VARCHAR), 2, '0')
               WHEN 1 THEN (
                   [{", ".join(repr(mn) for mn in _MONTHS)}][m]
               ) || ' ' || d || ', 2021'
               ELSE lpad(CAST(d AS VARCHAR), 2, '0') || '/'
                    || lpad(CAST(m AS VARCHAR), 2, '0') || '/2021'
           END AS raw_date,
           '2021-' || lpad(CAST(m AS VARCHAR), 2, '0') || '-'
                   || lpad(CAST(d AS VARCHAR), 2, '0') AS iso_date,
           CASE doc_id % 3 WHEN 0 THEN 'iso' WHEN 1 THEN 'long'
                ELSE 'euro' END AS fmt
    FROM base
    """,
)
def doc_dates_normalize(sf_dir: str):
    """Date normalization across the three formats a scholarly crawl
    actually serves (ISO, 'March 5, 2021' long form, day-first
    '05/03/2021' European): a compiled pattern table classifies and
    parses the RAW string (month-name lookup for the long form; the
    euro form pins day-first disambiguation) and every row re-emits as
    ISO. The oracle rebuilds each surface form and the ISO target from
    the planted (month, day) arithmetic. Fused map stage, zero
    exchange."""
    import re as _re

    iso_re = _re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
    long_re = _re.compile(r"^([A-Z][a-z]+) (\d{1,2}), (\d{4})$")
    euro_re = _re.compile(r"^(\d{2})/(\d{2})/(\d{4})$")
    month_no = {mn: k + 1 for k, mn in enumerate(_MONTHS)}

    def run(b: pa.Table) -> pa.Table:
        ids_, rd_, io_, fm_ = [], [], [], []
        for did in b["doc_id"].to_numpy(zero_copy_only=False):
            i = int(did)
            m, d = 1 + i % 12, 1 + i % 28
            case = i % 3
            if case == 0:
                raw = f"2021-{m:02d}-{d:02d}"
            elif case == 1:
                raw = f"{_MONTHS[m - 1]} {d}, 2021"
            else:
                raw = f"{d:02d}/{m:02d}/2021"
            # --- engine side: classify + parse the raw string only ---
            if g := iso_re.match(raw):
                y, mm, dd = int(g.group(1)), int(g.group(2)), int(g.group(3))
                fmt = "iso"
            elif g := long_re.match(raw):
                y, mm, dd = (
                    int(g.group(3)), month_no[g.group(1)], int(g.group(2))
                )
                fmt = "long"
            elif g := euro_re.match(raw):
                y, mm, dd = int(g.group(3)), int(g.group(2)), int(g.group(1))
                fmt = "euro"
            else:
                continue
            ids_.append(i)
            rd_.append(raw)
            io_.append(f"{y:04d}-{mm:02d}-{dd:02d}")
            fm_.append(fmt)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "raw_date": pa.array(rd_, pa.string()),
                "iso_date": pa.array(io_, pa.string()),
                "fmt": pa.array(fm_, pa.string()),
            }
        )

    return _docs(sf_dir, columns=("doc_id",)).map_batches(
        run, batch_format="pyarrow"
    )


@register(
    "doc_dehyphenate",
    oracle="""
    SELECT doc_id, text AS repaired_text,
           CAST(CASE WHEN len(toks) > (doc_id % 10)
                     AND length(toks[(doc_id % 10) + 1]) > 4
                THEN 1 ELSE 0 END AS BIGINT) AS n_repairs
    FROM (
        SELECT doc_id, text, string_split(text, ' ') AS toks FROM documents
    )
    """,
)
def doc_dehyphenate(sf_dir: str):
    """Line-break hyphenation repair — the PDF-extraction post-processor
    that rejoins words split at line ends ('exam- ple' -> 'example').
    The fixture breaks word #(doc_id%10) of each doc (when longer than 4
    chars) into 'pre- rest'; one vectorized replace_substring_regex pass
    repairs every break and the output must be byte-identical to the
    original text, with the repair count emitted (repairs counted BEFORE
    the rewrite from the same compiled pattern). The corpus is verified
    hyphen-free, so a false-positive join is impossible by construction
    and the oracle is the identity. Zero exchange."""

    def run(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        broken = []
        for i, text in zip(ids, b["text"].to_pylist()):
            i = int(i)
            words = text.split(" ")
            k = i % 10
            if k < len(words) and len(words[k]) > 4:
                w = words[k]
                words[k] = w[:3] + "- " + w[3:]
            broken.append(" ".join(words))
        arr = pa.array(broken, pa.string())
        pat = r"([A-Za-z])- ([A-Za-z])"
        n_repairs = pc.cast(pc.count_substring_regex(arr, pat), pa.int64())
        repaired = pc.replace_substring_regex(arr, pat, r"\1\2")
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64)),
                "repaired_text": repaired,
                "n_repairs": n_repairs,
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


_PHRASE = "zeta quark flux"


@register(
    "retrieval_phrase_search",
    oracle=f"""
    WITH t AS (
        SELECT doc_id,
               ' ' || text || CASE
                   WHEN doc_id % 12 = 0
                       THEN ' {_PHRASE} also {_PHRASE}'
                   WHEN doc_id % 6 = 0 THEN ' {_PHRASE}'
                   ELSE ''
               END || ' ' AS padded
        FROM documents
    )
    SELECT doc_id,
           CAST((length(padded) - length(replace(padded, ' {_PHRASE} ', '')))
               // length(' {_PHRASE} ') AS BIGINT) AS n_occurrences
    FROM t
    WHERE padded LIKE '% {_PHRASE} %'
    """,
)
def retrieval_phrase_search(sf_dir: str):
    """Exact phrase search (the positional-index intersection, expressed
    as its substring equivalent over the single-space token stream:
    ' w1 w2 w3 ' inside ' '||text||' ' holds iff the three tokens are
    adjacent — token boundaries are exactly the spaces, so no partial-
    word false positives). %6 docs carry one planted occurrence, %12
    docs two non-adjacent ones; emitted rows are the matching docs with
    their non-overlapping occurrence counts. One vectorized
    count_substring pass, zero exchange — the same scan shape BM25's
    candidate pass uses."""

    def run(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        texts = []
        for i, text in zip(ids, b["text"].to_pylist()):
            i = int(i)
            if i % 12 == 0:
                tail = f" {_PHRASE} also {_PHRASE}"
            elif i % 6 == 0:
                tail = f" {_PHRASE}"
            else:
                tail = ""
            texts.append(f" {text}{tail} ")
        arr = pa.array(texts, pa.string())
        cnt = pc.cast(
            pc.count_substring(arr, f" {_PHRASE} "), pa.int64()
        )
        keep = pc.greater(cnt, 0)
        t = pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64)),
                "n_occurrences": cnt,
            }
        )
        return t.filter(keep)

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


# Border-free literals (no proper prefix equals a suffix), so occurrences
# can never overlap themselves and the overlap-counting scan below agrees
# exactly with the oracle's non-overlapping replace() arithmetic.
_SCAN_LITERALS = ("data", "model", "tion", "stream", "batch", "index")

_SCAN_VALUES = ", ".join(f"('{p}')" for p in _SCAN_LITERALS)


@register(
    "doc_literal_scan",
    oracle=f"""
    WITH pats AS (SELECT * FROM (VALUES {_SCAN_VALUES}) AS t(pattern))
    SELECT d.doc_id, p.pattern,
           CAST((length(d.text) - length(replace(d.text, p.pattern, '')))
                / length(p.pattern) AS BIGINT) AS cnt
    FROM documents d CROSS JOIN pats p
    """,
)
def doc_literal_scan(sf_dir: str):
    """Multi-literal keyword spotting over raw text — substring counts
    (crossing token boundaries, e.g. 'tion' inside words), the primitive
    behind lexicon hit-rate filters and contamination canaries. Fully
    vectorized: each batch's texts are concatenated into one uint8 byte
    buffer with a NUL fence between docs, one stride-tricks
    sliding_window_view comparison per literal finds every occurrence in
    O(len * pat) numpy, and hit positions map back to documents with a
    single searchsorted against the doc-offset array — no per-row Python.
    ASCII literals cannot match inside UTF-8 multibyte sequences
    (continuation bytes are >= 0x80), so byte counts equal character
    counts. The dense doc x literal grid (zeros included) comes from one
    bincount per literal. Literals are border-free by construction, so
    the overlap-free count the scan produces equals the oracle's
    left-to-right replace() count."""

    def scan(batch: pa.Table) -> pa.Table:
        texts = [t if t is not None else "" for t in batch["text"].to_pylist()]
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(texts)
        bufs = [t.encode() for t in texts]
        lens = np.fromiter((len(b) for b in bufs), np.int64, n)
        # fence byte between docs so no window spans two documents
        big = np.zeros(int(lens.sum()) + n, np.uint8)
        starts = np.zeros(n, np.int64)
        pos = 0
        for i, b in enumerate(bufs):
            starts[i] = pos
            big[pos : pos + len(b)] = np.frombuffer(b, np.uint8)
            pos += len(b) + 1
        out_id, out_pat, out_cnt = [], [], []
        for pat in _SCAN_LITERALS:
            pb = np.frombuffer(pat.encode(), np.uint8)
            w = len(pb)
            if len(big) >= w:
                wins = np.lib.stride_tricks.sliding_window_view(big, w)
                hit_pos = np.flatnonzero((wins == pb).all(axis=1))
            else:
                hit_pos = np.array([], np.int64)
            owner = np.searchsorted(starts, hit_pos, side="right") - 1
            cnt = np.bincount(owner, minlength=n).astype(np.int64)
            out_id.append(ids.astype(np.int64))
            out_pat.extend([pat] * n)
            out_cnt.append(cnt)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_id), pa.int64()),
                "pattern": pa.array(out_pat, pa.string()),
                "cnt": pa.array(np.concatenate(out_cnt), pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(scan, batch_format="pyarrow")
