"""Registry ordering: least-recently-driver-checked first.

The external driver samples a PREFIX of the registry (50 queries/round).
Rotating the never-yet-driver-checked queries to the front means each
round's CORRECTNESS_r{N}.json covers the operators with the weakest
external evidence (VERDICT r3 item 1: 46 queries had only local-sweep
evidence). tools/check_correctness.py runs the FULL registry regardless
of order and is the pre-commit gate; CORRECTNESS_full_r4.json is the
committed all-green local sweep.
"""

from __future__ import annotations

from sciscraper_ray.pipelines.queries._shared import ORACLE, QUERIES

# Union of CORRECTNESS_r01/r02/r03 driver samples: every query some driver
# round has verified. The complement (everything newer or never sampled,
# including the round-4 additions media_png_features and
# page_validate_identifiers) goes to the front of the registry.
# Round-4 driver sample (CORRECTNESS_r04.json): all 50 green.
_DRIVER_CHECKED_R4 = (
    "ann_ivf", "doc_ngram_novelty", "orders_by_region", "events_debounce",
    "events_user_mode", "graph_pagerank", "doc_dup_substrings",
    "dedup_editdistance", "dedup_ngram_jaccard", "doc_segment_dedup",
    "cdc_merge", "zonemap_scan", "events_user_overlap", "events_k_anonymity",
    "embedding_dim_stats", "doc_token_entropy", "source_kl_divergence",
    "media_avi_frames", "events_ab_welch", "token_window_cooc",
    "events_attribution_first_touch", "source_dup_rate", "graph_ppr",
    "doc_snippets", "events_user_activity_fullouter", "events_gap_stats",
    "corpus_heaps_law", "orders_q3_priority", "lineitem_weighted_median",
    "events_markov_stationary", "events_time_to_convert",
    "doc_lang_confusion", "token_prefix_autocomplete",
    "lineitem_price_qty_corr", "media_png_features", "media_wav_features",
    "media_jpeg_features", "media_mp4_metadata", "media_gif_features",
    "page_validate_identifiers", "pdf_reading_order_extract",
    "page_extract_damage_matrix", "warc_revisit_dedup",
    "dedup_minhash_jaccard_audit", "graph_random_walks",
    "orders_key_islands", "bloom_fpr_audit", "warc_gzip_member_split",
    "csv_quoted_roundtrip", "events_sliding_velocity",
)

_DRIVER_CHECKED_R123 = (
    # r01 sample
    "doc_tokenize", "doc_wordscore", "doc_wordscore_refwords",
    "doc_top3_target", "doc_top3_bycatch", "doc_identifiers",
    "doc_parentheticals", "lineitem_pricing", "orders_by_region",
    "top_tokens_global", "source_token_tally", "enrich_wordscore",
    "enrich_ratelimited", "citation_tally", "citations_enriched",
    "link_routing", "host_tally_salted", "events_hourly",
    "events_keep_latest", "events_json_props", "doc_split_assign",
    "doc_chunks", "training_prep", "doc_tfidf_topk", "doc_decontaminate",
    "doc_pii_scrub", "events_sessionize", "hll_distinct_users",
    "events_asof_join", "events_range_join", "dedup_exact",
    "dedup_minhash", "dedup_simhash", "dedup_ngram_jaccard",
    "dedup_components", "dedup_cluster_survivors", "dedup_embedding",
    "knn_cosine", "ann_ivf", "ann_srp_bucketed", "doc_lang_id",
    "doc_quality", "doc_bpe_tokens", "doc_fingerprint", "doc_winnow",
    "media_image_features", "media_audio_frames", "media_video_frames",
    "nested_unwrap", "schema_cast",
    # r03 sample (the round-3 additions + the mid-batch it reached)
    "token_type_stats", "doc_ngram_novelty", "graph_hits",
    "events_type_transitions", "token_zipf_slope",
    "crawl_depth_from_seeds", "link_indegree_histogram",
    "token_pmi_collocations", "doc_lang_mismatch", "redirect_resolve",
    "dedup_teaser_prefix", "host_topk_docs", "page_meta_extract",
    "doc_length_median_by_lang", "crawl_schedule_waves",
    "host_triangle_count", "top_tokens_by_lang", "doc_boilerplate_strip",
    "page_link_graph", "page_anchor_texts", "doc_boolean_retrieval",
    "doc_iqr_filter", "page_charset_decode", "sitemap_roundtrip",
    "scholar_paginate", "doc_bm25_topk", "doc_lr_score",
    "token_inverted_index", "warc_roundtrip", "url_robots_filter",
    "token_pair_counts", "doc_mixture_quota", "doc_unigram_freq_score",
    "events_latest_k", "resumable_extract", "dom_extract",
    "terms_from_txt", "extract_spans", "terms_from_csv", "html_extract",
    "pdf_extract", "page_extract_identifiers",
    "page_extract_identifiers_metadata", "page_extract_pipeline",
    "lineitem_quantiles", "doc_repetition", "orders_anti_join",
    "token_bigram_next", "doc_sample_stratified", "order_lineitem_join",
)


# Must-recheck head of the sample window: the queries VERDICT r3 calls out
# by name (ann_ivf has never shown the driver a green row; doc_ngram_novelty,
# orders_by_region, events_debounce and events_user_mode changed physical
# plans in round 4; the rest are the "never oracle-checked" set the verdict
# lists), plus the round-4 late additions. The never-checked remainder
# follows in registration order; everything driver-green in r1-r3 sits
# behind. The front group (70 never-checked) exceeds the 50-query sample,
# so this tier decides WHICH never-checked queries get external evidence
# this round — all 170 are green in the committed local full sweep.
_PRIORITY = (
    # Round-5 must-recheck head: every query whose PHYSICAL PLAN changed
    # this round (two-plan guards via resolve_plan/driver_frame,
    # distributed reciprocity/rich-club/survival folds — VERDICT r4
    # item 1 and ADVICE r4), the consumers of the vectorized token-hash
    # kernel (VERDICT r4 item 3 — same 128-bit contract, new hash
    # values) and the one oracle-touched query (Holt seed guard). All
    # are green in the committed CORRECTNESS_full_r5.json; this head
    # hands them the external driver-sample slots. Every name here must
    # be registered (tests/test_oracle_parity.py checks it).
    "events_dau_stickiness", "token_zipf_slope", "events_survival_km",
    "link_reciprocity", "graph_rich_club", "graph_bipartite_projection",
    "orders_pareto_cutoff", "table_constraint_audit", "events_retention",
    "host_crawl_fairness", "host_budget_waterfill", "host_template_lcp",
    "token_kn_continuation", "token_bigram_next", "token_type_stats",
    "token_pmi_collocations", "orders_anti_join", "knn_label_classify",
    "embedding_power_iteration", "token_dice_collocations",
    "token_stem_conflate", "source_chao1_richness", "token_textrank",
    "token_llr_keyness", "token_yule_k", "source_js_divergence",
    "token_symspell_neighbors", "token_subsample_mikolov",
    "source_burrows_delta", "join_size_cms_estimate",
    "dedup_minhash", "dedup_cascade", "dedup_incremental_ingest",
    "events_holt_linear",
    # previously-prioritized still-relevant recheck tail (plan unchanged
    # but newest external evidence): fills the remaining sample slots
    "events_topk_users", "bloom_semijoin",
    "lineitem_simpson_audit", "events_changepoint", "doc_filter_chain",
    "dedup_semantic", "embedding_pq_encode", "ann_ivf_pq", "events_scd2",
    "lr_train_gd", "doc_bigram_lm_ppl", "doc_dsir_weight",
    "doc_shuffle_deterministic",
)


def _rotate_registry() -> None:
    """Rebuild both registries: must-recheck tier first, then the rest of
    the never-driver-checked set (registration order), driver-checked
    behind (registration order)."""
    checked = set(_DRIVER_CHECKED_R123) | set(_DRIVER_CHECKED_R4)
    pri = {n: i for i, n in enumerate(_PRIORITY)}

    def reorder(d: dict) -> dict:
        head = sorted((n for n in d if n in pri), key=pri.__getitem__)
        front = [n for n in d if n not in checked and n not in pri]
        back = [n for n in d if n in checked and n not in pri]
        return {n: d[n] for n in head + front + back}

    qs = reorder(QUERIES)
    QUERIES.clear()
    QUERIES.update(qs)
    osq = reorder(ORACLE)
    ORACLE.clear()
    ORACLE.update(osq)


_rotate_registry()
