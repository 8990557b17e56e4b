"""CLI driver — the D5/D6 analog (/root/reference/src/factories.py:26-125,
main.py:20-49, argsbuilder.py:19-76): named pipeline modes over parquet
inputs, exported through the CSV-parity sink.

Run locally or via ``ray job submit -- python -m sciscraper_ray.cli ...``:

    python -m sciscraper_ray.cli -m wordscore -f /root/testdata/sf0.001/documents.parquet -e /tmp/out
    python -m sciscraper_ray.cli -m extract   -f <pages.parquet|dir>       -e /tmp/out
    python -m sciscraper_ray.cli -m resume    -f <pages dir> -e /tmp/out
    python -m sciscraper_ray.cli -m query:top_tokens_global -f /root/testdata/sf0.001 -e /tmp/out

MODES is the user-extension registry (the SCISCRAPERS dict analog): name ->
builder(input_path) -> Dataset. This module owns the Ray session when run
standalone (guarded init; the external driver initialises Ray itself).
"""

from __future__ import annotations

import argparse
import datetime
import logging
import os
from collections.abc import Callable

import ray
import ray.data

log = logging.getLogger("sciscraper_ray")


def _wordscore(path: str) -> ray.data.Dataset:
    from sciscraper_ray.pipelines.flagship import wordscore_pipeline

    return wordscore_pipeline(path)


def _extract(path: str) -> ray.data.Dataset:
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    return extraction_pipeline(path)


def _extract_only(path: str) -> ray.data.Dataset:
    from sciscraper_ray.pipelines.extract import extraction_pipeline

    return extraction_pipeline(path, analyze=False)


def _query_mode(name: str) -> Callable[[str], "ray.data.Dataset"]:
    """Named-pipeline mode backed by a registered query; the input path is
    the table directory (sf-dir layout) the query family reads."""

    def build(path: str):
        from sciscraper_ray.pipelines.queries import QUERIES

        return QUERIES[name](path)

    return build


# The SCISCRAPERS registry analog (factories.py:26-103): every reference
# named pipeline has a mode here — directory/wordscore/citations/download/
# fastscore/google — plus the engine's own extract/resume/query:*. The
# reference's 'images' mode fetches figure files over the network; offline,
# 'download' (the same filename rule, downloaders.py:346-366) serves it.
MODES: dict[str, Callable[[str], ray.data.Dataset]] = {
    "wordscore": _wordscore,   # EP2 analog: text rows -> DocAnalyzer
    "extract": _extract,       # EP1 analog: page table -> dedup/route/extract/analyze
    "extract-only": _extract_only,
    "fastscore": _wordscore,   # reference alias (factories.py:101)
    "directory": _extract,     # reference 'directory' mode: the PDF-dir walk
                               # is the page table's binary column (SURVEY S3)
    "citations": _query_mode("citations_enriched"),  # EP3: explode + enrich
    "google": _query_mode("dom_extract"),            # scholar-HTML DOM extraction
    # 'download' is handled in main(): it needs the export dir (binary
    # artifact sink, downloaders.py:91-117 analog).
}
MODE_CHOICES = sorted(MODES) + ["resume", "download"]


def read_mode(input_fn: Callable[[str], str] = input) -> str:
    """Interactive mode selection — the reference's prompt loop
    (factories.py:106-125 read_factory, argsbuilder.py:66-76 mode=None
    contract): prompt until the entry names a known mode; unknown entries
    log an error and re-prompt. ``input_fn`` is injectable for tests."""
    while True:
        mode = input_fn(
            f"Enter desired data scraping process ({', '.join(MODE_CHOICES)}): "
        ).strip()
        if mode in MODE_CHOICES or mode.startswith("query:"):
            return mode
        log.error("Unknown data scraping process option: %s.", mode)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sciscraper_ray",
        description="Ray-Data-native sciscraper engine",
    )
    p.add_argument("-m", "--mode", default=None,
                   help=f"one of {', '.join(MODE_CHOICES)}, or 'query:<name>'; "
                        "omitted -> interactive prompt (reference parity)")
    p.add_argument("-f", "--file", required=True, help="input parquet file/dir (or sf dir for query:)")
    p.add_argument("-e", "--export", required=True, help="export directory")
    p.add_argument("--date-stamp", default=None, help="YYMMDD run-dir stamp (default: today)")
    p.add_argument(
        "--wave-size", type=int, default=64,
        help="resume mode: fragments per wave. Re-running the same command "
             "resumes; after a killed run that started its own local Ray, "
             "run `ray stop` first (its agents outlive the kill)",
    )
    p.add_argument(
        "-p",
        "--profilers",
        default=None,
        choices=("benchmark", "memory", "bytecode"),
        help="profile the run (reference -p contract, profilers.py:37-109): "
        "benchmark = cProfile -> printed pstats + dumped .pstats file; "
        "memory = tracemalloc peak + top allocation sites (stdlib analog "
        "of the reference's memory_profiler, which needs no extra deps); "
        "bytecode = dis.dis of the selected pipeline builder (no run)",
    )
    p.add_argument("-d", "--debug", action="store_true")
    return p


def main(argv: list[str] | None = None) -> str:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.debug else logging.INFO)

    if args.mode is None:
        args.mode = read_mode()

    # resolve the mode before starting Ray: a bad one exits with usage
    builder = MODES.get(args.mode)
    if args.mode.startswith("query:"):
        from sciscraper_ray.pipelines.queries import QUERIES

        name = args.mode.split(":", 1)[1]
        if name not in QUERIES:
            parser.error(f"no registered query named {name!r}")
        builder = QUERIES[name]
    elif args.mode not in MODE_CHOICES:
        parser.error(
            f"unknown mode {args.mode!r}: choose from "
            f"{', '.join(MODE_CHOICES)}, or query:<name>"
        )

    if not ray.is_initialized():  # external drivers init Ray themselves
        # under `ray job submit` the ambient RAY_ADDRESS points at the
        # cluster; only a bare invocation starts a local instance
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
        )

    stamp = args.date_stamp or datetime.date.today().strftime("%y%m%d")

    if args.mode == "resume":
        from sciscraper_ray.pipelines.extract import extraction_pipeline
        from sciscraper_ray.state import run_resumable

        summary = run_resumable(
            args.file,
            args.export,
            lambda ds: extraction_pipeline(ds, dedup=False),
            wave_size=args.wave_size,
        )
        log.info("resume run: %s", summary)
        return args.export

    if args.mode == "download":
        # reference 'download' mode analog: persist payload rows as a
        # deterministically-named (filename, payload) artifact table
        from sciscraper_ray.pipelines.sink import write_artifacts

        ds = ray.data.read_parquet(args.file)
        out_dir = write_artifacts(ds, args.export, date_stamp=stamp)
        log.info("artifacts written to %s", out_dir)
        return out_dir

    def ensure_dataset(result) -> ray.data.Dataset:
        if isinstance(result, ray.data.Dataset):
            return result
        import pyarrow as pa

        table = (
            pa.Table.from_pandas(result)
            if not isinstance(result, pa.Table)
            else result
        )
        return ray.data.from_arrow(table)

    if args.profilers == "bytecode":
        # run_bytecode_profiler analog (profilers.py:81-92): disassemble
        # the selected pipeline builder; nothing executes.
        import dis

        dis.dis(builder)
        return args.export

    def run() -> str:
        ds = ensure_dataset(builder(args.file))
        from sciscraper_ray.pipelines.sink import export_results

        # The sink writes in one pass, but a column found empty everywhere
        # (extract-only over HTML pages: null meta_identifier) makes it
        # write the remaining columns again; materialize so that rewrite
        # does not execute the pipeline a second time. A materialized input
        # also gets one write task per CPU.
        run_dir = export_results(ds.materialize(), args.export, date_stamp=stamp)
        log.info("exported to %s", run_dir)
        return run_dir

    if args.profilers == "benchmark":
        # run_benchmark analog (profilers.py:37-71): cProfile the run,
        # print time-sorted stats, dump the .pstats artifact next to the
        # export (no snakeviz subprocess — offline environment).
        import cProfile
        import pstats

        os.makedirs(args.export, exist_ok=True)
        pstats_path = os.path.join(args.export, f"profile_{stamp}.pstats")
        with cProfile.Profile() as pr:
            run_dir = run()
        stats = pstats.Stats(pr)
        stats.sort_stats(pstats.SortKey.TIME)
        stats.print_stats(25)
        stats.dump_stats(pstats_path)
        log.info("profile stats dumped to %s", pstats_path)
        return run_dir

    if args.profilers == "memory":
        # run_memory_profiler analog (profilers.py:74-78): driver-side
        # allocation profile via stdlib tracemalloc (peak + top sites).
        # Worker-side memory is already covered by ds.stats() / lineage
        # metrics; this profiles the driver process like the reference.
        import tracemalloc

        tracemalloc.start(10)
        try:
            run_dir = run()
            _, peak = tracemalloc.get_traced_memory()
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        print(f"driver peak traced memory: {peak / 1024 / 1024:.4f} MiB")
        for stat in snap.statistics("lineno")[:10]:
            print(stat)
        return run_dir

    return run()


if __name__ == "__main__":
    main()
