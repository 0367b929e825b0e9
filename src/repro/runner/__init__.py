"""repro.runner: parallel experiment execution with a result cache.

The measurement grids behind Figs. 5-10 are embarrassingly parallel —
every cell is one independent simulation on its own clock.  This package
is the backbone that exploits that:

* :class:`CellSpec` / :class:`ExperimentSpec` — picklable,
  content-addressed descriptions of one simulation / one batch;
* :class:`ResultCache` — on-disk result store keyed by content hash
  (one WAL-mode sqlite file under the cache root), so a re-run only
  simulates changed cells;
* :class:`PoolRunner` — process-pool execution with per-cell timeouts,
  bounded retries, and graceful serial fallback.  Parallel results are
  byte-identical to serial ones (pinned by
  tests/test_runner_determinism.py).

Quickstart::

    from repro import WORDCOUNT, table1_architectures
    from repro.analysis.sweep import sweep_architectures
    from repro.runner import PoolRunner, ResultCache

    runner = PoolRunner(max_workers=4, cache=ResultCache())
    grid = sweep_architectures(
        table1_architectures().values(), WORDCOUNT,
        ["1GB", "8GB", "64GB"], runner=runner,
    )
    print(runner.last_stats.describe())

See docs/RUNNER.md for the cache layout and invalidation rules.
"""

from repro.runner.cache import (
    CacheInfo,
    CacheStats,
    DEFAULT_CACHE_DIR,
    SQLITE_STORE_NAME,
    ResultCache,
    default_cache_root,
)
from repro.runner.pool import CellOutcome, PoolRunner, RunStats, raise_on_failure
from repro.runner.store import (
    SqliteResultCache,
    migrate_json_tree,
    open_result_store,
    store_report,
)
from repro.runner.spec import (
    CACHE_SCHEMA,
    CODE_SALT,
    CellSpec,
    ExperimentSpec,
    canonical_json,
    isolated_cell,
    replay_cell,
    sweep_experiment,
)
from repro.runner.work import (
    cell_job_id,
    decode_profile,
    decode_replay_results,
    decode_result,
    execute_cell,
    execute_replay_observed,
)

__all__ = [
    "CACHE_SCHEMA",
    "CODE_SALT",
    "CacheInfo",
    "CacheStats",
    "CellOutcome",
    "CellSpec",
    "DEFAULT_CACHE_DIR",
    "ExperimentSpec",
    "PoolRunner",
    "ResultCache",
    "RunStats",
    "SQLITE_STORE_NAME",
    "SqliteResultCache",
    "canonical_json",
    "cell_job_id",
    "decode_profile",
    "decode_replay_results",
    "decode_result",
    "default_cache_root",
    "execute_cell",
    "execute_replay_observed",
    "isolated_cell",
    "migrate_json_tree",
    "open_result_store",
    "raise_on_failure",
    "replay_cell",
    "store_report",
    "sweep_experiment",
]
