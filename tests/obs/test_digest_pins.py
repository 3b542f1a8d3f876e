"""Pinned outputs of the metrics-dump digests and the panels built on them.

One hand-made fixture dump (labelled series, int and float values, a
non-numeric stray value) and one empty dump go through
``serve_summary``, ``decompose_summary`` and ``swp_summary`` and through
the dashboard's cache and SWP panels.  The digests are compared as JSON
text, so an int that turns into a float (``3`` vs ``3.0``) fails; the
panels are compared by sha256 of their HTML.
"""

import hashlib
import json

import pytest

from repro.obs import dashboard, insight

FIXTURE = {
    "counters": {
        'cache_hits_total{kind="exact"}': 7,
        'cache_hits_total{kind="family"}': 2.0,
        'cache_hits_total{kind="miss"}': 3,
        "coalesced_requests_total": 1,
        'cache_store_errors_total{op="get"}': 1.0,
        'cache_store_errors_total{op="put"}': 2,
        "cache_corrupt_entries_total": 1,
        "cache_evictions_total": 4.0,
        "serve_admission_timeouts_total": 2,
        'serve_shed_total{reason="busy"}': 3,
        "serve_drained_total": 1.0,
        "serve_accept_errors_total": "n/a",
        "decompose_partitions_total": 6,
        'partition_cache_hits_total{routine="a"}': 2,
        'partition_cache_hits_total{routine="b"}': 1.0,
        "partition_cache_misses_total": 3,
        'swp_loops_total{status="pipelined"}': 4,
        'swp_loops_total{status="fallback_swp"}': 1.0,
        'swp_loops_total{status="unpipelined"}': 2,
        "swp_ii_at_mii_total": 3,
        'swp_oracle_total{result="pass"}': 5,
        'swp_oracle_total{result="fail"}': 1.0,
        'swp_fallbacks_total{reason="not_counted"}': 2,
        "swp_cache_hits_total": 1,
        "swp_cache_misses_total": 3.0,
        # Prefix lookalikes must not be summed.
        "cache_evictions_totalx": 99,
        "swp_cache_hits_total_old": 99,
    },
    "gauges": {
        "cache_size_bytes": 4096,
        'serve_conn_queue_depth{worker="0"}': 2.0,
        "serve_inflight": 1,
    },
    "histograms": {
        'partition_solve_seconds{kind="cold"}': {
            "sum": 2.5, "count": 4, "buckets": {"+Inf": 4},
        },
        'partition_solve_seconds{kind="warm"}': {
            "sum": 0.5, "count": 2, "buckets": {"+Inf": 2},
        },
        "swp_ii_over_mii": {"sum": 5.5, "count": 5, "buckets": {"+Inf": 5}},
    },
}

DIGESTS = {
    "fixture": {
        "serve": '{"accept_errors": 0, "admission_timeouts": 2, "coalesced": 1, "corrupt_entries": 1, "drained": 1.0, "evictions": 4.0, "hit_rate": 0.75, "hits": {"exact": 7, "family": 2.0, "miss": 3}, "inflight": 1, "queue_depth": 2.0, "requests": 12.0, "shed": 3, "size_bytes": 4096, "solves": 3, "store_errors": 3.0}',
        "decompose": '{"cache_hits": 3.0, "cache_misses": 3.0, "hit_rate": 0.5, "mean_solve_seconds": 0.5, "partitions": 6.0, "solve_seconds": 3.0, "solves": 6.0}',
        "swp": '{"by_status": {"fallback_swp": 1.0, "pipelined": 4, "unpipelined": 2}, "cache_hit_rate": 0.25, "cache_hits": 1.0, "cache_misses": 3.0, "fallbacks": {"not_counted": 2}, "ii_at_mii": 3.0, "ii_at_mii_rate": 0.6, "loops": 7.0, "mean_ii_over_mii": 1.1, "oracle": {"fail": 1.0, "pass": 5}, "pipelined": 5.0, "pipelined_rate": 0.7142857142857143}',
    },
    "empty": {
        "serve": '{"accept_errors": 0, "admission_timeouts": 0, "coalesced": 0, "corrupt_entries": 0, "drained": 0, "evictions": 0, "hit_rate": 0.0, "hits": {"exact": 0, "family": 0, "miss": 0}, "inflight": 0, "queue_depth": 0, "requests": 0, "shed": 0, "size_bytes": 0, "solves": 0, "store_errors": 0}',
        "decompose": '{"cache_hits": 0.0, "cache_misses": 0.0, "hit_rate": 0.0, "mean_solve_seconds": 0.0, "partitions": 0.0, "solve_seconds": 0.0, "solves": 0.0}',
        "swp": '{"by_status": {}, "cache_hit_rate": 0.0, "cache_hits": 0.0, "cache_misses": 0.0, "fallbacks": {}, "ii_at_mii": 0.0, "ii_at_mii_rate": 0.0, "loops": 0, "mean_ii_over_mii": 0.0, "oracle": {}, "pipelined": 0, "pipelined_rate": 0.0}',
    },
}

PANELS = {
    "fixture": {
        "cache": "e47422b86bad35f993c6da9e53eb04c178fbb28f5132f69f061f19e37a6ab015",
        "swp": "3df4888f647e125ae20a8231bdb9e5c828eafc19eee1ac7552d8f0a7c6e5c9d3",
    },
    "empty": {
        "cache": "bc33b345f0ee0a120a35de9c086f795f452d0ee35615ef8907c1287030b53c16",
        "swp": "ce622273c9045787af3b494dc3338407a17897347d2000a2f5fb9466209b6720",
    },
}

DUMPS = {"fixture": FIXTURE, "empty": {}}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dump", sorted(DUMPS))
@pytest.mark.parametrize("name", ["serve", "decompose", "swp"])
def test_digest_is_pinned(dump, name):
    digest = getattr(insight, f"{name}_summary")(DUMPS[dump])
    assert json.dumps(digest, sort_keys=True) == DIGESTS[dump][name]


@pytest.mark.parametrize("dump", sorted(DUMPS))
def test_dashboard_panels_are_pinned(dump):
    metrics = DUMPS[dump]
    assert _sha(dashboard._cache_section(metrics)) == PANELS[dump]["cache"]
    assert _sha(dashboard._swp_section(metrics)) == PANELS[dump]["swp"]
