"""Byte-identical plans: the benchmark's fixed synthesis corpus must give
the verdicts and plan digests recorded in ``perfbench/plan_digests.json``.

Re-record that file with ``python3 perfbench/digests.py`` only when a change
to the plans is intended.
"""

import os
import sys

import astra

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import digests  # noqa: E402


def unguarded(fn, *args):
    return fn(*args), None


def test_corpus_plans_match_recorded_digests():
    computed = {key: list(value) for key, value in digests.compute(astra, unguarded).items()}
    assert computed == digests.load()
