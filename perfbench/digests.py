"""A fixed corpus of synthesis instances and the digests of their plans.

The corpus does not depend on ``--seed``: every run synthesizes it and
compares each verdict and the SHA-256 of each plan's canonical
``plan_to_dict`` JSON with ``plan_digests.json``, so a change that alters
any plan byte shows as a plan digest mismatch.  Record the file again only
when a change to the plans is intended::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import instances
import workloads

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "plan_digests.json")


def corpus():
    """``{key: (system description, formula text, narrow)}``."""
    out = {}
    for seed in range(3):
        rng = random.Random(1000 + seed)
        ring = instances.ring_system(rng, 60 + 20 * seed)
        for spec in instances.FOUND_SPECS:
            out[f"ring{seed}:{spec}"] = (ring, spec, True)
        lost = instances.lost_system(rng, 12 + 4 * seed)
        out[f"lost{seed}:{instances.LOST_SPECS[seed]}"] = (
            lost, instances.LOST_SPECS[seed], True)
        n_props = 4 + seed % 2
        wide = instances.wide_system(rng, 3 + seed, n_props)
        for template in instances.WIDE_SPECS:
            formula = instances.wide_formula(rng, n_props, template)
            out[f"wide{seed}:{formula}"] = (wide, formula, False)
    return out


def compute(astra, guarded):
    """``{key: (status, plan digest or None)}``; a call that fails under
    ``guarded`` gets the status ``error``."""
    out = {}
    for key, (raw, text, narrow) in corpus().items():
        system = astra.core.validate_ats(raw)
        valuation = astra.core.parse_valuation(raw, system)
        formula = astra.ltl.parse_formula(text, valuation.props)
        if narrow:
            valuation = workloads.narrowed(astra.core, astra.ltl, valuation, formula)
        result, error = guarded(astra.planner.synthesize, system, formula, valuation)
        if error is not None:
            out[key] = ("error", None)
        else:
            status, _, digest = workloads.synth_signature(astra, result)
            out[key] = (status, digest)
    return out


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(PATH)), "src"))
    import astra

    def unguarded(fn, *args):
        return fn(*args), None

    recorded = {key: list(value) for key, value in compute(astra, unguarded).items()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} digests in {PATH}")


if __name__ == "__main__":
    main()
