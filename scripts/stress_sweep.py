"""Randomized sweeps beyond the pytest suite's counts.

Checks, over seeded random instances from tests/generators.py: preorder
preservation under all four dynamic operations, graph/model commutation for
announcement, upgrade, contraction and the drop-revision, and the plan/goal
connection on P-consistent models. Prints a summary and exits nonzero on
any violation.

    python3 scripts/stress_sweep.py --count 1000 --atoms 3 --seed 7
"""

import argparse
import dataclasses
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mindcheck import checker, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg

import generators as gen
from generators import models_isomorphic as isomorphic


def sweep_preservation(rng, count, n_atoms):
    bad = 0
    for _ in range(count):
        m = gen.random_model(rng, n_atoms, min_worlds=2)
        phi = gen.random_prop(rng, m.atoms)
        lib = gen.random_library(rng, m.atoms)
        outputs = [dynamics.announce(m, phi)]
        for tag in ("P", "D"):
            outputs.append(dynamics.upgrade(m, tag, phi))
            outputs.append(dynamics.contract(m, tag, phi))
        outputs += [dynamics.product_update(m, lib, n) for n in sorted(lib.plans)]
        bad += sum(
            o.plausibility.validate() is not None
            or o.desirability.validate() is not None
            for o in outputs
        )
    return bad


def sweep_commutation(rng, count, n_atoms):
    bad = 0
    for _ in range(count):
        ag = gen.random_program(rng, n_atoms)
        lib = gen.random_library(rng, ag.atoms)
        base = pg.induce_program(ag, lib, check_intentions=False)
        phi = gen.random_prop(rng, ag.atoms)
        if md.satisfying_worlds(phi, base.worlds, base.valuation):
            side = pg.induce_program(dynamics.graph_announce(ag, phi), lib,
                                     check_intentions=False)
            bad += not isomorphic(side, dynamics.announce(base, phi))
        for attr, tag in (("beliefs", "P"), ("desires", "D")):
            up = dataclasses.replace(
                ag, **{attr: dynamics.graph_upgrade(getattr(ag, attr), phi)})
            side = pg.induce_program(up, lib, check_intentions=False)
            bad += not isomorphic(side, dynamics.upgrade(base, tag, phi))
        for target, tag in (("B", "P"), ("D", "D")):
            down = dynamics.graph_contract(ag, target, phi)
            side = pg.induce_program(down, lib, check_intentions=False)
            bad += not isomorphic(side, dynamics.contract(base, tag, phi))
        side = pg.induce_program(dynamics.revise_drop(ag, phi, lib), lib,
                                 check_intentions=False)
        model_side = dynamics.filter_intentions(
            dynamics.upgrade(dynamics.contract(base, "D", fm.Not(phi)),
                             "P", phi), lib)
        bad += not isomorphic(side, model_side)
    return bad


def sweep_plan_goal(rng, count, n_atoms):
    bad = adopted = 0
    for _ in range(count):
        m = gen.random_model(rng, n_atoms, min_worlds=2)
        lib = gen.random_library(rng, m.atoms)
        m = gen.adopt_admissible_intentions(rng, m, lib)
        adopted += len(m.intentions)
        bad += checker.check_proposition1(m, lib) is not None
    return bad, adopted


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--atoms", type=int, default=2, choices=(1, 2, 3, 4))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    violations = 0
    bad = sweep_preservation(rng, args.count, args.atoms)
    print(f"preorder preservation : {args.count} models, {bad} violations")
    violations += bad
    bad = sweep_commutation(rng, args.count, args.atoms)
    print(f"graph/model commutation: {args.count} programs, {bad} violations")
    violations += bad
    bad, adopted = sweep_plan_goal(rng, args.count, args.atoms)
    print(f"plan/goal connection   : {args.count} models, "
          f"{adopted} adopted plans, {bad} violations")
    violations += bad
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
