"""Walk through the two-atom running example end to end.

An agent believes q, prefers p over q, and has adopted a plan alpha that
achieves p. The script checks the mental attitudes on the induced model,
then shows what announcing p does to the intention set, and finally the
composed revision that drops intentions contradicted by incoming news.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import mindcheck as mc
from mindcheck.models import ids

PROGRAM = {
    "atoms": ["p", "q"],
    "K": [],
    "B": {"nodes": ["q"], "edges": []},
    "D": {"nodes": ["p", "q"], "ranks": [0, 1]},
    "I": ["alpha"],
}

LIBRARY = {"plans": [{"name": "alpha", "pre": "T", "post": "p"}]}

QUERIES = ["B(q|T)", "B(p|T)", "G(p)", "AdmInt(p)", "AdmInt(q)", "Int(p)",
           "[alpha] p", "[!q] A q"]


def show(m):
    print(f"  worlds: {ids(m.worlds)}  "
          f"min_P: {ids(m.plausibility.min_set(m.worlds))}  "
          f"min_D: {ids(m.desirability.min_set(m.worlds))}  "
          f"I: {sorted(m.intentions)}")


def main():
    lib = mc.load_library(LIBRARY)
    program = mc.load_program(PROGRAM)
    m = mc.induce_program(program, lib)
    print("induced practical agent model")
    show(m)

    print("\nattitude checks")
    for text in QUERIES:
        verdict = mc.holds(m, lib, mc.parse(text))
        print(f"  {text:<12} {'true' if verdict else 'false'}")

    print("\nafter announcing p (the plan's goal is now achieved)")
    announced = mc.announce(m, mc.parse("p"))
    filtered = mc.filter_intentions(announced, lib)
    show(filtered)
    print(f"  AdmInt(p) now: {mc.holds(filtered, lib, mc.parse('AdmInt(p)'))}")

    print("\nrevising the program itself: believe ~p, drop desires for p")
    revised = mc.revise_drop(program, mc.parse("~p"), lib)
    revised_model = mc.induce_program(revised, lib)
    show(revised_model)
    print(f"  B(~p) now: {mc.holds(revised_model, lib, mc.parse('B(~p)'))}")
    print(f"  G(p) now:  {mc.holds(revised_model, lib, mc.parse('G(p)'))}")


if __name__ == "__main__":
    main()
