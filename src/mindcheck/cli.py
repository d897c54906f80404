"""Command-line front end.

Commands: eval (check a formula), trace (run an operation script), induce
(program to model), extract (model to priority graphs), check (P-consistency
and the plan/intention connection). Exit codes: 0 true/ok, 1 false or a
failed assertion/finding, 2 any error. Output is deterministic; --json
switches to a versioned machine-readable form.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional, Union

from . import checker, dynamics, formulas as fm, models as md
from . import pgraph as pg, plans as pl

SCHEMA = 1

_ENGINE_ERRORS = (
    fm.FormulaError, md.ModelError, pl.LibraryError, pg.GraphError,
    pg.ProgramError, checker.CheckError,
)


class CliError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class AssertStep:
    formula: fm.Formula


@dataclass(frozen=True)
class FilterStep:
    pass


ScriptStep = Union[dynamics.MentalOp, AssertStep, FilterStep]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (CliError, pg.ProgramError) as exc:
        _emit_error(args, exc.reason, exc.detail)
        return 2
    except _ENGINE_ERRORS as exc:
        _emit_error(args, _reason_of(exc), str(exc))
        return 2
    except Exception as exc:  # last resort: no traceback reaches the user
        _emit_error(args, "internal-error", f"{type(exc).__name__}: {exc}")
        return 2


def _reason_of(exc) -> str:
    return {
        fm.ParseError: "parse-error",
        fm.UnknownPlanError: "unknown-plan",
        fm.FormulaError: "formula-error",
        md.UnknownAtomError: "unknown-atom",
        md.ModelError: "model-error",
        pl.LibraryError: "library-error",
        pg.GraphError: "graph-error",
        checker.EmptyModelError: "empty-model",
        checker.CheckError: "check-error",
    }.get(type(exc), "error")


def _emit_error(args, reason: str, detail: str) -> None:
    if getattr(args, "json", False):
        doc = {"schema": SCHEMA, "error": {"reason": reason, "detail": detail}}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        line = f"error: {reason}" + (f": {detail}" if detail else "")
        print(line, file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="mindcheck",
        description="reason about and revise finite BDI mental-state models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_source=True, library=True):
        if model_source:
            p.add_argument("--program", help="agent program file (JSON)")
            p.add_argument("--model", help="model file (JSON)")
        if library:
            p.add_argument("--library", help="plan library file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--out", help="also write the resulting document here")

    p_eval = sub.add_parser("eval", help="evaluate a formula on a model")
    common(p_eval)
    p_eval.add_argument("--formula", required=True)
    p_eval.set_defaults(run=cmd_eval)

    p_trace = sub.add_parser("trace", help="run an operation script")
    common(p_trace)
    p_trace.add_argument("--script", required=True)
    p_trace.set_defaults(run=cmd_trace)

    p_induce = sub.add_parser("induce", help="build the model a program induces")
    common(p_induce, model_source=False)
    p_induce.add_argument("--program", required=True)
    p_induce.set_defaults(run=cmd_induce)

    p_extract = sub.add_parser("extract",
                               help="extract priority graphs from a model")
    common(p_extract, model_source=False, library=False)
    p_extract.add_argument("--model", required=True)
    p_extract.set_defaults(run=cmd_extract)

    p_check = sub.add_parser("check",
                             help="check P-consistency and plan/goal linkage")
    common(p_check)
    p_check.set_defaults(run=cmd_check)
    return parser


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("file-error", f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("file-error", f"{path}: {exc}") from exc


def _load_library(args) -> pl.PlanLibrary:
    if getattr(args, "library", None):
        return pl.load_library(_read_json(args.library))
    return pl.EMPTY_LIBRARY


def _load_model(args, lib: pl.PlanLibrary) -> md.AgentModel:
    has_program = getattr(args, "program", None)
    has_model = getattr(args, "model", None)
    if bool(has_program) == bool(has_model):
        raise CliError("usage-error", "give exactly one of --program/--model")
    if has_program:
        return pg.induce_program(pg.load_program(_read_json(args.program)), lib)
    return md.load_model(_read_json(args.model))


def _dump_json(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True), for values
    made of dicts with string keys, lists, strings, numbers, bools and None.

    json.dumps falls back to its pure-Python encoder whenever an indent is
    given. This writer keeps that layout but renders a list of [int, int]
    pairs, where nearly all of a model document's bytes sit, with a single
    str.format call over one template per pair, and a list of world
    entries ({"id", "true_atoms"}) from one template per entry. Pieces are
    gathered in one list and joined once, so large values are not copied
    at every level.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(v, nl: str, out: list[str]) -> None:
    """Append one JSON value whose own line starts after nl (newline + indent)."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif type(v) is int:
        out.append(str(v))
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif v is None:
        out.append("null")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, x in sorted(v.items()):
            out.append(f"{sep}{_encode_str(k)}: ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        if _int_pairs(v):
            cell = inner + "  {}"
            pair = "[" + cell + "," + cell + inner + "]"
            body = ("," + inner).join([pair] * len(v))
            out += ("[" + inner, body.format(*chain.from_iterable(v)), nl + "]")
            return
        if _world_entries(v):
            item = inner + "  "
            head = "{" + item + '"id": %d,' + item + '"true_atoms": '
            atom_sep = "," + item + "  "
            entries = [head % e["id"]
                       + ("[" + atom_sep[1:] + atom_sep.join(map(_encode_str, e["true_atoms"]))
                          + item + "]" if e["true_atoms"] else "[]")
                       + inner + "}" for e in v]
            out += ("[" + inner, ("," + inner).join(entries), nl + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(v))


def _int_pairs(v) -> bool:
    """Whether every item of v is a two-item list of ints (bools excluded)."""
    return (set(map(type, v)) == {list} and set(map(len, v)) == {2}
            and set(map(type, chain.from_iterable(v))) == {int})


_ENTRY_KEYS = {"id", "true_atoms"}


def _world_entries(v) -> bool:
    """Whether every item of v is a model document's world entry: a dict
    with exactly the keys "id", an int (bools excluded), and "true_atoms",
    a list of strings."""
    return (set(map(type, v)) == {dict}
            and all(e.keys() == _ENTRY_KEYS and type(e["id"]) is int
                    and type(e["true_atoms"]) is list
                    and all(type(a) is str for a in e["true_atoms"])
                    for e in v))


def _write_out(args, text: str) -> None:
    """Write an already rendered document to --out."""
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    lib = _load_library(args)
    m = _load_model(args, lib)
    try:
        f = fm.parse(args.formula)
    except fm.ParseError as exc:
        raise CliError("parse-error", str(exc)) from exc
    ext = checker.extension(m, lib, f)
    verdict = ext == m.worlds
    bits = m.bits_by_world
    worlds = [
        {"id": w, "bits": bits[w], "holds": bool(ext >> w & 1)}
        for w in md.sorted_worlds(m)
    ]
    doc = {
        "schema": SCHEMA, "command": "eval", "formula": args.formula,
        "atoms": list(m.atoms), "worlds": worlds, "global": verdict,
    }
    text = _dump_json(doc) if args.json or args.out else None
    if args.json:
        print(text)
    else:
        print(f"formula: {args.formula}")
        header = "".join(m.atoms)
        print(f" world  {header}  holds")
        for row in worlds:
            mark = "yes" if row["holds"] else "no"
            print(f" {row['id']:>5}  {row['bits']}  {mark}")
        print(f"global: {'true' if verdict else 'false'}")
    if args.out:
        _write_out(args, text)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# trace

def parse_script(text: str) -> list[tuple[int, str, ScriptStep]]:
    """Parse script lines into steps, keeping line numbers and raw text."""
    steps: list[tuple[int, str, ScriptStep]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            steps.append((lineno, line, _parse_step(head, rest)))
        except fm.ParseError as exc:
            raise CliError("script-error", f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise CliError("script-error", f"line {lineno}: {exc}") from exc
    return steps


def _parse_step(head: str, rest: str) -> ScriptStep:
    if head == "announce":
        return dynamics.MentalOp("announce", argument=_prop(rest))
    if head in ("upgrade", "contract"):
        target, _, text = rest.partition(" ")
        if target not in ("P", "D") or not text.strip():
            raise ValueError(f"{head} needs a target (P or D) and a formula")
        return dynamics.MentalOp(head, target=target, argument=_prop(text.strip()))
    if head == "update":
        if not rest or " " in rest:
            raise ValueError("update needs exactly one plan symbol")
        return dynamics.MentalOp("product_update", argument=rest)
    if head == "filter":
        if rest:
            raise ValueError("filter takes no argument")
        return FilterStep()
    if head == "assert":
        if not rest:
            raise ValueError("assert needs a formula")
        return AssertStep(fm.parse(rest))
    raise ValueError(f"unknown operation {head!r}")


def _prop(text: str) -> fm.Formula:
    f = fm.parse(text)
    if not fm.is_propositional(f):
        raise ValueError(f"argument must be propositional: {text}")
    return f


def _step_report(index: int, line: str, m: md.AgentModel,
                 lib: pl.PlanLibrary) -> dict:
    if m.worlds:
        failure = pl.check_p_consistency(m, lib)
        consistent: Optional[bool] = failure is None
        min_p = md.ids(m.plausibility.min_set(m.worlds))
        min_d = md.ids(m.desirability.min_set(m.worlds))
    else:
        consistent = None
        min_p = []
        min_d = []
    return {
        "index": index, "op": line, "worlds": m.worlds.bit_count(),
        "min_P": min_p, "min_D": min_d,
        "intentions": sorted(m.intentions),
        "p_consistent": consistent,
    }


def _print_step(report: dict, m: md.AgentModel) -> None:
    def label(ws):
        # the printed worlds' valuation bits only: m.bits_by_world would
        # compute every world's for each step's new model value
        return " ".join(
            f"{w}({''.join(str(m.valuation[a] >> w & 1) for a in m.atoms)})"
            for w in ws) or "-"

    consistent = report["p_consistent"]
    flag = "n/a" if consistent is None else ("yes" if consistent else "no")
    print(f"step {report['index']}: {report['op']}")
    print(f"  worlds: {report['worlds']}"
          f"  min_P: {label(report['min_P'])}"
          f"  min_D: {label(report['min_D'])}"
          f"  I: {', '.join(report['intentions']) or '-'}"
          f"  p-consistent: {flag}")


def cmd_trace(args) -> int:
    lib = _load_library(args)
    m = _load_model(args, lib)
    try:
        with open(args.script, encoding="utf-8") as fh:
            steps = parse_script(fh.read())
    except OSError as exc:
        raise CliError("file-error", f"{args.script}: {exc.strerror}") from exc
    reports = []
    failed_assert: Optional[dict] = None
    for index, (lineno, line, step) in enumerate(steps, start=1):
        try:
            if isinstance(step, AssertStep):
                ok = checker.holds(m, lib, step.formula)
                report = {"index": index, "op": line, "holds": ok}
                reports.append(report)
                if not args.json:
                    print(f"step {index}: {line}")
                    print(f"  holds: {'yes' if ok else 'no'}")
                if not ok:
                    failed_assert = report
                    break
                continue
            if isinstance(step, FilterStep):
                m = dynamics.filter_intentions(m, lib)
            else:
                m = step.apply(m, lib)
            report = _step_report(index, line, m, lib)
        except _ENGINE_ERRORS as exc:
            raise CliError(
                _reason_of(exc), f"step {index} (line {lineno}): {exc}"
            ) from exc
        reports.append(report)
        if not args.json:
            _print_step(report, m)
    final_doc = md.dump_model(m) if args.json or args.out else None
    if args.json:
        doc = {
            "schema": SCHEMA, "command": "trace", "steps": reports,
            "passed": failed_assert is None, "final_model": final_doc,
        }
        print(_dump_json(doc))
    if failed_assert is not None:
        print(f"assertion failed at step {failed_assert['index']}: "
              f"{failed_assert['op']}", file=sys.stderr)
    if args.out:
        _write_out(args, _dump_json(final_doc))
    return 0 if failed_assert is None else 1


# ---------------------------------------------------------------------------
# induce / extract / check

def cmd_induce(args) -> int:
    lib = _load_library(args)
    ag = pg.load_program(_read_json(args.program))
    m = pg.induce_program(ag, lib)
    doc = md.dump_model(m)
    if args.json:
        print(_dump_json({"schema": SCHEMA, "command": "induce", "model": doc}))
        text = _dump_json(doc) if args.out else None
    else:
        text = _dump_json(doc)
        print(text)
    if args.out:
        _write_out(args, text)
    return 0


def cmd_extract(args) -> int:
    m = md.load_model(_read_json(args.model))
    doc = {
        "plausibility": pg.dump_graph(pg.extract_graph(m, "P")),
        "desirability": pg.dump_graph(pg.extract_graph(m, "D")),
    }
    if args.json:
        doc = {"schema": SCHEMA, "command": "extract", **doc}
    text = _dump_json(doc)
    print(text)
    if args.out:
        _write_out(args, text)
    return 0


def cmd_check(args) -> int:
    lib = _load_library(args)
    m = _load_model(args, lib)
    p_failure = pl.check_p_consistency(m, lib)
    prop1_failure = None
    if p_failure is None:
        prop1_failure = checker.check_proposition1(m, lib)
    ok = p_failure is None and prop1_failure is None
    if args.json:
        doc = {
            "schema": SCHEMA, "command": "check", "ok": ok,
            "p_consistency": _failure_doc(p_failure),
            "proposition1": _failure_doc(prop1_failure),
        }
        print(_dump_json(doc))
    else:
        print(f"p-consistency: {p_failure or 'ok'}")
        if p_failure is None:
            print(f"proposition-1: {prop1_failure or 'ok'}")
        else:
            print("proposition-1: skipped (model is not P-consistent)")
    return 0 if ok else 1


def _failure_doc(failure) -> Optional[dict]:
    if failure is None:
        return None
    return {"plan": failure.plan, "reason": failure.reason}


if __name__ == "__main__":
    raise SystemExit(main())
