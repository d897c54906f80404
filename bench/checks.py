"""Output checks: each engine output against the reference or a property.

Every check takes the command (with what ``gen`` kept for it), the exit code,
the stdout text and the text of the ``--out`` file, and returns a list of
problems; an empty list means the output is right. The expected values come
from ``ref``, which shares no code with the engine, never from a stored copy
of an earlier output.
"""

from __future__ import annotations

import json
import re

import ref
from gen import apply


def _closed_rows(m: ref.Model, pairs) -> list[int] | str:
    """Close output pairs over m's positions; a string names a pair that
    leaves m's live worlds."""
    pos = {m.ids[i]: i for i in ref.bits(m.live)}
    try:
        return ref.close(len(m.ids), [(pos[a], pos[b]) for a, b in pairs])
    except KeyError as exc:
        return f"relation mentions unknown world {exc}"


def model_problems(m: ref.Model, doc: dict, what: str) -> list[str]:
    """A model document must equal the reference model m exactly."""
    probs = []
    ids = [w["id"] for w in doc["worlds"]]
    want = m.id_set(m.live)
    if sorted(ids) != want:
        return [f"{what}: {len(ids)} worlds, expected {len(want)}"]
    pos = {w: i for i, w in enumerate(m.ids)}
    for w in doc["worlds"]:
        i = pos[w["id"]]
        truth = sorted(a for a in m.atoms if m.val[a] >> i & 1)
        if sorted(w["true_atoms"]) != truth:
            probs.append(f"{what}: world {w['id']} has atoms {w['true_atoms']}, expected {truth}")
            break
    for tag, key in (("P", "plausibility"), ("D", "desirability")):
        rows = _closed_rows(m, doc[key])
        if isinstance(rows, str):
            probs.append(f"{what} {key}: {rows}")
            continue
        up = m.orders[tag].up
        for i in ref.bits(m.live):
            if rows[i] & m.live != up[i] & m.live:
                probs.append(f"{what} {key}: row of world {m.ids[i]} differs from the reference")
                break
    if sorted(doc.get("intentions", [])) != sorted(m.intentions):
        probs.append(f"{what}: intentions {doc.get('intentions')}, expected {sorted(m.intentions)}")
    return probs


def _json(text: str, what: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{what}: not JSON ({exc})"]


def check_induce(cmd, rc, stdout, out_text) -> list[str]:
    doc, probs = _json(stdout, "stdout")
    if probs:
        return probs
    if "--json" in cmd.argv:
        doc = doc["model"]
    probs = model_problems(cmd.expect["model"], doc, "induced model")
    if out_text is not None:
        out_doc, bad = _json(out_text, "--out")
        probs += bad or model_problems(cmd.expect["model"], out_doc, "--out model")
    return probs + ([] if rc == 0 else [f"exit {rc}, expected 0"])


_EVAL_ROW = re.compile(r"^\s*(\d+)\s+([01]+)\s+(yes|no)$")


def check_eval(cmd, rc, stdout, out_text) -> list[str]:
    m, plans, f = cmd.expect["model"], cmd.expect["plans"], cmd.expect["formula"]
    ext = ref.Evaluator(m, plans).ext(f)
    verdict = ext == m.live
    if "--json" in cmd.argv:
        doc, probs = _json(stdout, "stdout")
        if probs:
            return probs
        rows = [(w["id"], w["bits"], w["holds"]) for w in doc["worlds"]]
        got_global = doc["global"]
    else:
        lines = stdout.splitlines()
        rows = []
        for line in lines[2:-1]:
            hit = _EVAL_ROW.match(line)
            if not hit:
                return [f"unreadable row {line!r}"]
            rows.append((int(hit[1]), hit[2], hit[3] == "yes"))
        got_global = {"global: true": True, "global: false": False}.get(lines[-1] if lines else "")
    probs = []
    if len(rows) != m.count():
        probs.append(f"{len(rows)} worlds, expected {m.count()}")
    pos = {w: i for i, w in enumerate(m.ids)}
    for w, bits, holds in rows:
        i = pos.get(w)
        if i is None or not m.live >> i & 1:
            probs.append(f"world {w} is not in the model")
            break
        want_bits = "".join("1" if m.val[a] >> i & 1 else "0" for a in m.atoms)
        if bits != want_bits or holds != bool(ext >> i & 1):
            probs.append(f"world {w}: ({bits}, {holds}), expected ({want_bits}, {bool(ext >> i & 1)})")
            break
    if got_global is not verdict:
        probs.append(f"global {got_global}, expected {verdict}")
    if rc != (0 if verdict else 1):
        probs.append(f"exit {rc}, expected {0 if verdict else 1}")
    return probs


def _failure_doc(failure):
    return None if failure is None else {"plan": failure[0], "reason": failure[1]}


def _failure_text(failure) -> str:
    return "ok" if failure is None else f"plan {failure[0]!r}: {failure[1]}"


def check_check(cmd, rc, stdout, out_text) -> list[str]:
    m, plans = cmd.expect["model"], cmd.expect["plans"]
    p_fail = ref.p_consistency(m, plans)
    prop1 = ref.proposition1(m, plans) if p_fail is None else None
    ok = p_fail is None and prop1 is None
    if "--json" in cmd.argv:
        doc, probs = _json(stdout, "stdout")
        if probs:
            return probs
        got = (doc["ok"], doc["p_consistency"], doc["proposition1"])
        want = (ok, _failure_doc(p_fail), _failure_doc(prop1))
    else:
        got = stdout.splitlines()
        want = [f"p-consistency: {_failure_text(p_fail)}",
                f"proposition-1: {_failure_text(prop1)}" if p_fail is None
                else "proposition-1: skipped (model is not P-consistent)"]
    probs = [] if got == want else [f"report {got}, expected {want}"]
    if rc != (0 if ok else 1):
        probs.append(f"exit {rc}, expected {0 if ok else 1}")
    return probs


_STEP = re.compile(r"^step (\d+): (.*)$")
_STATE = re.compile(r"^  worlds: (\d+)  min_P: (.*)  min_D: (.*)  I: (.*)  p-consistent: (yes|no|n/a)$")


def _ids(labels: str) -> list[int]:
    """World ids from trace's "id(bits) id(bits)" labels, "-" for none."""
    return [] if labels == "-" else [int(t.split("(")[0]) for t in labels.split()]


def _text_reports(stdout: str):
    """Step reports from trace's text mode, in the JSON report's shape."""
    reports, lines = [], stdout.splitlines()
    for head, body in zip(lines[0::2], lines[1::2]):
        step, state = _STEP.match(head), _STATE.match(body)
        if step is None:
            raise ValueError(f"unreadable step line {head!r}")
        report = {"index": int(step[1]), "op": step[2]}
        if body.startswith("  holds: "):
            report["holds"] = body == "  holds: yes"
        elif state is None:
            raise ValueError(f"unreadable state line {body!r}")
        else:
            report.update(
                worlds=int(state[1]), min_P=_ids(state[2]), min_D=_ids(state[3]),
                intentions=[] if state[4] == "-" else state[4].split(", "),
                p_consistent={"yes": True, "no": False, "n/a": None}[state[5]])
        reports.append(report)
    return reports


def _success_problems(before: ref.Model, op, report) -> list[str]:
    """The success property of the step's operation, read off its report."""
    kind = op[0]
    if kind == "announce":
        want = ref.prop(op[1], before.val, before.live).bit_count()
        if report["worlds"] != want:
            return [f"after {report['op']}: {report['worlds']} worlds, expected {want}"]
    if kind in ("upgrade", "contract"):
        sat = set(before.id_set(ref.prop(op[2], before.val, before.live)))
        minima = set(report["min_" + op[1]])
        if kind == "upgrade" and sat and not minima <= sat:
            return [f"after {report['op']}: min_{op[1]} leaves the upgraded worlds"]
        others = set(before.id_set(before.live)) - sat
        if kind == "contract" and others and not minima & others:
            return [f"after {report['op']}: no counter-world is minimal"]
    return []


def check_trace(cmd, rc, stdout, out_text) -> list[str]:
    m, plans, ops = cmd.expect["model"], cmd.expect["plans"], cmd.expect["ops"]
    doc = None
    if "--json" in cmd.argv:
        doc, probs = _json(stdout, "stdout")
        if probs:
            return probs
        reports = doc["steps"]
    else:
        try:
            reports = _text_reports(stdout)
        except ValueError as exc:
            return [str(exc)]
    if len(reports) != len(ops):
        return [f"{len(reports)} step reports, expected {len(ops)}"]
    probs, cur = [], m
    for index, ((text, op), report) in enumerate(zip(ops, reports), start=1):
        nxt = apply(cur, op, plans)
        if op[0] == "assert":
            want = {"index": index, "op": text,
                    "holds": ref.Evaluator(cur, plans).holds(op[1])}
        else:
            consistent = None
            if nxt.live:
                consistent = ref.p_consistency(nxt, plans) is None
            want = {"index": index, "op": text, "worlds": nxt.count(),
                    "min_P": nxt.id_set(nxt.orders["P"].min_set(nxt.live)),
                    "min_D": nxt.id_set(nxt.orders["D"].min_set(nxt.live)),
                    "intentions": sorted(nxt.intentions),
                    "p_consistent": consistent}
            probs += _success_problems(cur, op, report)
        if report != want:
            probs.append(f"step {index} reported {report}, expected {want}")
        cur = nxt
        if probs:
            break
    finals = []
    if doc is not None:
        finals.append(("final_model", doc["final_model"]))
    if out_text is not None:
        out_doc, bad = _json(out_text, "--out")
        probs += bad
        if out_doc is not None:
            finals.append(("--out model", out_doc))
    for what, final in finals:
        probs += model_problems(cur, final, what)
    return probs + ([] if rc == 0 else [f"exit {rc}, expected 0"])


def check_extract(cmd, rc, stdout, out_text) -> list[str]:
    m = cmd.expect["model"]
    doc, probs = _json(stdout, "stdout")
    if probs:
        return probs
    for tag, key in (("P", "plausibility"), ("D", "desirability")):
        graph = doc[key]
        try:
            nodes = [ref.parse_prop(text) for text in graph["nodes"]]
        except ValueError as exc:
            probs.append(f"{key} graph: {exc}")
            continue
        exts = [ref.prop(f, m.val, m.live) for f in nodes]
        up = ref.lex_order(exts, ref.prec_closure(len(nodes), graph["edges"]), m.live)
        want = m.orders[tag].up
        if any(up[i] & m.live != want[i] & m.live for i in ref.bits(m.live)):
            probs.append(f"{key} graph does not reproduce the model's order")
    if out_text is not None and json.loads(out_text) != doc:
        probs.append("--out differs from stdout")
    return probs + ([] if rc == 0 else [f"exit {rc}, expected 0"])


CHECKS = {"induce": check_induce, "eval": check_eval, "check": check_check,
          "trace": check_trace, "extract": check_extract}


def problems(cmd, rc, stdout, out_text) -> list[str]:
    try:
        return CHECKS[cmd.kind](cmd, rc, stdout, out_text)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]

