"""Self-test of the output checks: ``python3 bench/run.py --self-test``.

Runs every command of every workload once (seed 1), requires each check to
accept the engine's real output, then corrupts that output in the ways the
checks exist to catch (one dropped relation pair, one flipped verdict, one
wrong world count) and requires each check to reject every corrupted copy.
A dropped pair must be one no other pairs imply: outputs list closed
relations, and dropping an implied pair leaves the same model once the
relation is closed again, so such outputs get no dropped-pair case. Every
kind of corruption must still be tried at least once per command kind.
Prints one line per case and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import checks
import gen

# every (command kind, corruption) the self-test must show rejected
REQUIRED = {
    ("induce", "dropped relation pair"), ("induce", "dropped pair in --out"),
    ("induce", "wrong world count"),
    ("eval", "flipped world verdict"), ("eval", "flipped global verdict"),
    ("eval", "wrong world count"), ("eval", "flipped exit code"),
    ("check", "flipped verdict"), ("check", "flipped exit code"),
    ("trace", "wrong world count"), ("trace", "flipped verdict"),
    ("trace", "dropped pair in final model"), ("trace", "dropped pair in --out"),
    ("extract", "dropped world from a node"),
}


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def drop_pair(model: dict):
    """The model with one relation pair dropped that no other pairs imply,
    or None when every pair is implied by others."""
    model = json.loads(json.dumps(model))
    for key in ("plausibility", "desirability"):
        pairs = {tuple(p) for p in model[key]}
        succ: dict[int, set] = {}
        for a, b in pairs:
            succ.setdefault(a, set()).add(b)
        for a, b in sorted(pairs):
            if a != b and not any((x, b) in pairs for x in succ[a] - {a, b}):
                model[key].remove([a, b])
                return model
    return None


def drop_world(model: dict) -> dict:
    model = dict(model)
    model["worlds"] = model["worlds"][:-1]
    return model


def corruptions(cmd, stdout: str, out_text):
    """(name, stdout, out_text) triples, each wrong in exactly one way."""
    as_json = "--json" in cmd.argv
    if cmd.kind == "induce":
        doc = json.loads(stdout)
        model = doc["model"] if as_json else doc
        wrap = (lambda m: {**doc, "model": m}) if as_json else (lambda m: m)
        dropped = drop_pair(model)
        if dropped is not None:
            yield "dropped relation pair", _dumps(wrap(dropped)), out_text
            if out_text is not None:
                yield "dropped pair in --out", stdout, _dumps(dropped)
        yield "wrong world count", _dumps(wrap(drop_world(model))), out_text
    elif cmd.kind == "eval":
        if as_json:
            doc = json.loads(stdout)
            flipped = json.loads(stdout)
            flipped["worlds"][0]["holds"] = not flipped["worlds"][0]["holds"]
            yield "flipped world verdict", _dumps(flipped), out_text
            yield "flipped global verdict", _dumps({**doc, "global": not doc["global"]}), out_text
            yield "wrong world count", _dumps({**doc, "worlds": doc["worlds"][1:]}), out_text
        else:
            lines = stdout.splitlines()
            row = lines[2]
            swapped = row[:-3] + " no" if row.endswith("yes") else row[:-2] + "yes"
            yield "flipped world verdict", "\n".join(lines[:2] + [swapped] + lines[3:]), out_text
            other = "global: false" if lines[-1] == "global: true" else "global: true"
            yield "flipped global verdict", "\n".join(lines[:-1] + [other]), out_text
            yield "wrong world count", "\n".join(lines[:2] + lines[3:]), out_text
    elif cmd.kind == "check":
        if as_json:
            doc = json.loads(stdout)
            yield "flipped verdict", _dumps({**doc, "ok": not doc["ok"]}), out_text
        else:
            first, rest = stdout.split("\n", 1)
            other = ("p-consistency: plan 'pl0': precondition-not-believed"
                     if first == "p-consistency: ok" else "p-consistency: ok")
            yield "flipped verdict", other + "\n" + rest, out_text
    elif cmd.kind == "trace":
        if as_json:
            doc = json.loads(stdout)
            k = next(i for i, r in enumerate(doc["steps"]) if "worlds" in r)
            wrong = json.loads(stdout)
            wrong["steps"][k]["worlds"] += 1
            yield "wrong world count", _dumps(wrong), out_text
            flipped = json.loads(stdout)
            step = flipped["steps"][k]
            step["p_consistent"] = not step["p_consistent"]
            yield "flipped verdict", _dumps(flipped), out_text
            dropped = drop_pair(doc["final_model"])
            if dropped is not None:
                yield "dropped pair in final model", _dumps({**doc, "final_model": dropped}), out_text
        else:
            lines = stdout.splitlines()
            k = next(i for i, line in enumerate(lines) if line.startswith("  worlds: "))
            count = lines[k].split()[1]
            wrong = lines[k].replace(f"worlds: {count}", f"worlds: {int(count) + 1}", 1)
            yield "wrong world count", "\n".join(lines[:k] + [wrong] + lines[k + 1:]), out_text
            flag = lines[k].rsplit(" ", 1)
            other = {"yes": "no", "no": "yes", "n/a": "yes"}[flag[1]]
            flipped = lines[:k] + [f"{flag[0]} {other}"] + lines[k + 1:]
            yield "flipped verdict", "\n".join(flipped), out_text
        dropped = None if out_text is None else drop_pair(json.loads(out_text))
        if dropped is not None:
            yield "dropped pair in --out", stdout, _dumps(dropped)
    elif cmd.kind == "extract":
        doc = json.loads(stdout)
        graph = doc["plausibility"]
        k = next(i for i, n in enumerate(graph["nodes"]) if " | " in n)
        cut = json.loads(stdout)
        cut["plausibility"]["nodes"][k] = graph["nodes"][k].rsplit(" | ", 1)[0]
        yield "dropped world from a node", _dumps(cut), out_text


def run_once(engine, cmd):
    if cmd.out and os.path.exists(cmd.out):
        os.remove(cmd.out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = engine.cli.main(cmd.argv)
    out_text = None
    if cmd.out:
        with open(cmd.out, encoding="utf-8") as fh:
            out_text = fh.read()
    return rc, buf.getvalue(), out_text


def main(engine, work: str) -> int:
    bad, tried = 0, set()
    try:
        for workload in gen.WORKLOADS:
            for k, cmd in enumerate(gen.build(workload, 1, os.path.join(work, workload))):
                label = f"{workload}[{k}] {cmd.kind}{' --json' if '--json' in cmd.argv else ''}"
                rc, stdout, out_text = run_once(engine, cmd)
                found = checks.problems(cmd, rc, stdout, out_text)
                bad += bool(found)
                print(f"{'FAIL' if found else 'ok  '} {label}: real output "
                      f"{'rejected: ' + found[0][:120] if found else 'accepted'}")
                cases = list(corruptions(cmd, stdout, out_text))
                if cmd.kind in ("eval", "check"):
                    cases.append(("flipped exit code", stdout, out_text))
                for name, bad_stdout, bad_out in cases:
                    bad_rc = 1 - rc if name == "flipped exit code" else rc
                    found = checks.problems(cmd, bad_rc, bad_stdout, bad_out)
                    bad += not found
                    tried.add((cmd.kind, name))
                    print(f"{'ok  ' if found else 'FAIL'} {label}: {name} "
                          f"{'rejected: ' + found[0][:120] if found else 'ACCEPTED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    missing = sorted(REQUIRED - tried)
    for kind, name in missing:
        print(f"FAIL no {kind} output allowed the case: {name}")
    bad += len(missing)
    print("self-test passed" if not bad else f"self-test FAILED in {bad} case(s)")
    return 1 if bad else 0
