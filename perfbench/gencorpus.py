"""Seeded generator of scripted mmevents corpora for the benchmark workloads.

Run workloads get a corpus, scripted agent replies for every round and a
gold file equal to the designed output.  Every designed edge clears
theta_event with its designed arguments, so the expected predictions are
known before the program runs.  The audit workload instead gets finished
run artifacts (states and predictions) plus a gold file whose designed
differences give a known, non-zero count for every EM/AR error class and
span relation.

The same (workload, seed, scale) always writes a byte-identical tree.
Seeds change the words, types, roles and arrangement, never the sizes, so
runs on different seeds do the same amount of work.

    python3 perfbench/gencorpus.py --workload long_text --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

# The engine's default event schema (roles, and the roles an event needs).
SCHEMA = {
    "Movement:Transport": ["Agent", "Artifact", "Vehicle", "Destination", "Origin"],
    "Conflict:Attack": ["Attacker", "Target", "Instrument", "Place"],
    "Conflict:Demonstrate": ["Entity", "Police", "Instrument", "Place"],
    "Justice:ArrestJail": ["Agent", "Person", "Instrument", "Place"],
    "Contact:PhoneWrite": ["Entity", "Instrument", "Place"],
    "Contact:Meet": ["Participant", "Place"],
    "Life:Die": ["Agent", "Instrument", "Victim", "Place"],
    "Transaction:TransferMoney": ["Giver", "Recipient", "Money"],
}
REQUIRED = {
    "Movement:Transport": ["Artifact"],
    "Conflict:Attack": ["Attacker", "Target"],
    "Conflict:Demonstrate": ["Entity"],
    "Justice:ArrestJail": ["Person"],
    "Contact:PhoneWrite": ["Entity"],
    "Contact:Meet": ["Participant"],
    "Life:Die": ["Victim"],
    "Transaction:TransferMoney": ["Money"],
}
TYPES = list(SCHEMA)

FILLER = (
    "the of and a to in was for on with as by at from that near after before "
    "while during over under into across toward through about against between "
    "among local officials said reported area city road group people several "
    "other later early morning night day week region town streets border crowd "
    "members two three many some its their were had has been also then there "
    "when police forces residents witnesses according statement"
).split()
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

IMAGE_W, IMAGE_H = 640, 480
ROLE_CONFIDENCE = 0.9
FINAL_CONFIDENCE = 0.9


@dataclass(frozen=True)
class RunSpec:
    """Shape of one run workload.  Sizes are per document and fixed."""

    docs: int
    words: int
    mentions: int
    edges: int
    rounds: int
    triggers: int  # distinct trigger words in each text
    decoys: int  # mentions linked in later rounds but never bound
    regions: tuple[int, ...]  # image regions per document, cycled; 0 = text only
    image_every: int  # every n-th edge also binds an image region
    repeat_share: float  # share of edges re-sending a committed link each round >= 2
    parallel: int
    delay_ms: float  # scripted agent and vision wait per call

    def scaled(self, factor: float) -> "RunSpec":
        def s(n: int, floor: int) -> int:
            return max(floor, round(n * factor))

        return replace(self, words=s(self.words, 1), mentions=s(self.mentions, self.decoys + 3),
                       edges=s(self.edges, 1), triggers=s(self.triggers, self.rounds))


@dataclass(frozen=True)
class AuditSpec:
    """Shape of the audit workload: finished runs with long trails."""

    docs: int
    events: int  # predicted events per document
    rounds: int
    decoys: int
    filler: int
    per_kind: tuple[int, int]  # documents get min..max events of each perturbation

    def scaled(self, factor: float) -> "AuditSpec":
        return replace(self, events=max(60, round(self.events * factor)),
                       filler=round(self.filler * factor))


WORKLOADS: dict[str, RunSpec | AuditSpec] = {
    "long_text": RunSpec(docs=2, words=1000, mentions=200, edges=60, rounds=2, triggers=60,
                         decoys=10, regions=(6,), image_every=5, repeat_share=0.1,
                         parallel=1, delay_ms=0.0),
    "deep_negotiation": RunSpec(docs=2, words=200, mentions=40, edges=80, rounds=10, triggers=20,
                                decoys=10, regions=(0,), image_every=0, repeat_share=0.25,
                                parallel=1, delay_ms=0.0),
    "live_short": RunSpec(docs=200, words=15, mentions=5, edges=2, rounds=2, triggers=3,
                          decoys=1, regions=(1, 2), image_every=1, repeat_share=0.5,
                          parallel=2, delay_ms=3.0),
    "audit": AuditSpec(docs=6, events=200, rounds=6, decoys=8, filler=300, per_kind=(1, 2)),
}


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def pseudo_words(rng: random.Random, n: int) -> list[str]:
    """n distinct six-letter words that are no filler word.  Equal length
    keeps any one from being a substring of another."""
    seen = set(FILLER)
    out = []
    while len(out) < n:
        w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def build_text(rng: random.Random, units: list[str], n_words: int) -> tuple[str, list[int]]:
    """Shuffle units among filler words; return text and each unit's offset."""
    n_unit_words = sum(len(u.split()) for u in units)
    if n_words < n_unit_words:
        raise ValueError(f"{n_words} words cannot hold {n_unit_words} words of mentions and triggers")
    items = [(i, u) for i, u in enumerate(units)]
    items += [(None, rng.choice(FILLER)) for _ in range(n_words - n_unit_words)]
    rng.shuffle(items)
    parts: list[str] = []
    offsets = [0] * len(units)
    length = 0
    for k, (idx, word) in enumerate(items):
        if parts:
            length += 1
        if idx is not None:
            offsets[idx] = length
        piece = word + ("." if k % 12 == 11 or k == len(items) - 1 else "")
        parts.append(piece)
        length += len(piece)
    return " ".join(parts), offsets


def grid_boxes(rng: random.Random, n: int) -> list[list[int]]:
    """n non-overlapping boxes, one per cell of a 3 x 2 grid."""
    if n > 6:
        raise ValueError("at most 6 image regions per document")
    cells = rng.sample(range(6), n)
    boxes = []
    for c in cells:
        x0, y0 = (c % 3) * 210 + rng.randrange(5, 30), (c // 3) * 235 + rng.randrange(5, 30)
        boxes.append([x0, y0, x0 + rng.randrange(120, 170), y0 + rng.randrange(150, 195)])
    return boxes


def confidence_at(rnd: int, rounds: int) -> float:
    """Distinct per round, so no adjustment repeats; the last one is final."""
    return round(FINAL_CONFIDENCE - 0.04 * (rounds - rnd), 2)


def roles_for_edge(rng: random.Random, etype: str) -> list[str]:
    rest = [r for r in SCHEMA[etype] if r not in REQUIRED[etype]]
    rng.shuffle(rest)
    return REQUIRED[etype] + rest


# ---------------------------------------------------------------------------
# run workloads


def make_run_doc(rng: random.Random, spec: RunSpec, doc_id: str, n_regions: int) -> dict:
    words = pseudo_words(rng, spec.mentions + spec.triggers)
    mentions = [w.capitalize() for w in words[:spec.mentions]]
    triggers = words[spec.mentions:]
    text, offsets = build_text(rng, mentions + triggers, spec.words)
    m_off = offsets[:spec.mentions]
    t_off = offsets[spec.mentions:]

    # the seeder lists mentions in text order, so vertex T<n> is the n-th
    order = sorted(range(spec.mentions), key=lambda i: m_off[i])
    vid = {m: f"T{rank + 1}" for rank, m in enumerate(order)}
    boxes = grid_boxes(rng, n_regions)

    pool = list(range(spec.mentions))
    rng.shuffle(pool)
    decoys, arg_pool = pool[:spec.decoys], pool[spec.decoys:]

    P, R = spec.triggers, spec.rounds
    if spec.edges > len(TYPES) * P or R > P or spec.decoys < R - 1:
        raise ValueError("spec cannot keep (type, trigger) pairs and per-round operations distinct")
    type_perms = [rng.sample(TYPES, len(TYPES)) for _ in range(P)]

    edges = []
    for k in range(spec.edges):
        etype = type_perms[k % P][k // P]
        roles = roles_for_edge(rng, etype)
        has_image = n_regions > 0 and spec.image_every > 0 and k % spec.image_every == 0
        n_args = min(len(roles), rng.choice((2, 3)))
        text_args = [(vid[m], roles[i], m_off[m], mentions[m])
                     for i, m in enumerate(rng.sample(arg_pool, n_args - int(has_image)))]
        image = None
        if has_image:
            region = (k // spec.image_every) % n_regions
            image = (f"O{region + 1}", roles[n_args - 1], boxes[region])
        edges.append({
            "id": f"HE{k + 1}", "alias": f"a{k}", "type": etype, "text": text_args, "image": image,
            # the first argument comes with the propose, the others are linked in round 1
            "links": [v for v, *_ in text_args[1:]] + ([image[0]] if image else []),
            # indices of the trigger words, revised every round; the last is the designed one
            "triggers": [(k % P + R - 1 - j) % P for j in range(R)],
            "decoys": [vid[decoys[(k + r) % spec.decoys]] for r in range(2, R + 1)],
        })

    scripts: dict[str, object] = {"0/seeder.json": [mentions[m] for m in order]}
    for r in range(1, R + 1):
        proposer, linker, verifier = [], [], []
        repeaters = set(rng.sample(range(spec.edges), round(spec.repeat_share * spec.edges))) if r > 1 else set()
        for k, e in enumerate(edges):
            target = e["alias"] if r == 1 else e["id"]
            t = e["triggers"][r - 1]
            if r == 1:
                # the proposer names the trigger word; revisers give offsets, as
                # read from the context, so only proposes are aligned to the text
                trig = {"text": triggers[t]}
                proposer.append({"op": "propose", "alias": e["alias"], "rationale": "designed event",
                                 "payload": {"event_type": e["type"], "trigger": trig,
                                             "members": [e["text"][0][0]]}})
                linker += [{"op": "link", "target": target, "payload": {"vertex": v},
                            "rationale": "designed argument"} for v in e["links"]]
            else:
                trig = {"start": t_off[t], "end": t_off[t] + len(triggers[t])}
                proposer.append({"op": "revise", "target": target, "payload": {"trigger": trig},
                                 "rationale": "better trigger"})
                linker.append({"op": "link", "target": target, "payload": {"vertex": e["decoys"][r - 2]},
                               "rationale": "possible participant"})
                if k in repeaters:
                    linker.append({"op": "link", "target": target, "payload": {"vertex": e["links"][0]},
                                   "rationale": "repeat of a committed link"})
            verifier.append({"op": "adjust_confidence", "target": target,
                             "payload": {"value": confidence_at(r, R)}, "rationale": "evidence"})
        scripts[f"{r}/proposer.json"] = proposer
        scripts[f"{r}/linker.json"] = linker
        scripts[f"{r}/verifier.json"] = verifier

    binder = []
    for e in edges:
        binder += [{"edge": e["id"], "vertex": v, "role": role, "confidence": ROLE_CONFIDENCE}
                   for v, role, _, _ in e["text"]]
        if e["image"]:
            _, role, box = e["image"]
            # IoU with the region is far above iou_align
            binder.append({"edge": e["id"], "box": [c + 2 for c in box], "role": role,
                           "confidence": ROLE_CONFIDENCE})
    scripts["0/binder.json"] = binder
    scripts["0/consolidator.json"] = []
    if n_regions:
        scripts["vision/describe.json"] = {"text": f"A photograph with {n_regions} marked regions."}
        scripts["vision/localize.json"] = [[{"box": b, "label": f"region {i + 1}", "score": 0.9}
                                            for i, b in enumerate(boxes)]]

    # consolidation orders text arguments by (position, role)
    gold = [{"event_type": e["type"], "trigger": triggers[e["triggers"][-1]],
             "text_arguments": [[role, s] for _, role, _, s in sorted(e["text"], key=lambda a: (a[2], a[1]))],
             "image_arguments": [[e["image"][1], e["image"][2]]] if e["image"] else []}
            for e in edges]

    doc = {"doc_id": doc_id, "text": text}
    if n_regions:
        doc.update(image_path=f"img/{doc_id}.jpg", width=IMAGE_W, height=IMAGE_H)
    main_calls = 1 + 3 * R + 2  # seeder, three roles per round, binder, consolidator
    return {"corpus": doc, "scripts": scripts, "gold": gold,
            "calls": {"main": main_calls, "vision": 2 if n_regions else 0}}


def generate_run(spec: RunSpec, rng: random.Random, out: Path) -> dict:
    corpus, gold, calls = [], [], {}
    for i in range(spec.docs):
        doc_id = f"d{i:04d}"
        d = make_run_doc(rng, spec, doc_id, spec.regions[i % len(spec.regions)])
        corpus.append(d["corpus"])
        gold.append({"doc_id": doc_id, "events": d["gold"]})
        calls[doc_id] = d["calls"]
        for rel, obj in d["scripts"].items():
            path = out / "scripts" / doc_id / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_dump(obj) + "\n", encoding="utf-8")
    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "gold.jsonl", gold)
    return {"calls": calls,
            "total_calls": sum(c["main"] + c["vision"] for c in calls.values()),
            "events": sum(len(g["events"]) for g in gold)}


# ---------------------------------------------------------------------------
# audit workload

# Each perturbation changes the gold copy of one event (or adds a gold-only
# event) so that it lands in exactly one error class and span relation.
KINDS = ("spurious_type", "missing", "trigger_mismatch", "contains", "contained_by",
         "overlap", "none", "role_swap_text", "loc_error", "role_swap_image", "extra_image")
IMAGE_KINDS = ("loc_error", "role_swap_image", "extra_image")
SPAN_KINDS = {"contains": "Contains", "contained_by": "Contained-by", "overlap": "Overlap", "none": "None"}
SPURIOUS_TYPE = "Transaction:TransferMoney"  # never in gold, so its predictions have no gold type
GOLD_TYPES = [t for t in TYPES if t != SPURIOUS_TYPE]
AUDIT_W = AUDIT_H = 1600
CELL, STRIDE = 40, 50  # 32 x 32 grid of non-overlapping boxes


def _zero_report() -> dict:
    return {
        "em": {"matched": 0, "predicted": 0, "gold": 0},
        "ar": {"matched": 0, "predicted": 0, "gold": 0},
        "em_errors": {k: 0 for k in ("spurious_type", "missing", "trigger_mismatch")},
        "ar_errors": {k: 0 for k in ("spurious", "span_mismatch", "role_misassignment",
                                     "no_gold_event_type", "localization_error")},
        "span_relations": {k: 0 for k in ("No-gold", "Exact", "None", "Contained-by", "Contains", "Overlap")},
    }


def make_audit_doc(rng: random.Random, spec: AuditSpec, doc_id: str, expect: dict) -> dict:
    kinds: list[str] = []
    for kind in KINDS:
        kinds += [kind] * rng.randint(*spec.per_kind)
    n_missing = kinds.count("missing")
    pred_kinds = [k for k in kinds if k != "missing"]
    pred_kinds += ["exact"] * (spec.events - len(pred_kinds))
    rng.shuffle(pred_kinds)
    n_img = sum(1 for i, k in enumerate(pred_kinds) if k in IMAGE_KINDS or i % 3 == 0)
    if n_img + 20 > (AUDIT_W // STRIDE) ** 2:
        raise ValueError("too many image arguments for the box grid")

    n = len(pred_kinds)
    words = pseudo_words(rng, n + 4 * n + spec.decoys + 8 * len(kinds))
    triggers, words = words[:n], words[n:]
    mention_words, words = words[:4 * n], words[4 * n:]
    decoy_words, fresh = words[:spec.decoys], iter(words[spec.decoys:])
    mentions = [f"{a.capitalize()} {b.capitalize()}" for a, b in zip(mention_words[::2], mention_words[1::2])]
    decoys = [w.capitalize() for w in decoy_words]
    units = triggers + mentions + decoys
    text, offsets = build_text(rng, units, sum(len(u.split()) for u in units) + spec.filler)
    t_off = offsets[:n]
    m_off = offsets[n:n + len(mentions)]
    d_off = offsets[n + len(mentions):]

    # text vertices in text order, then one image vertex per image argument
    spans = [(m_off[i], mentions[i]) for i in range(len(mentions))] + \
            [(d_off[i], decoys[i]) for i in range(len(decoys))]
    spans.sort()
    vid_at = {start: f"T{i + 1}" for i, (start, _) in enumerate(spans)}
    vertices = [{"id": vid_at[s], "localization": {"kind": "text", "start": s, "end": s + len(w)},
                 "surface": w} for s, w in spans]
    cells = rng.sample(range((AUDIT_W // STRIDE) ** 2), n_img + 8 * len(kinds))
    reserved = iter(cells[n_img:])  # cells no prediction uses

    def cell_box(c: int) -> list[int]:
        x, y = (c % (AUDIT_W // STRIDE)) * STRIDE, (c // (AUDIT_W // STRIDE)) * STRIDE
        return [x, y, x + CELL, y + CELL]

    per_type = {t: 0 for t in TYPES}
    events, n_image_vertices = [], 0
    for i, kind in enumerate(pred_kinds):
        etype = SPURIOUS_TYPE if kind == "spurious_type" else GOLD_TYPES[rng.randrange(len(GOLD_TYPES))]
        roles = SCHEMA[etype]
        c = per_type[etype]
        per_type[etype] += 1
        text_roles = [roles[c % len(roles)], roles[(c + 1) % len(roles)]]
        ev = {"id": f"HE{i + 1}", "kind": kind, "type": etype, "trigger": triggers[i],
              "trigger_span": [t_off[i], t_off[i] + len(triggers[i])],
              "text": [(vid_at[m_off[2 * i + j]], text_roles[j], mentions[2 * i + j], m_off[2 * i + j])
                       for j in range(2)],
              "image": None}
        if kind in IMAGE_KINDS or i % 3 == 0:
            box = cell_box(cells[n_image_vertices])
            n_image_vertices += 1
            ev["image"] = (f"O{n_image_vertices}", roles[(c + 2) % len(roles)], box)
            vertices.append({"id": ev["image"][0], "localization": {"kind": "image", "bbox": box},
                             "surface": f"region {n_image_vertices}"})
        events.append(ev)

    # every (type, role) a trigger-mismatched argument carries must also occur
    # in gold with another text, so such arguments count as span mismatches
    gold_roles = {(e["type"], role) for e in events if e["kind"] == "exact" for _, role, _, _ in e["text"]}
    for e in events:
        if e["kind"] == "trigger_mismatch":
            for _, role, _, _ in e["text"]:
                if (e["type"], role) not in gold_roles:
                    raise ValueError(f"{doc_id}: no gold {e['type']}/{role} besides a mismatched event")

    preds, gold = [], []
    for e in events:
        text_args = [[role, surface] for _, role, surface, _ in sorted(e["text"], key=lambda a: (a[3], a[1]))]
        image_args = [[e["image"][1], e["image"][2]]] if e["image"] else []
        pred = {"event_type": e["type"], "trigger": e["trigger"], "text_arguments": text_args,
                "image_arguments": [list(a) for a in image_args]}
        g = json.loads(json.dumps(pred))
        kind = e["kind"]
        if kind == "extra_image":
            pred["image_arguments"].append([image_args[0][0], [v + 3 for v in image_args[0][1]]])
        elif kind == "trigger_mismatch":
            g["trigger"] = next(fresh)
        elif kind == "contains":  # gold keeps only the first word
            g["text_arguments"][0][1] = text_args[0][1].split()[0]
        elif kind == "contained_by":
            g["text_arguments"][0][1] = f"{text_args[0][1]} {next(fresh).capitalize()}"
        elif kind == "overlap":
            g["text_arguments"][0][1] = f"{text_args[0][1].split()[1]} {next(fresh).capitalize()}"
        elif kind == "none":
            g["text_arguments"][0][1] = f"{next(fresh).capitalize()} {next(fresh).capitalize()}"
        elif kind == "role_swap_text":
            (r0, s0), (r1, s1) = g["text_arguments"]
            g["text_arguments"] = [[r1, s0], [r0, s1]]
        elif kind == "loc_error":
            g["image_arguments"][0][1] = cell_box(next(reserved))
        elif kind == "role_swap_image":
            role = g["image_arguments"][0][0]
            g["image_arguments"][0][0] = next(r for r in SCHEMA[e["type"]] if r != role)
        pred["confidence"] = {"event": 1.0,
                              "text_arguments": [ROLE_CONFIDENCE] * len(pred["text_arguments"]),
                              "image_arguments": [ROLE_CONFIDENCE] * len(pred["image_arguments"])}
        preds.append(pred)
        if kind != "spurious_type":
            gold.append(g)
        _expect_event(expect, kind, len(image_args), len(pred["image_arguments"]))
    for _ in range(n_missing):
        etype = GOLD_TYPES[rng.randrange(len(GOLD_TYPES))]
        roles = SCHEMA[etype]
        gold.append({"event_type": etype, "trigger": next(fresh), "image_arguments": [],
                     "text_arguments": [[roles[j], f"{next(fresh).capitalize()} {next(fresh).capitalize()}"]
                                        for j in range(2)]})
        _expect_event(expect, "missing", 0, 0)
    rng.shuffle(gold)

    state = _audit_state(events, vertices, decoys, d_off, vid_at, triggers, t_off, spec.rounds)
    doc = {"doc_id": doc_id, "text": text, "image_path": f"img/{doc_id}.jpg",
           "width": AUDIT_W, "height": AUDIT_H}
    return {"corpus": doc, "state": state, "preds": preds, "gold": gold}


def _expect_event(expect: dict, kind: str, gold_images: int, pred_images: int) -> None:
    """Add one designed event's contribution to the expected eval report."""
    em, ar, eme, are, span = (expect[k] for k in ("em", "ar", "em_errors", "ar_errors", "span_relations"))
    if kind == "missing":
        em["gold"] += 1
        ar["gold"] += 2
        eme["missing"] += 1
        return
    em["predicted"] += 1
    ar["predicted"] += 2 + pred_images
    if kind == "spurious_type":
        eme["spurious_type"] += 1
        are["no_gold_event_type"] += 2 + pred_images
        span["No-gold"] += 2
        return
    em["gold"] += 1
    ar["gold"] += 2 + gold_images
    if kind == "trigger_mismatch":
        eme["trigger_mismatch"] += 1
        eme["missing"] += 1
        are["span_mismatch"] += 2
        are["spurious"] += pred_images
        span["Exact"] += 2
        return
    em["matched"] += 1
    if kind in SPAN_KINDS:
        ar["matched"] += 1 + gold_images
        are["span_mismatch"] += 1
        span["Exact"] += 1
        span[SPAN_KINDS[kind]] += 1
        return
    span["Exact"] += 2
    if kind == "exact":
        ar["matched"] += 2 + gold_images
    elif kind == "role_swap_text":
        ar["matched"] += gold_images
        are["role_misassignment"] += 2
    elif kind == "loc_error":
        ar["matched"] += 2
        are["localization_error"] += 1
    elif kind == "role_swap_image":
        ar["matched"] += 2
        are["role_misassignment"] += 1
    elif kind == "extra_image":
        ar["matched"] += 3
        are["spurious"] += 1
    else:
        raise ValueError(kind)


def _audit_state(events, vertices, decoys, d_off, vid_at, triggers, t_off, rounds) -> dict:
    """Negotiation-final state and the trail that rebuilds it, as `run` writes them."""
    n = len(events)
    decoy_ids = [vid_at[d_off[i]] for i in range(len(decoys))]
    trail = []

    def entry(agent, op, target, payload, rnd):
        trail.append({"agent_id": agent, "op_type": op, "target": target, "payload": payload, "round": rnd})

    def trig(k, rnd):  # revised each round; round `rounds` lands on the event's own trigger
        j = (k + rounds - rnd) % n
        return {"start": t_off[j], "end": t_off[j] + len(triggers[j])}

    members = {e["id"]: {e["text"][0][0]} for e in events}
    for r in range(1, rounds + 1):
        for k, e in enumerate(events):
            if r == 1:
                entry("proposer", "propose", e["id"], {"event_type": e["type"], "trigger": trig(k, r),
                                                       "members": [e["text"][0][0]]}, r)
            else:
                entry("proposer", "revise", e["id"], {"trigger": trig(k, r)}, r)
        for k, e in enumerate(events):
            if r == 1:
                links = [e["text"][1][0]] + ([e["image"][0]] if e["image"] else [])
            else:
                links = [decoy_ids[(k + r) % len(decoy_ids)]]
            for v in links:
                entry("linker", "link", e["id"], {"vertex": v}, r)
                members[e["id"]].add(v)
        for e in events:
            entry("verifier", "adjust_confidence", e["id"], {"value": confidence_at(r, rounds)}, r)

    def sort_key(vid):
        return (0 if vid[0] == "T" else 1, int(vid[1:]))

    edges = [{"id": e["id"], "event_type": e["type"], "members": sorted(members[e["id"]], key=sort_key),
              "trigger": {"start": e["trigger_span"][0], "end": e["trigger_span"][1]},
              "trigger_surface": e["trigger"], "roles": [], "confidence": FINAL_CONFIDENCE}
             for e in events]
    n_text = sum(1 for v in vertices if v["localization"]["kind"] == "text")
    return {"vertices": vertices, "edges": edges, "trail": trail,
            "counters": {"text": n_text + 1, "image": len(vertices) - n_text + 1, "edge": n + 1}}


def generate_audit(spec: AuditSpec, rng: random.Random, out: Path) -> dict:
    expect = _zero_report()
    corpus, preds, gold = [], [], []
    (out / "states").mkdir(parents=True, exist_ok=True)
    for i in range(spec.docs):
        doc_id = f"a{i:04d}"
        d = make_audit_doc(rng, spec, doc_id, expect)
        corpus.append(d["corpus"])
        preds.append({"doc_id": doc_id, "events": d["preds"]})
        gold.append({"doc_id": doc_id, "events": d["gold"]})
        (out / "states" / f"{doc_id}.json").write_text(_dump(d["state"]), encoding="utf-8")
    expect["ar_errors"]["total"] = sum(expect["ar_errors"].values())
    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "predictions.jsonl", preds)
    _write_jsonl(out / "gold.jsonl", gold)
    return {"expected_report": expect}


# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(_dump(r) + "\n" for r in rows), encoding="utf-8")


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the workload's inputs under `out`; return (and write) design.json."""
    spec = WORKLOADS[workload]
    if scale != 1.0:
        spec = spec.scaled(scale)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, AuditSpec):
        design = generate_audit(spec, rng, out)
    else:
        design = generate_run(spec, rng, out)
    design.update(workload=workload, seed=seed, scale=scale, docs=spec.docs)
    (out / "design.json").write_text(_dump(design) + "\n", encoding="utf-8")
    return design


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="document size factor (0.5 = half)")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
