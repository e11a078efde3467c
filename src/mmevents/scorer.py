"""Event extraction evaluation: P/R/F1 for event mentions and argument
roles across textual / visual / multimedia settings, error taxonomies,
span-relation profiling, and over-generation statistics.

Pure functions of (predictions, gold, setting). Text grounding uses the
same normalization as the pipeline's span alignment; visual grounding
matches when IoU with an unconsumed gold box is at least 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass

from .boxes import iou
from .errors import UnknownSetting
from .schema import EventRecord
from .textnorm import norm_tokens, normalize

SETTINGS = ("textual", "visual", "multimedia")
IOU_THRESHOLD = 0.5

AR_ERROR_KEYS = (
    "spurious",
    "span_mismatch",
    "role_misassignment",
    "no_gold_event_type",
    "localization_error",
)
EM_ERROR_KEYS = ("spurious_type", "missing", "trigger_mismatch")
SPAN_RELATIONS = ("No-gold", "Exact", "None", "Contained-by", "Contains", "Overlap")


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted: int
    gold: int

    @classmethod
    def from_counts(cls, matched: int, predicted: int, gold: int) -> "PRF":
        p = matched / predicted if predicted else 0.0
        r = matched / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, matched, predicted, gold)

    def to_json(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "matched": self.matched,
            "predicted": self.predicted,
            "gold": self.gold,
        }


def _check_setting(setting: str) -> None:
    if setting not in SETTINGS:
        raise UnknownSetting(f"setting must be one of {SETTINGS}, got {setting!r}")


def _ordered_preds(preds: list[EventRecord]) -> list[EventRecord]:
    """Emitted order, confidence-descending when every record carries one."""
    confs = [
        (p.confidence or {}).get("event") if isinstance(p.confidence, dict) else None
        for p in preds
    ]
    if preds and all(c is not None for c in confs):
        return [p for _c, _i, p in sorted(
            ((-confs[i], i, p) for i, p in enumerate(preds))
        )]
    return list(preds)


def _em_match(pred: EventRecord, gold: EventRecord, setting: str) -> bool:
    if pred.event_type != gold.event_type:
        return False
    if setting == "visual":
        return True
    return normalize(pred.trigger) == normalize(gold.trigger)


def match_events(
    preds: list[EventRecord], golds: list[EventRecord], setting: str
) -> list[tuple[int, int]]:
    """Greedy one-to-one event matching in prediction order."""
    pairs = []
    consumed: set[int] = set()
    ordered = _ordered_preds(preds)
    index_of = {id(p): i for i, p in enumerate(preds)}
    for pred in ordered:
        for j, gold in enumerate(golds):
            if j in consumed:
                continue
            if _em_match(pred, gold, setting):
                consumed.add(j)
                pairs.append((index_of[id(pred)], j))
                break
    return pairs


def _args_of(rec: EventRecord) -> list[tuple[str, str, object]]:
    """Flatten arguments as (modality, role, grounding)."""
    out = [("text", role, text) for role, text in rec.text_arguments]
    out += [("image", role, list(box)) for role, box in rec.image_arguments]
    return out


def _match_args(pred: EventRecord, gold: EventRecord) -> tuple[int, list[tuple[str, str, object]]]:
    """Greedy argument matching inside one matched event pair.

    Returns (matched count, unmatched predicted arguments).
    """
    gold_args = _args_of(gold)
    consumed: set[int] = set()
    matched = 0
    unmatched = []
    for modality, role, grounding in _args_of(pred):
        hit = None
        for j, (g_mod, g_role, g_ground) in enumerate(gold_args):
            if j in consumed or g_mod != modality or g_role != role:
                continue
            if modality == "text":
                if normalize(grounding) == normalize(g_ground):
                    hit = j
                    break
            else:
                if iou(grounding, g_ground) >= IOU_THRESHOLD:
                    hit = j
                    break
        if hit is None:
            unmatched.append((modality, role, grounding))
        else:
            consumed.add(hit)
            matched += 1
    return matched, unmatched


# ---------------------------------------------------------------------------
# error taxonomies


def _gold_args_by_type(golds: list[EventRecord]) -> dict:
    by_type: dict[str, list[tuple[str, str, object]]] = {}
    for g in golds:
        by_type.setdefault(g.event_type, []).extend(_args_of(g))
    return by_type


def _classify_one(modality, role, grounding, type_gold_args) -> str:
    """Decision order fixes the taxonomy as a deterministic partition."""
    if not type_gold_args:
        return "no_gold_event_type"
    if modality == "image":
        passing = [
            (g_role, g_ground)
            for g_mod, g_role, g_ground in type_gold_args
            if g_mod == "image" and iou(grounding, g_ground) >= IOU_THRESHOLD
        ]
        if not passing:
            return "localization_error"
        if any(g_role != role for g_role, _ in passing):
            return "role_misassignment"
        return "spurious"
    exact = [
        g_role
        for g_mod, g_role, g_ground in type_gold_args
        if g_mod == "text" and normalize(g_ground) == normalize(grounding)
    ]
    if exact and any(g_role != role for g_role in exact):
        return "role_misassignment"
    same_role = [
        g_ground
        for g_mod, g_role, g_ground in type_gold_args
        if g_mod == "text" and g_role == role and normalize(g_ground) != normalize(grounding)
    ]
    if same_role:
        return "span_mismatch"
    return "spurious"


# ---------------------------------------------------------------------------
# span relations


def span_relation(pred_text: str, gold_text) -> str:
    if gold_text is None:
        return "No-gold"
    p = norm_tokens(pred_text)
    g = norm_tokens(gold_text)
    if p == g:
        return "Exact"
    if _contiguous_subseq(g, p):
        return "Contains"
    if _contiguous_subseq(p, g):
        return "Contained-by"
    if set(p) & set(g):
        return "Overlap"
    return "None"


def _contiguous_subseq(needle: list[str], haystack: list[str]) -> bool:
    if not needle or len(needle) >= len(haystack):
        return False
    return any(haystack[i:i + len(needle)] == needle for i in range(len(haystack) - len(needle) + 1))


_RELATION_PRIORITY = {r: i for i, r in enumerate(
    ("Exact", "Contained-by", "Contains", "Overlap", "None")
)}


def span_profile(preds_by_doc: dict, golds_by_doc: dict) -> dict:
    """Relation of every predicted text argument to its best gold text
    candidate under the same event type."""
    counts = {k: 0 for k in SPAN_RELATIONS}
    for doc_id in sorted(set(preds_by_doc) | set(golds_by_doc)):
        preds = preds_by_doc.get(doc_id, [])
        golds = golds_by_doc.get(doc_id, [])
        gold_texts: dict[str, list[str]] = {}
        for g in golds:
            gold_texts.setdefault(g.event_type, []).extend(t for _r, t in g.text_arguments)
        for pred in preds:
            candidates = gold_texts.get(pred.event_type, [])
            for _role, text in pred.text_arguments:
                if not candidates:
                    counts["No-gold"] += 1
                    continue
                best = min(
                    (span_relation(text, c) for c in candidates),
                    key=lambda r: _RELATION_PRIORITY[r],
                )
                counts[best] += 1
    return counts


# ---------------------------------------------------------------------------
# over-generation


def overgen_stats(predicted: int, matched: int, gold: int) -> dict:
    out = {
        "pred": predicted,
        "matched": matched,
        "gold": gold,
        "fp": predicted - matched,
        "precision": matched / predicted if predicted else 0.0,
        "recall": matched / gold if gold else 0.0,
        "overgen": predicted / gold if gold else None,
    }
    return out


# ---------------------------------------------------------------------------
# full report


def evaluate(preds_by_doc: dict, golds_by_doc: dict, setting: str) -> dict:
    """Full report. Each document's events are matched once; EM, AR, both
    error taxonomies and over-generation all derive from that matching."""
    _check_setting(setting)
    em_matched = em_pred = em_gold = 0
    ar_matched = ar_pred = ar_gold = 0
    em_errors = {k: 0 for k in EM_ERROR_KEYS}
    ar_errors = {k: 0 for k in AR_ERROR_KEYS}
    for doc_id in sorted(set(preds_by_doc) | set(golds_by_doc)):
        preds = preds_by_doc.get(doc_id, [])
        golds = golds_by_doc.get(doc_id, [])
        pairs = dict(match_events(preds, golds, setting))
        em_matched += len(pairs)
        em_pred += len(preds)
        em_gold += len(golds)
        em_errors["missing"] += len(golds) - len(pairs)
        ar_pred += sum(len(_args_of(p)) for p in preds)
        ar_gold += sum(len(_args_of(g)) for g in golds)
        gold_types = {g.event_type for g in golds}
        by_type = _gold_args_by_type(golds)
        for pi, pred in enumerate(preds):
            if pi in pairs:
                matched, unmatched = _match_args(pred, golds[pairs[pi]])
                ar_matched += matched
            else:
                unmatched = _args_of(pred)
                if setting != "visual" and pred.event_type in gold_types:
                    em_errors["trigger_mismatch"] += 1
                else:
                    em_errors["spurious_type"] += 1
            for modality, role, grounding in unmatched:
                key = _classify_one(modality, role, grounding, by_type.get(pred.event_type, []))
                ar_errors[key] += 1
    ar_errors["total"] = sum(ar_errors[k] for k in AR_ERROR_KEYS)
    em = PRF.from_counts(em_matched, em_pred, em_gold)
    ar = PRF.from_counts(ar_matched, ar_pred, ar_gold)
    return {
        "setting": setting,
        "em": em.to_json(),
        "ar": ar.to_json(),
        "em_errors": em_errors,
        "ar_errors": ar_errors,
        "span_relations": span_profile(preds_by_doc, golds_by_doc),
        "overgen": overgen_stats(ar.predicted, ar.matched, ar.gold),
    }


def render_report(report: dict) -> str:
    lines = [f"setting: {report['setting']}"]
    for task in ("em", "ar"):
        r = report[task]
        lines.append(
            f"  {task.upper():3s} P={r['precision']:.3f} R={r['recall']:.3f} "
            f"F1={r['f1']:.3f} (matched {r['matched']}/{r['predicted']} pred, {r['gold']} gold)"
        )
    lines.append("  EM errors: " + ", ".join(f"{k}={v}" for k, v in report["em_errors"].items()))
    lines.append("  AR errors: " + ", ".join(f"{k}={v}" for k, v in report["ar_errors"].items()))
    lines.append("  span relations: " + ", ".join(f"{k}={v}" for k, v in report["span_relations"].items()))
    og = report["overgen"]
    overgen = "n/a" if og["overgen"] is None else f"{og['overgen']:.2f}"
    lines.append(f"  over-generation: pred={og['pred']} gold={og['gold']} ratio={overgen}")
    return "\n".join(lines)
