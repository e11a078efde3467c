"""Event extraction evaluation: P/R/F1 for event mentions and argument
roles across textual / visual / multimedia settings, error taxonomies,
span-relation profiling, and over-generation statistics.

Pure functions of (predictions, gold, setting). Text grounding uses the
same normalization as the pipeline's span alignment; visual grounding
matches when IoU with an unconsumed gold box is at least 0.5.
"""
from __future__ import annotations

from collections import deque
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


def _prediction_order(preds: list[EventRecord]) -> list[int]:
    """Indices in emitted order, confidence-descending when every record
    carries one."""
    confs = [p.confidence.get("event") if isinstance(p.confidence, dict) else None for p in preds]
    if preds and all(c is not None for c in confs):
        return sorted(range(len(preds)), key=lambda i: (-confs[i], i))
    return list(range(len(preds)))


def _event_key(rec: EventRecord, setting: str):
    """What an event must share with a gold event to match it."""
    return rec.event_type if setting == "visual" else (rec.event_type, normalize(rec.trigger))


def match_events(
    preds: list[EventRecord], golds: list[EventRecord], setting: str
) -> list[tuple[int, int]]:
    """Greedy one-to-one event matching in prediction order: each
    prediction takes the first unconsumed gold with its key."""
    free: dict[object, deque[int]] = {}
    for j, gold in enumerate(golds):
        free.setdefault(_event_key(gold, setting), deque()).append(j)
    pairs = []
    for i in _prediction_order(preds):
        slots = free.get(_event_key(preds[i], setting))
        if slots:
            pairs.append((i, slots.popleft()))
    return pairs


def _args_of(rec: EventRecord) -> list[tuple[str, str, object]]:
    """Flatten arguments as (modality, role, grounding): a text grounding
    is its normalized token tuple, an image grounding its box."""
    out = [("text", role, tuple(norm_tokens(text))) for role, text in rec.text_arguments]
    out += [("image", role, box) for role, box in rec.image_arguments]
    return out


def _match_args(pred_args: list, gold_args: list) -> tuple[int, list[tuple[str, str, object]]]:
    """Greedy argument matching inside one matched event pair.

    Returns (matched count, unmatched predicted arguments).
    """
    consumed: set[int] = set()
    unmatched = []
    for modality, role, grounding in pred_args:
        for j, (g_mod, g_role, g_ground) in enumerate(gold_args):
            if j in consumed or g_mod != modality or g_role != role:
                continue
            if g_ground == grounding if modality == "text" else iou(grounding, g_ground) >= IOU_THRESHOLD:
                consumed.add(j)
                break
        else:
            unmatched.append((modality, role, grounding))
    return len(consumed), unmatched


# ---------------------------------------------------------------------------
# error taxonomies


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
    text_args = [(g_role, g_ground) for g_mod, g_role, g_ground in type_gold_args if g_mod == "text"]
    if any(g_ground == grounding and g_role != role for g_role, g_ground in text_args):
        return "role_misassignment"
    if any(g_role == role and g_ground != grounding for g_role, g_ground in text_args):
        return "span_mismatch"
    return "spurious"


# ---------------------------------------------------------------------------
# span relations


def span_relation(pred: tuple[str, ...], gold: tuple[str, ...]) -> str:
    """Relation of predicted to gold normalized tokens."""
    if pred == gold:
        return "Exact"
    if _contiguous_subseq(gold, pred):
        return "Contains"
    if _contiguous_subseq(pred, gold):
        return "Contained-by"
    if set(pred) & set(gold):
        return "Overlap"
    return "None"


def _contiguous_subseq(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    if not needle or len(needle) >= len(haystack):
        return False
    return any(haystack[i:i + len(needle)] == needle for i in range(len(haystack) - len(needle) + 1))


_RELATION_PRIORITY = {r: i for i, r in enumerate(
    ("Exact", "Contained-by", "Contains", "Overlap", "None")
)}


def _best_relation(tokens: tuple[str, ...], candidates: set) -> str:
    """Relation to the best gold text candidate under the same event type."""
    if not candidates:
        return "No-gold"
    if tokens in candidates:
        return "Exact"
    return min((span_relation(tokens, c) for c in candidates), key=_RELATION_PRIORITY.__getitem__)


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
    """Full report in one pass over the documents. Each document's
    arguments are normalized once and its events matched once; EM, AR,
    both error taxonomies, span relations and over-generation all derive
    from that."""
    _check_setting(setting)
    em_matched = em_pred = em_gold = 0
    ar_matched = ar_pred = ar_gold = 0
    em_errors = {k: 0 for k in EM_ERROR_KEYS}
    ar_errors = {k: 0 for k in AR_ERROR_KEYS}
    relations = {k: 0 for k in SPAN_RELATIONS}
    for doc_id in sorted(set(preds_by_doc) | set(golds_by_doc)):
        preds = preds_by_doc.get(doc_id, [])
        golds = golds_by_doc.get(doc_id, [])
        pred_args = [_args_of(p) for p in preds]
        gold_args = [_args_of(g) for g in golds]
        by_type: dict[str, list[tuple[str, str, object]]] = {}
        for gold, args in zip(golds, gold_args):
            by_type.setdefault(gold.event_type, []).extend(args)
        gold_texts = {t: {g for m, _r, g in args if m == "text"} for t, args in by_type.items()}
        pairs = dict(match_events(preds, golds, setting))
        em_matched += len(pairs)
        em_pred += len(preds)
        em_gold += len(golds)
        em_errors["missing"] += len(golds) - len(pairs)
        ar_pred += sum(map(len, pred_args))
        ar_gold += sum(map(len, gold_args))
        for pi, (pred, args) in enumerate(zip(preds, pred_args)):
            if pi in pairs:
                matched, unmatched = _match_args(args, gold_args[pairs[pi]])
                ar_matched += matched
            else:
                unmatched = args
                if setting != "visual" and pred.event_type in by_type:
                    em_errors["trigger_mismatch"] += 1
                else:
                    em_errors["spurious_type"] += 1
            type_args = by_type.get(pred.event_type, [])
            for modality, role, grounding in unmatched:
                ar_errors[_classify_one(modality, role, grounding, type_args)] += 1
            candidates = gold_texts.get(pred.event_type, set())
            for modality, _role, tokens in args:
                if modality == "text":
                    relations[_best_relation(tokens, candidates)] += 1
    ar_errors["total"] = sum(ar_errors[k] for k in AR_ERROR_KEYS)
    em = PRF.from_counts(em_matched, em_pred, em_gold)
    ar = PRF.from_counts(ar_matched, ar_pred, ar_gold)
    return {
        "setting": setting,
        "em": em.to_json(),
        "ar": ar.to_json(),
        "em_errors": em_errors,
        "ar_errors": ar_errors,
        "span_relations": relations,
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
