import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load_records
from mmevents import scorer
from mmevents.errors import UnknownSetting
from mmevents.schema import EventRecord
from mmevents.scorer import (
    PRF,
    SETTINGS,
    evaluate,
    match_events,
    overgen_stats,
    render_report,
    span_relation,
)
from mmevents.textnorm import normalize, norm_tokens


def ev(etype, trigger="", text=(), image=(), conf=None):
    return EventRecord(
        event_type=etype, trigger=trigger,
        text_arguments=[tuple(a) for a in text],
        image_arguments=[(r, list(b)) for r, b in image],
        confidence={"event": conf} if conf is not None else None,
    )


def test_prf_zero_division_conventions():
    assert PRF.from_counts(0, 0, 0) == PRF(0.0, 0.0, 0.0, 0, 0, 0)
    assert PRF.from_counts(0, 5, 0).precision == 0.0
    assert PRF.from_counts(2, 4, 8) == PRF(0.5, 0.25, pytest.approx(1 / 3), 2, 4, 8)


def test_unknown_setting_raises():
    with pytest.raises(UnknownSetting):
        evaluate({}, {}, "audio")


def test_match_events_greedy_one_to_one():
    preds = [ev("Conflict:Attack", "bombed"), ev("Conflict:Attack", "bombed")]
    golds = [ev("Conflict:Attack", "bombed")]
    assert match_events(preds, golds, "textual") == [(0, 0)]


def test_match_events_confidence_order():
    preds = [ev("Conflict:Attack", "struck", conf=0.3),
             ev("Conflict:Attack", "bombed", conf=0.9)]
    golds = [ev("Conflict:Attack", "bombed")]
    # higher-confidence prediction is matched first
    assert match_events(preds, golds, "textual") == [(1, 0)]


def test_match_events_trigger_normalized():
    preds = [ev("Conflict:Attack", "Bombed,")]
    golds = [ev("Conflict:Attack", "bombed")]
    assert match_events(preds, golds, "textual") == [(0, 0)]


def _reference_match(preds, golds, setting):
    """Nested-loop greedy matching: predictions in emitted order, or by
    descending confidence when all carry one, each taking the first
    unconsumed gold of its type (and normalized trigger, outside visual)."""
    confs = [p.confidence["event"] if p.confidence else None for p in preds]
    order = list(range(len(preds)))
    if preds and None not in confs:
        order.sort(key=lambda i: -confs[i])  # stable: ties keep emitted order
    pairs, consumed = [], set()
    for i in order:
        for j, g in enumerate(golds):
            if j in consumed or g.event_type != preds[i].event_type:
                continue
            if setting == "visual" or normalize(g.trigger) == normalize(preds[i].trigger):
                consumed.add(j)
                pairs.append((i, j))
                break
    return pairs


record_st = st.builds(
    lambda etype, trigger, conf: ev(etype, trigger, conf=conf),
    st.sampled_from(["Conflict:Attack", "Life:Die"]),
    st.sampled_from(["bombed", "Bombed", "bombed,", "(BOMBED)", "died", "Died."]),
    st.none() | st.sampled_from([0.2, 0.5, 0.9, 1]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(record_st, max_size=8), st.lists(record_st, max_size=8),
       st.sampled_from(["all", "some", "none"]), st.sampled_from(SETTINGS))
def test_match_events_equals_nested_loop_reference(preds, golds, confidences, setting):
    if confidences == "all":
        preds = [p if p.confidence else ev(p.event_type, p.trigger, conf=0.5) for p in preds]
    elif confidences == "none":
        preds = [ev(p.event_type, p.trigger) for p in preds]
    assert match_events(preds, golds, setting) == _reference_match(preds, golds, setting)


def test_visual_setting_ignores_trigger():
    preds = [ev("Conflict:Attack", "anything")]
    golds = [ev("Conflict:Attack", "")]
    assert match_events(preds, golds, "visual") == [(0, 0)]
    assert match_events(preds, golds, "multimedia") == []


def test_argument_matching_text_and_image():
    preds = {"d": [ev("Conflict:Attack", "bombed",
                      text=[("Attacker", "the rebels")],
                      image=[("Target", [0, 0, 100, 50])])]}
    golds = {"d": [ev("Conflict:Attack", "bombed",
                      text=[("Attacker", "The rebels")],
                      image=[("Target", [0, 0, 100, 100])])]}
    ar = evaluate(preds, golds, "multimedia")["ar"]
    # text matches by normalized equality; IoU exactly 0.5 counts as a match
    assert ar["matched"] == 2 and ar["predicted"] == 2 and ar["gold"] == 2
    assert ar["f1"] == 1.0


def test_ar_errors_decision_order():
    golds = {"d": [ev("Conflict:Attack", "bombed",
                      text=[("Attacker", "rebels"), ("Place", "Aleppo")],
                      image=[("Target", [0, 0, 100, 100])])]}
    preds = {"d": [ev("Conflict:Attack", "bombed",
                      text=[("Target", "rebels"),      # right span, wrong role
                            ("Place", "the city"),     # right role, wrong span
                            ("Instrument", "knife")],  # no such gold arg at all
                      image=[("Target", [500, 500, 600, 600]),  # no overlapping box
                             ("Attacker", [0, 0, 100, 95])]),   # box hits a Target
                   ev("Life:Die", "died", text=[("Victim", "men")])]}
    errs = evaluate(preds, golds, "multimedia")["ar_errors"]
    assert errs["role_misassignment"] == 2
    assert errs["span_mismatch"] == 1
    assert errs["spurious"] == 1
    assert errs["localization_error"] == 1
    assert errs["no_gold_event_type"] == 1
    assert errs["total"] == 6


def test_em_errors():
    golds = {"d": [ev("Conflict:Attack", "bombed"), ev("Life:Die", "died")]}
    preds = {"d": [ev("Conflict:Attack", "struck", conf=0.9),
                   ev("Contact:Meet", "met", conf=0.8)]}
    errs = evaluate(preds, golds, "textual")["em_errors"]
    assert errs == {"spurious_type": 1, "trigger_mismatch": 1, "missing": 2}
    # trigger mismatches cannot exist in the visual setting
    errs_v = evaluate(preds, golds, "visual")["em_errors"]
    assert errs_v["trigger_mismatch"] == 0


@pytest.mark.parametrize("pred,gold,rel", [
    ("The convoy", "the convoy", "Exact"),
    ("convoy", "the convoy", "Contained-by"),
    ("the big convoy", "big", "Contains"),
    ("the convoy", "convoy route", "Overlap"),
    ("tanks", "the convoy", "None"),
])
def test_span_relation(pred, gold, rel):
    assert span_relation(tuple(norm_tokens(pred)), tuple(norm_tokens(gold))) == rel


def test_span_profile_picks_best_relation():
    golds = {"d": [ev("Conflict:Attack", "x", text=[("Attacker", "rebels"),
                                                    ("Place", "the town of Aleppo")])]}
    preds = {"d": [ev("Conflict:Attack", "x", text=[("Attacker", "rebels"),
                                                    ("Place", "Aleppo")]),
                   ev("Life:Die", "y", text=[("Victim", "men")])]}
    profile = evaluate(preds, golds, "textual")["span_relations"]
    assert profile["Exact"] == 1
    assert profile["Contained-by"] == 1
    assert profile["No-gold"] == 1  # no gold Life:Die event to compare "men" with
    assert sum(profile.values()) == 3


def test_overgen_stats():
    out = overgen_stats(2771, 1000, 1659)
    assert out["overgen"] == pytest.approx(2771 / 1659)
    assert round(out["overgen"], 2) == 1.67
    assert overgen_stats(5, 0, 0)["overgen"] is None


def test_evaluate_report_shape_and_render():
    preds = {"d": [ev("Conflict:Attack", "bombed", text=[("Attacker", "rebels")], conf=0.9)]}
    golds = {"d": [ev("Conflict:Attack", "bombed", text=[("Attacker", "rebels")])]}
    report = evaluate(preds, golds, "textual")
    assert report["em"]["f1"] == 1.0
    assert report["ar"]["f1"] == 1.0
    assert report["ar_errors"]["total"] == 0
    text = render_report(report)
    assert "setting: textual" in text
    assert "F1=1.000" in text


@pytest.mark.parametrize("setting", SETTINGS)
def test_evaluate_matches_each_document_once(setting, monkeypatch):
    preds = load_records(FIXTURES / "scoring" / f"{setting}_pred.jsonl")
    golds = load_records(FIXTURES / "scoring" / f"{setting}_gold.jsonl")
    calls = []

    def counting(preds_, golds_, setting_):
        calls.append(1)
        return match_events(preds_, golds_, setting_)

    monkeypatch.setattr(scorer, "match_events", counting)
    evaluate(preds, golds, setting)
    assert len(calls) == len(set(preds) | set(golds))
