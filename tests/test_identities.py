"""Identity checks: the registry, verdicts, and fault injection."""

import json
import time
from pathlib import Path

import pytest

from degenpoly.identities import (
    MAX_BOUND,
    REGISTRY,
    Verdict,
    _ONE_MINUS_X,
    _poly_battery,
    _s1_lambda_weight,
    _s1_mobius_numerator,
    check_L2,
    run_all,
    run_check,
    verdict_to_dict,
    verdicts_to_json,
)
from degenpoly import families as fam
from degenpoly.poly import XPoly
from degenpoly.ratfunc import substitute_mobius
from degenpoly.rational import RAT_ZERO, Rational
from degenpoly.render import value_from_json

ALL_IDS = [c.id for c in REGISTRY]


def test_registry_shape():
    assert len(REGISTRY) == 18
    assert ALL_IDS == sorted(ALL_IDS)
    assert len(set(ALL_IDS)) == len(ALL_IDS)
    for c in REGISTRY:
        assert c.description
        assert c.perturbation
        assert isinstance(c.params, dict)


@pytest.mark.parametrize("check_id", ALL_IDS)
def test_check_passes(check_id):
    v = run_check(check_id)
    assert v.ok, v.counterexample
    assert v.id == check_id
    assert v.counterexample is None
    assert v.status == "pass"


@pytest.mark.parametrize("check_id", ALL_IDS)
def test_negative_control_flips(check_id):
    v = run_check(check_id, perturbed=True)
    assert not v.ok
    assert v.status == "fail"
    ce = v.counterexample
    assert ce is not None
    assert set(ce) == {"indices", "lhs", "rhs"}
    assert ce["lhs"] != ce["rhs"]
    assert isinstance(ce["indices"], dict) and ce["indices"]


def test_run_all_default_green():
    verdicts = run_all()
    assert [v.id for v in verdicts] == ALL_IDS
    assert all(v.ok for v in verdicts)


@pytest.mark.parametrize(
    "negative_control, golden",
    [(False, "verify_all.json"), (True, "verify_all_negative_control.json")],
)
def test_run_all_matches_golden_verdicts(negative_control, golden):
    # the verdicts of the whole suite, byte for byte, as first recorded
    want = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert verdicts_to_json(run_all(negative_control=negative_control)) == want


def test_run_all_checks_overrides_before_running_any_check():
    # n_max 100 is valid everywhere, order 101 nowhere; E50 is the first
    # check with an order bound, and nothing runs before the refusal
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"^E50: order must be at most 100, got 101$"):
        run_all(overrides={"n_max": 100, "order": 101})
    assert time.perf_counter() - t0 < 1


def test_run_all_prefix():
    verdicts = run_all("GF")
    assert all(v.id.startswith("GF") for v in verdicts)
    assert len(verdicts) == 4
    with pytest.raises(ValueError):
        run_all("ZZZ")


def test_run_all_targeted_control():
    small = {"n_max": 8, "m_max": 4, "k_max": 8, "d_max": 3, "r_max": 2, "order": 8}
    verdicts = run_all(overrides=small, negative_control="T7")
    failed = [v.id for v in verdicts if not v.ok]
    assert failed == ["T7"]
    with pytest.raises(ValueError):
        run_all(negative_control="T99")


def test_run_all_refuses_a_control_outside_the_selection():
    with pytest.raises(ValueError, match="'E04'"):
        run_all("T8", negative_control="E04")


def test_run_all_full_control_flips_everything():
    small = {"n_max": 8, "m_max": 4, "k_max": 8, "d_max": 3, "r_max": 2, "order": 8}
    verdicts = run_all(overrides=small, negative_control=True)
    assert all(not v.ok for v in verdicts), [v.id for v in verdicts if v.ok]


def test_run_check_overrides():
    v = run_check("T8", {"n_max": 5})
    assert v.ok
    assert v.checked_range["n_max"] == 5
    # unknown keys and None values fall back to defaults
    v = run_check("T8", {"n_max": None, "bogus": 3})
    assert v.checked_range["n_max"] == 30
    with pytest.raises(ValueError):
        run_check("NOPE")
    # n_max may exceed order: terms above the order are truncated, not refused
    v = run_check("T5T6", {"n_max": 14, "order": 8})
    assert v.ok and v.checked_range == {"n_max": 14, "order": 8}
    v = run_check("T5T6", {"n_max": 14, "order": 8}, perturbed=True)
    assert not v.ok


def test_overrides_cannot_change_fixed_arguments():
    # only integer bounds are overridable; the GF family is part of the check
    v = run_check("GF-bell", {"family": "geom_deg", "order": 4})
    assert v.id == "GF-bell"
    assert v.params == {"family": "bell_deg", "order": 4}
    assert list(v.params)[0] == "family"


@pytest.mark.parametrize("bad", [-1, -3, 2.0, "5", True])
def test_bounds_must_be_nonnegative_ints(bad):
    with pytest.raises(ValueError, match="must be an int >= 0"):
        run_check("T8", {"n_max": bad})
    with pytest.raises(ValueError, match="must be an int >= 0"):
        run_check("E50", {"r_max": bad})
    with pytest.raises(ValueError, match="must be an int >= 0"):
        check_L2(n_max=bad)
    # zero is a valid, if small, bound
    assert run_check("T8", {"n_max": 0}).checked_range == {"n_max": 0}



def test_bounds_above_max_are_refused():
    with pytest.raises(ValueError, match=f"must be at most {MAX_BOUND}"):
        run_check("T8", {"n_max": MAX_BOUND + 1})
    with pytest.raises(ValueError, match=f"must be at most {MAX_BOUND}"):
        run_check("E50", {"order": 100000})
    with pytest.raises(ValueError, match=f"must be at most {MAX_BOUND}"):
        check_L2(n_max=10**9)
    # every registered default sits inside the cap
    for c in REGISTRY:
        assert all(v <= MAX_BOUND for v in c.params.values() if type(v) is int)


@pytest.mark.parametrize("order", range(5))
def test_T3_at_orders_below_its_degree(order):
    # x^k g^(k) with k > order vanishes below x^(order+1), so small orders
    # are checked on the columns that remain
    v = run_check("T3", {"order": order})
    assert v.ok and v.checked_range["order"] == order
    assert not run_check("T3", {"order": order}, perturbed=True).ok


def _f_eval_reference(coeffs, k) -> Rational:
    # the rational Horner T3 and T4 sampled with before they called
    # XPoly.eval, kept as the reference the polynomial must reproduce
    acc = RAT_ZERO
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


@pytest.mark.parametrize("fc, label", _poly_battery(6))
def test_battery_sampling_matches_the_horner_reference(fc, label):
    f = XPoly(fc)
    for k in range(41):
        got = f.eval(k, 0)
        assert type(got) is Rational
        assert got == _f_eval_reference(fc, k), (label, k)


def _s1_mobius_numerator_reference(m, poly_of, bump_l0=False) -> XPoly:
    # the per-l clearing that one substitution of the weighted sum replaced,
    # kept as the reference it must reproduce: each poly_of(l)(x/(1-x)) is
    # cleared over (1-x)^deg and lifted to (1-x)^m before the sum
    acc = XPoly()
    for l in range(m + 1):
        w = _s1_lambda_weight(m, l) + (1 if bump_l0 and l == 0 else 0)
        p = poly_of(l)
        acc = acc + w * substitute_mobius(p, -1).num * _ONE_MINUS_X ** (m - p.degree)
    return acc


@pytest.mark.parametrize(
    "poly_of, bump_l0",
    [(fam.geometric, False), (fam.geometric, True)]
    + [(lambda l, r=r: fam.geometric_r(l, r), False) for r in range(1, 5)],
    ids=["geometric", "geometric-bump_l0", "geometric_r1", "geometric_r2", "geometric_r3",
         "geometric_r4"],
)
def test_s1_mobius_numerator_matches_the_per_l_reference(poly_of, bump_l0):
    for m in range(11):
        got = _s1_mobius_numerator(m, poly_of, bump_l0=bump_l0)
        assert got.coeffs == _s1_mobius_numerator_reference(m, poly_of, bump_l0).coeffs, m


def test_reproducible():
    assert run_check("T1") == run_check("T1")
    assert run_check("E57", perturbed=True) == run_check("E57", perturbed=True)


def test_verdict_json_round_trip():
    verdicts = [run_check("T8", {"n_max": 4}), run_check("T8", {"n_max": 4}, perturbed=True)]
    blob = verdicts_to_json(verdicts)
    loaded = json.loads(blob)
    assert loaded[0]["status"] == "pass"
    assert loaded[1]["status"] == "fail"
    ce = loaded[1]["counterexample"]
    # serialized sides reconstruct to exact values that still disagree
    assert value_from_json(ce["lhs"]) != value_from_json(ce["rhs"])
    assert loaded[1]["checked_range"] == {"n_max": 4}


def test_E04_classical_counterexample_is_a_rational(monkeypatch):
    # no golden file reaches the classical pair's failure: corrupt S1(3, 1)
    # in the rows E04 reads and check the counterexample's shape
    real = fam.triangular_table

    def corrupted(kind, n_max):
        rows = real(kind, n_max)
        if kind != "S1":
            return rows
        rows = [list(r) for r in rows]
        rows[3][1] = rows[3][1] + Rational(1, 2)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(fam, "triangular_table", corrupted)
    v = run_check("E04", {"n_max": 5})
    assert v.counterexample["indices"] == {"n": 3, "m": 1, "pair": "classical"}
    assert type(v.counterexample["lhs"]) is Rational and v.counterexample["lhs"] == Rational(1, 2)
    ce = json.loads(verdicts_to_json([v]))[0]["counterexample"]
    assert ce["lhs"] == "1/2" and ce["rhs"] == "0"


def test_verdict_to_dict_passing():
    d = verdict_to_dict(run_check("E44", {"m_max": 4, "k_max": 6}))
    assert d["status"] == "pass"
    assert "counterexample" not in d
    assert d["id"] == "E44"
    assert d["description"]


def test_verdict_ok_property():
    v = Verdict("x", "pass", {}, "d", {})
    assert v.ok
    assert not Verdict("x", "fail", {}, "d", {}).ok
