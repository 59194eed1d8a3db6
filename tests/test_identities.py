"""Identity checks: the registry, verdicts, and fault injection."""

import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from degenpoly import identities
from degenpoly.identities import (
    MAX_BOUND,
    REGISTRY,
    Verdict,
    _CHECKS,
    _check,
    _falling_rows,
    _first_miss,
    _read,
    _inner_power_rows,
    _poly_battery,
    _s1_lambda_weight,
    _s1_mobius_numerator,
    _t4_right_sides,
    check_E04,
    check_L2,
    run_all,
    run_check,
    verdict_to_dict,
    verdicts_to_json,
)
import degenpoly
from degenpoly import families as fam
from degenpoly.poly import LAM, LP_ONE, LP_ZERO, X, XP_ONE, LambdaPoly, XPoly, lambda_falling
from degenpoly.ratfunc import _binomial_power, substitute_mobius
from degenpoly.rational import RAT_ZERO, Rational
from degenpoly.render import value_from_json
from degenpoly.series import Series

ALL_IDS = [c.id for c in REGISTRY]
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


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


def test_run_all_refuses_an_override_that_no_selected_check_takes(monkeypatch):
    # run_check ignores a key its check does not take; run_all refuses one
    # that none of its checks takes, before any check runs
    monkeypatch.setattr(identities, "run_check", lambda *a, **k: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=r"^m_max does not apply to T8$"):
        run_all("T8", overrides={"m_max": 3})
    with pytest.raises(ValueError, match=r"^n_max does not apply to GF-bell, GF-bern$"):
        run_all("GF-b", overrides={"n_max": 3, "order": 4})
    with pytest.raises(ValueError, match=r"^bogus does not apply to T8$"):
        run_all("T8", overrides={"bogus": 0})
    monkeypatch.undo()
    assert [v.checked_range for v in run_all("T8", overrides={"n_max": 3, "m_max": None})] == [{"n_max": 3}]


@pytest.mark.parametrize("control", [1, None])
def test_run_all_refuses_a_control_that_is_neither_a_bool_nor_an_id(control, monkeypatch):
    # neither value injects a fault, so a caller who meant one would see a passing control
    monkeypatch.setattr(identities, "run_check", lambda *a, **k: pytest.fail("a check ran"))
    with pytest.raises(TypeError, match="negative_control must be a bool or a check id"):
        run_all("T8", negative_control=control)


def test_the_workflow_edge_step_counts_every_registered_check():
    # the one "N passed, 0 failed" the workflow asserts, read as plain text
    text = WORKFLOW.read_text(encoding="utf-8")
    assert re.findall(r'"(\d+) passed, 0 failed"', text) == [str(len(REGISTRY))]


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
    # the wrong sign first shows in [x^2]: at order 0 the control passes too
    for bounds, caught in [({"n_max": 14, "order": 0}, False), ({"n_max": 4, "order": 11}, True)]:
        assert run_check("T5T6", bounds).ok
        assert run_check("T5T6", bounds, perturbed=True).ok is not caught


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
        acc = acc + w * substitute_mobius(p, -1).num * (XP_ONE - X) ** (m - p.degree)
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


def test_one_minus_x_power_matches_repeated_products():
    # (1-x)^k from its binomial coefficients, as T7, E40, E44 and E50 build
    # it, against k products by 1 - x
    acc = XP_ONE
    for k in range(21):
        got = _binomial_power(-LP_ONE, k)
        assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in acc.coeffs], k
        acc = acc * (XP_ONE - X)


def _inner_power_rows_reference(order, sign):
    # the powers of x/(1 - sign·λx) T5T6 built by repeated series
    # multiplication before it used their closed form, kept as the
    # reference the closed-form rows must reproduce
    inner = Series("x", order, [LP_ZERO] + [LambdaPoly.monomial(sign**(k - 1), k - 1)
                                            for k in range(1, order + 1)], LambdaPoly)
    powers = [inner]
    for _ in range(order - 1):
        powers.append(powers[-1] * inner)
    return [[powers[k - 1].coeff(j) for k in range(1, j + 1)] for j in range(1, order + 1)]


@pytest.mark.parametrize("sign", [-1, 1])
def test_inner_power_rows_match_the_series_power_reference(sign):
    for order in range(33):
        assert _inner_power_rows(order, sign) == _inner_power_rows_reference(order, sign), order


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


def test_checks_take_their_bounds_as_keywords_only():
    gf_bell = {c.id: c for c in REGISTRY}["GF-bell"].fn
    assert check_L2(n_max=3).params == {"n_max": 3}
    assert gf_bell(order=4).params == {"family": "bell_deg", "order": 4}
    with pytest.raises(ValueError, match="must be an int >= 0"):
        gf_bell(order=-1)
    with pytest.raises(TypeError):
        check_L2(3)
    with pytest.raises(TypeError):
        check_L2(n_max=3, bogus=1)
    # a fixed argument is not a keyword the caller may pass
    with pytest.raises(TypeError):
        gf_bell(family="phi_deg")
    with pytest.raises(TypeError):
        gf_bell(4)


def test_verdicts_are_immutable_and_equal_by_fields():
    v = Verdict("x", "pass", {"n_max": 1}, "d", {"n_max": 1})
    assert v == Verdict("x", "pass", {"n_max": 1}, "d", {"n_max": 1}, None)
    assert v != Verdict("x", "fail", {"n_max": 1}, "d", {"n_max": 1})
    assert v.counterexample is None and v.ok
    with pytest.raises(AttributeError):
        v.status = "fail"
    with pytest.raises(AttributeError):
        v.extra = 1
    entry = REGISTRY[0]
    with pytest.raises(AttributeError):
        entry.params = {}


def test_import_loads_neither_inspect_nor_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(Path(degenpoly.__file__).parents[1])}
    code = "import sys, degenpoly; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_falling_rows_match_lambda_falling():
    # the weights E50 and T7 share, against the product built from scratch
    for m, row in zip(range(13), _falling_rows(17)):
        assert len(row) == 18
        for k, w in enumerate(row):
            want = lambda_falling(k, m)
            assert (w.num, w.den) == (want.num, want.den), (m, k)
    # GF-bern's (1)_{m,λ}, column 1, up to m = 65: its reach at order 64
    for m, row in zip(range(66), _falling_rows(1)):
        want = lambda_falling(1, m)
        assert (row[1].num, row[1].den) == (want.num, want.den), m


def _series_fields(s: Series):
    return s.var, s.order, s.ring, tuple((c.num, c.den) for c in s.coeffs)


@pytest.mark.parametrize("order", [0, 1, 2, 16, 32, 64])
def test_T4_right_sides_match_e_times_each_expanded_quotient(order):
    # the right sides T4 built before it expanded e·N over D once: e times
    # the expansion of each second-kind Bell quotient N/D, then the mix as
    # the same combination of those rows
    e = fam.e_lambda_series(order, "x")
    mix_fc = _poly_battery(6)[-1][0]
    want = [e * fam.bell_second_deg(n).expand(order) for n in range(7)]
    mix = Series("x", order, [], LambdaPoly)
    for row, c in zip(want, mix_fc):
        mix = mix + row.scaled(c)
    got = _t4_right_sides(e, mix_fc)
    assert [_series_fields(s) for s in got] == [_series_fields(s) for s in want + [mix]]


def test_DEG_reads_the_bell_numbers_up_to_n_max(monkeypatch):
    # every family that reaches the Bell numbers is off by one at n = 18,
    # so the degeneration legs agree and only the additive-triangle leg,
    # which once stopped at n = 15, can see it
    for name in ("bell_poly", "bell_deg", "bell_partial_deg"):
        real = getattr(fam, name)
        monkeypatch.setattr(fam, name, lambda n, real=real: real(n) + (1 if n == 18 else 0))
    v = run_check("DEG", {"n_max": 20})
    assert not v.ok and v.counterexample["indices"] == {"family": "bell-numbers", "n": 18}
    assert run_check("DEG", {"n_max": 17}).ok


def _first_bad_product(a, b, c=None):
    # the symbolic product, each entry one λ-dot, kept as the reference the
    # product route must reproduce: the first (n, m) whose entry is not
    # c[n][m] (δ(n, m) without c), with that entry, or None
    for n in range(len(a)):
        for m in range(n + 1):
            val = LambdaPoly._dot((a[n][k], b[k][m]) for k in range(m, n + 1))
            if val != (c[n][m] if c else 1 if n == m else 0):
                return (n, m), val
    return None


def _steps(ka, kb):
    return fam._STEP[ka], fam._STEP[kb]


def _first_non_identity(a, b, steps, before):
    eye = tuple((LP_ZERO,) * n + (LP_ONE,) for n in range(len(a)))
    return _first_miss(_read(a, steps[0]), _read(b, steps[1]), _read(eye, (0, 0, 0, 0)), before)


def _basis_table(n_max):
    # T(n, k) = [x^k] (x)_{n,λ}, the target of S2deg·S1
    return [[fam.falling_factorial_lambda(n).coeff(k) for k in range(n + 1)] for n in range(n_max + 1)]


# T's step data: (x)_{n+1,λ} = (x)_{n,λ} (x - nλ), step weight -nλ
BASIS_STEP = (0, 0, -1, 0)


# E04's products, each as (reported key and kind, factors, target or None
# for the identity), in the order that breaks ties at one (n, m)
E04_PRODUCTS = ((("pair", "classical"), "S1", "S2", None), (("pair", "classical"), "S2", "S1", None),
                (("pair", "deformed"), "S1deg", "S2deg", None), (("basis", "deformed"), "S2deg", "S1", "T"))


def _first_E04_hit(n_max):
    # the earliest symbolic miss over E04's products, ties going to the
    # earlier product: (indices, product entry, target entry), or None
    tables = {k: fam.triangular_table(k, n_max) for k in fam.STIRLING_KINDS}
    tables["T"], hit = _basis_table(n_max), None
    for (key, kind), ka, kb, kc in E04_PRODUCTS:
        bad = _first_bad_product(tables[ka], tables[kb], tables.get(kc))
        if bad and (hit is None or bad[0] < hit[0]):
            (n, m), val = bad
            want = tables[kc][n][m] if kc else LambdaPoly.const(1 if n == m else 0)
            hit = (n, m), {"n": n, "m": m, key: kind}, val, want
    return hit and hit[1:]


PAIRS = (("S1", "S2"), ("S2", "S1"), ("S1deg", "S2deg"))


def _off_by_one(step):
    # a wrong recurrence: every step weight a + bλ becomes a + k + bλ
    an, ak, bn, bk = step
    return an, ak + 1, bn, bk


def test_the_product_route_agrees_with_the_symbolic_product_on_true_tables():
    tables = {k: fam.triangular_table(k, 20) for k in fam.STIRLING_KINDS}
    for ka, kb in PAIRS:
        a, b = tables[ka], tables[kb]
        assert _first_bad_product(a, b) is None
        steps = _steps(ka, kb)
        wrong = tuple(map(_off_by_one, steps))
        for before in (None, (20, 20), (13, 5), (7, 0)):
            assert _first_non_identity(a, b, steps, before) is None
            # a wrong recurrence takes both factors off it at row 2, and
            # from there the route takes the plain product
            assert _first_non_identity(a, b, wrong, before) is None


def test_a_product_whose_entries_are_all_zero_is_not_the_identity():
    # row 0 is off every recurrence here, so the route takes the plain
    # product from (0, 0) and sees it miss
    steps, zero, s1 = _steps("S2", "S1"), ((LP_ZERO,),), fam.triangular_table("S1", 0)
    assert _first_bad_product(zero, s1) == ((0, 0), LP_ZERO)
    assert _first_non_identity(zero, s1, steps, None) == (0, 0)
    assert _first_non_identity(zero, s1, steps, (0, 0)) is None


# each corruption of one table entry in the seeded differential test
DIFF_CORRUPTIONS = (
    lambda e, rng: e + rng.choice((-1, 1)) * rng.randint(1, 5),
    lambda e, rng: e + LambdaPoly.monomial(rng.choice((-1, 1)), rng.randint(19, 40)),
    lambda e, rng: e + LambdaPoly.monomial(Rational(1, rng.randint(2, 5)), rng.randint(0, 3)),
    lambda e, rng: LP_ZERO,
    lambda e, rng: e * LAM,
)


def _wrong_step(step, rng):
    # step data with one or two of its four coefficients offset.  A wrong
    # weight at one (n, k) only is not step data: it is a residual at that
    # entry, which the corrupted entries already give
    wrong = list(step)
    for i in rng.sample(range(4), rng.choice((1, 2))):
        wrong[i] += rng.choice((-2, -1, 1, 3))
    return tuple(wrong)


@pytest.mark.parametrize("kinds", PAIRS + (("S2deg", "S1", "T"),))
def test_the_product_recurrence_agrees_with_the_symbolic_product(kinds):
    # seeded trials at n_max <= 18: a corrupted entry (row 0 included) of
    # any table but the identity, wrong step weights on any of them, and a
    # random stop; kinds names the two factors, and T the target when it
    # is not the identity
    rng = random.Random(f"{kinds}-24")
    for trial in range(200):
        size = rng.randint(0, 18) + 1
        tables = [[list(r) for r in (_basis_table(size - 1) if kind == "T" else
                                     fam.triangular_table(kind, size - 1))] for kind in kinds]
        for _ in range(rng.choice((0, 1, 1, 2))):
            t = rng.choice(tables)
            n = 0 if rng.random() < 0.1 else rng.randrange(size)
            k = rng.randint(0, n)
            t[n][k] = rng.choice(DIFF_CORRUPTIONS)(t[n][k], rng)
        steps = [BASIS_STEP if kind == "T" else fam._STEP[kind] for kind in kinds]
        if rng.random() < 0.3:
            i = rng.randrange(len(steps))
            steps[i] = _wrong_step(steps[i], rng)
        stop = rng.randint(0, size)
        before = rng.choice((None, (stop, rng.randint(0, stop))))
        bad = _first_bad_product(*tables)
        want = bad[0] if bad and (before is None or bad[0] < before) else None
        if len(tables) == 3:
            assert _first_miss(*map(_read, tables, steps), before) == want, (trial, size, before)
            continue
        a, b = tables
        assert _first_non_identity(a, b, steps, before) == want, (trial, size, before)


def _table_from_step(step, size):
    # the rows 0..size-1 that the step data's row recurrence gives from
    # row 0 = (1), by LambdaPoly arithmetic
    an, ak, bn, bk = step
    rows = [(LP_ONE,)]
    for n in range(1, size):
        prev = (LP_ZERO, *rows[-1], LP_ZERO)
        rows.append(tuple(prev[k] + LambdaPoly((an * (n - 1) + ak * k, bn * (n - 1) + bk * k)) * prev[k + 1]
                          for k in range(n + 1)))
    return rows


def test_the_product_route_agrees_with_the_symbolic_product_on_tables_of_random_steps():
    # seeded trials in which all three tables follow their recurrences, so
    # the route decides every row by the gap when the slope is 0 and takes
    # the plain product when it is not: steps in [-2, 2]^4, B's chosen in
    # half of the trials so that the slope vanishes and C's in half so
    # that the gap does
    rng = random.Random("random-steps")
    for trial in range(400):
        size = rng.randint(1, 12)
        sa, sb, sc = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3))
        if rng.random() < 0.5:
            sb = (-sa[1], sb[1], -sa[3], sb[3])
        if rng.random() < 0.5:
            sc = (sa[0], sa[1] + sb[0] + sb[1], sa[2], sa[3] + sb[2] + sb[3])
        tables = [_table_from_step(s, size) for s in (sa, sb, sc)]
        stop = rng.randint(0, size)
        before = rng.choice((None, (stop, rng.randint(0, stop))))
        bad = _first_bad_product(*tables)
        want = bad[0] if bad and (before is None or bad[0] < before) else None
        got = _first_miss(*map(_read, tables, (sa, sb, sc)), before)
        assert got == want, (trial, size, sa, sb, sc, before)


def _region_case(name):
    # one product per region of the route, as ((A, B, C), their steps, the
    # first miss)
    s2deg, s1, t = ([list(r) for r in tab] for tab in (fam.triangular_table("S2deg", 10),
                                                        fam.triangular_table("S1", 10), _basis_table(10)))
    steps = (fam._STEP["S2deg"], fam._STEP["S1"], BASIS_STEP)
    if name == "gap":
        # true tables, slope 0, but T is not S1·S2's target: the gap is λ
        # at (1, 1), so the first miss is T(2, 1) = -λ
        return ((fam.triangular_table("S1", 10), fam.triangular_table("S2", 10), t),
                (fam._STEP["S1"], fam._STEP["S2"], BASIS_STEP), (2, 1))
    if name == "target-off":
        # only the target leaves its recurrence, at row 5
        t[5][1] = t[5][1] + LAM
        return (s2deg, s1, t), steps, (5, 1)
    if name == "factor-off":
        # the miss lies on the first row off, not after it: λ·S1(3, 1) = 2λ
        s2deg[7][3] = s2deg[7][3] + LAM
        return (s2deg, s1, t), steps, (7, 1)
    if name == "row-0":
        # every row after row 0 follows from (2) by the recurrence
        rows = [[e * 2 for e in r] for r in s2deg]
        return (rows, s1, t), steps, (0, 0)
    # slope -1: weights -k, S2's k and the identity's 0 leave no gap, yet
    # the product is not the identity from row 3 on
    sa, sb, sc = (0, -1, 0, 0), fam._STEP["S2"], (0, 0, 0, 0)
    return tuple(_table_from_step(s, 11) for s in (sa, sb, sc)), (sa, sb, sc), (3, 1)


@pytest.mark.parametrize("region", ["gap", "target-off", "factor-off", "row-0", "slope"])
def test_the_product_route_finds_the_first_miss_in_each_region(region):
    tables, steps, at = _region_case(region)
    assert _first_bad_product(*tables)[0] == at
    assert _first_miss(*map(_read, tables, steps), None) == at
    assert _first_miss(*map(_read, tables, steps), at) is None


def test_every_row_of_a_true_table_is_given_by_its_recurrence():
    tables = {k: (fam.triangular_table(k, 40), fam._STEP[k]) for k in fam.STIRLING_KINDS}
    tables["T"] = _basis_table(40), BASIS_STEP
    tables["I"] = tuple((LP_ZERO,) * n + (LP_ONE,) for n in range(41)), (0, 0, 0, 0)
    for kind, (table, step) in tables.items():
        assert _read(table, step)[2] == 41, kind


def test_a_corrupted_entry_takes_its_table_off_the_recurrence_at_its_row():
    rows = [list(r) for r in fam.triangular_table("S2deg", 12)]
    rows[7][3] = rows[7][3] + LAM
    assert _read(rows, fam._STEP["S2deg"])[2] == 7
    # an entry with a denominator is off at its row, also when its
    # numerators are the ones the recurrence gives; from there the route
    # agrees with the symbolic product
    s1deg = fam.triangular_table("S1deg", 12)
    for n, k, fault in ((6, 2, lambda e: e + LAM / 2), (6, 6, lambda e: e / 5)):
        rows = [list(r) for r in fam.triangular_table("S2deg", 12)]
        rows[n][k] = fault(rows[n][k])
        assert _read(rows, fam._STEP["S2deg"])[2] == n
        at = _first_non_identity(s1deg, rows, _steps("S1deg", "S2deg"), None)
        assert at is not None and at == _first_bad_product(s1deg, rows)[0]


def test_two_faults_that_cancel_in_the_product_leave_it_true():
    # λ^30 added to S2deg(5, 1) and to T(5, 1) leaves S2deg·S1 = T true
    # everywhere; both tables leave their recurrence at row 5, and from
    # there the route takes the plain product and finds no miss
    a, c = [list(r) for r in fam.triangular_table("S2deg", 10)], _basis_table(10)
    a[5][1], c[5][1] = a[5][1] + LAM**30, c[5][1] + LAM**30
    b = fam.triangular_table("S1", 10)
    assert _read(a, fam._STEP["S2deg"])[2] == 5 and _read(c, BASIS_STEP)[2] == 5
    assert _first_bad_product(a, b, c) is None
    assert _first_miss(_read(a, fam._STEP["S2deg"]), _read(b, fam._STEP["S1"]), _read(c, BASIS_STEP),
                       None) is None


def _vanishing_on_points(top):
    # λ(λ-1)...(λ-top): zero at every point λ = 0..top
    p = LP_ONE
    for j in range(top + 1):
        p = p * (LAM - j)
    return p


N_MAX_CORRUPT = 16
# each corruption of an entry of degree d: a term of degree N_MAX_CORRUPT + 1
# that vanishes at every λ = 0..n - m for every (n, m) the check reads, a
# change in the top coefficient alone, and a non-integer coefficient
CORRUPTIONS = {
    "extra-power": lambda e: e + _vanishing_on_points(N_MAX_CORRUPT),
    "top-coefficient": lambda e: e + LambdaPoly.monomial(1, e.degree),
    "non-integer": lambda e: e + LambdaPoly.monomial(Rational(1, 3), max(e.degree - 1, 0)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind, n, k", [("S1deg", 14, 5), ("S2deg", 15, 4), ("S2deg", 16, 16)])
def test_E04_product_route_is_an_exact_proof(monkeypatch, corruption, kind, n, k):
    # only the deformed pair reads S1deg; S2deg also enters the basis
    # product S2deg·S1 = T, which meets the corrupted row first at m = 1
    real = fam.triangular_table

    def corrupted(table_kind, n_max):
        rows = real(table_kind, n_max)
        if table_kind != kind:
            return rows
        rows = [list(r) for r in rows]
        rows[n][k] = CORRUPTIONS[corruption](rows[n][k])
        return tuple(map(tuple, rows))

    monkeypatch.setattr(fam, "triangular_table", corrupted)
    s1d, s2d = (fam.triangular_table(t, N_MAX_CORRUPT) for t in ("S1deg", "S2deg"))
    (bad_n, bad_m), val = _first_bad_product(s1d, s2d)
    # the product route, with the tables' own steps and with wrong ones,
    # finds what the symbolic product finds
    steps = _steps("S1deg", "S2deg")
    assert _first_non_identity(s1d, s2d, steps, None) == (bad_n, bad_m)
    assert _first_non_identity(s1d, s2d, tuple(map(_off_by_one, steps)), None) == (bad_n, bad_m)
    indices, val, want = _first_E04_hit(N_MAX_CORRUPT)
    assert indices == ({"n": n, "m": 1, "basis": "deformed"} if kind == "S2deg"
                       else {"n": bad_n, "m": bad_m, "pair": "deformed"})
    v = check_E04(n_max=N_MAX_CORRUPT)
    assert not v.ok
    assert v.counterexample["indices"] == indices
    lhs = v.counterexample["lhs"]
    assert type(lhs) is LambdaPoly and (lhs.num, lhs.den) == (val.num, val.den)
    assert v.counterexample["rhs"] == want


def test_E04_checks_the_deformed_basis_up_to_n_max(monkeypatch):
    # a fault in (x)_{20,λ} that vanishes at λ = 0, so DEG cannot see it
    real = fam.falling_factorial_lambda
    monkeypatch.setattr(fam, "falling_factorial_lambda",
                        lambda n: real(n) + XPoly.monomial(LAM, 1) if n == 20 else real(n))
    v = check_E04(n_max=40)
    assert not v.ok
    assert v.counterexample["indices"] == {"n": 20, "m": 1, "basis": "deformed"}
    assert v.counterexample["lhs"] == real(20).coeff(1)
    assert v.counterexample["rhs"] == real(20).coeff(1) + LAM
    assert check_E04(n_max=19).ok


def test_E04_reports_a_lambda_dependent_classical_entry_as_a_failure(monkeypatch):
    # a classical pair's sides are shown as rationals only when both are
    # constant; S1(5, 2) + λ makes S1·S2 at (5, 1) equal to λ
    real = fam.triangular_table

    def corrupted(kind, n_max):
        rows = real(kind, n_max)
        if kind != "S1" or n_max < 5:
            return rows
        rows = [list(r) for r in rows]
        rows[5][2] = rows[5][2] + LAM
        return tuple(map(tuple, rows))

    monkeypatch.setattr(fam, "triangular_table", corrupted)
    v = run_check("E04")
    assert not v.ok
    assert v.counterexample == {"indices": {"n": 5, "m": 1, "pair": "classical"}, "lhs": LAM, "rhs": LP_ZERO}


@pytest.mark.parametrize("reads_mutant", [True, False], ids=["mutant-data", "true-data"])
def test_E04_catches_every_one_coefficient_step_mutant(monkeypatch, reads_mutant):
    # each table kind with one of its four step coefficients off by ±1: the
    # tables are built by _build_row from the mutant into fresh tuples, not
    # into the memo, and E04 reads either the mutant data or the true data
    true_steps = dict(fam._STEP)
    for kind, i, delta in product(fam.STIRLING_KINDS, range(4), (-1, 1)):
        mutant = {**true_steps, kind: tuple(c + delta * (j == i) for j, c in enumerate(true_steps[kind]))}

        def built(table_kind, n_max):
            monkeypatch.setattr(fam, "_STEP", mutant)
            rows = []
            for n in range(n_max + 1):
                rows.append(fam._build_row(table_kind, n, rows))
            monkeypatch.setattr(fam, "_STEP", mutant if reads_mutant else true_steps)
            return tuple(rows)

        monkeypatch.setattr(fam, "triangular_table", built)
        v = check_E04(n_max=12)
        assert not v.ok, (kind, i, delta)
        assert (v.counterexample["indices"]["n"], v.counterexample["indices"]["m"]) == (2, 1), (kind, i, delta)


def test_the_product_route_reports_the_first_of_two_faults():
    # the later fault sits in a later row at a smaller column, so a scan
    # that ran on past the first failing entry would report it instead
    s1d, s2d = (list(map(list, fam.triangular_table(t, 16))) for t in ("S1deg", "S2deg"))
    s2d[13][5] = s2d[13][5] + 1
    s1d[15][3] = s1d[15][3] + 7
    assert _first_bad_product(s1d, s2d)[0] == (13, 5)
    steps = _steps("S1deg", "S2deg")
    assert _first_non_identity(s1d, s2d, steps, None) == (13, 5)
    assert _first_non_identity(s1d, s2d, steps, (13, 5)) is None
    assert _first_non_identity(s1d, s2d, steps, (14, 0)) == (13, 5)


def test_a_check_body_that_returns_is_refused_at_registration():
    # under the yield protocol a returned triple would be read as a stream
    # of comparisons: its three index keys unpacked as (indices, lhs, rhs)
    def returns_a_triple(n_max=1, perturbed=False):
        """returns its failure instead of yielding it"""
        return {"r": 1, "m": 0, "coeff": 0}, 1, 2

    before = list(_CHECKS)
    with pytest.raises(TypeError, match="X-RETURNS"):
        _check("X-RETURNS", fault="none")(returns_a_triple)
    assert _CHECKS == before


def test_a_check_computes_no_operand_after_its_first_failure(monkeypatch):
    calls, real = [], fam.geometric_deg

    def counted(n):
        calls.append(n)
        return real(n) + (1 if n == 2 else 0)

    monkeypatch.setattr(fam, "geometric_deg", counted)
    v = run_check("T1")
    assert not v.ok and v.counterexample["indices"] == {"n": 2}
    assert calls == [0, 1, 2]


def test_E50_reports_its_least_failure_in_r_then_m(monkeypatch):
    # faults at (r, m) = (2, 2) and (3, 0): the one at the smaller r is
    # reported although the other has the smaller m
    real = fam.geometric_r
    monkeypatch.setattr(fam, "geometric_r",
                        lambda l, r: real(l, r) + (1 if (l, r) in ((2, 2), (0, 3)) else 0))
    v = run_check("E50")
    assert not v.ok and v.counterexample["indices"] == {"r": 2, "m": 2, "coeff": 0}


def test_E44_reports_the_lambda_free_part_against_a_lambda_dependent_numerator(monkeypatch):
    real = fam.eulerian_poly
    monkeypatch.setattr(fam, "eulerian_poly",
                        lambda m: real(m) + (XPoly.monomial(LAM, 1) if m == 3 else 0))
    v = run_check("E44")
    ce = v.counterexample
    assert not v.ok and ce["indices"] == {"m": 3, "leg": "lambda-free"}
    assert ce["lhs"] == real(3) + XPoly.monomial(LAM, 1)
    assert ce["rhs"] == X + 4 * X**2 + X**3 and str(ce["rhs"]) == "x + 4x^2 + x^3"
