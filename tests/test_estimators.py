from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import proxate as px
from proxate._records import from_dict
from proxate.errors import (
    DegenerateTreatmentError, NumericalError, SingularSystemError, ValidationError,
)
from proxate.estimators import evaluate_nuisances, fit_all_nuisances
from proxate.nuisance import PropensityModel
from proxate.stats import seeded_generator

from conftest import (
    constant_bridge, constant_hbar, estimate_with, evaluate, fit_basis, fit_fold, propensity,
    solve_h, solve_q, train_view,
)

CFG = px.EstimatorConfig()


def eval_indices(data, folds, k, sample):
    """The dataset rows of ``sample`` ("E" or "O") held out in fold ``k``."""
    in_sample = data.is_e if sample == "E" else ~data.is_e
    return np.flatnonzero(in_sample & (folds.fold_of == k))


# ---------------------------------------------------------------- folds


def test_fold_sizes_even(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=1)
    for sample in ("E", "O"):
        sizes = [eval_indices(data, folds, k, sample).shape[0] for k in range(2)]
        assert abs(sizes[0] - sizes[1]) <= 1


def test_fold_near_equal_rule():
    rng = np.random.default_rng(0)
    n = 12
    is_e = np.zeros(n, dtype=bool)
    is_e[:5] = True
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 1)),
        a=np.where(is_e, (rng.random(n) < 0.5).astype(float), np.nan),
        x=rng.normal(size=(n, 1)),
        is_e=is_e,
    )
    folds = px.make_folds(data, 2, seed=3)
    e_sizes = sorted(eval_indices(data, folds, k, "E").shape[0] for k in range(2))
    assert e_sizes == [2, 3]


def test_fold_validation(small_data):
    data, _ = small_data
    with pytest.raises(ValidationError):
        px.make_folds(data, 1, seed=0)
    with pytest.raises(ValidationError):
        px.make_folds(data, data.n_e + 1, seed=0)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        px.make_folds(data, 2, seed=-1)
    # A row labelled outside [0, k) would be in no fold, so no held-out
    # evaluation would be written for it.
    for label in (7, -1):
        fold_of = px.make_folds(data, 3, seed=1).fold_of.copy()
        fold_of[::50] = label
        with pytest.raises(ValidationError, match=rf"row 1: fold label {label} outside \[0, 3\)"):
            px.FoldAssignment(k_folds=3, fold_of=fold_of, seed=1)


def test_fold_counts_must_match_data(small_data):
    # One label short: where folds first meet data, both counts are named
    # instead of numpy failing to broadcast.
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=1)
    short = px.FoldAssignment(k_folds=3, fold_of=folds.fold_of[:-1], seed=1)
    counts = f"{data.n - 1} fold labels for {data.n} dataset rows"
    with pytest.raises(ValidationError, match=counts):
        px.estimate_all(data, short, CFG)
    nus = fit_all_nuisances(data, folds, CFG)
    with pytest.raises(ValidationError, match=counts):
        evaluate_nuisances(data, short, nus)
    # A fold without its nuisance set would leave its rows unwritten.
    with pytest.raises(ValidationError, match="2 nuisance sets for 3 folds"):
        evaluate_nuisances(data, folds, nus[:-1])
    # A fold index outside [0, k) has no held-out fold.
    cells = px.fold_cells(data, folds, CFG)
    for k in (3, -1):
        with pytest.raises(ValidationError, match=f"^fold index {k} out of range$"):
            px.fit_fold_nuisances(cells, k, CFG)


def test_fold_empty_training_complement(small_data):
    # Every O row in fold 0 leaves fold 0 no O row to train on.
    data, _ = small_data
    fold_of = px.make_folds(data, 3, seed=1).fold_of.copy()
    fold_of[~data.is_e] = 0
    folds = px.FoldAssignment(k_folds=3, fold_of=fold_of, seed=1)
    with pytest.raises(ValidationError, match="fold 0: empty training complement"):
        px.fold_cells(data, folds, CFG)


def test_fold_determinism(small_data):
    data, _ = small_data
    f1 = px.make_folds(data, 5, seed=42)
    f2 = px.make_folds(data, 5, seed=42)
    np.testing.assert_array_equal(f1.fold_of, f2.fold_of)
    f3 = px.make_folds(data, 5, seed=43)
    assert not np.array_equal(f1.fold_of, f3.fold_of)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=2, max_value=7), seed=st.integers(min_value=0, max_value=999))
def test_fold_partition_properties(k, seed):
    rng = np.random.default_rng(seed)
    n = 61
    is_e = rng.random(n) < 0.5
    is_e[:8] = True
    is_e[-8:] = False
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 1)),
        a=np.where(is_e, (rng.random(n) < 0.5).astype(float), np.nan),
        x=rng.normal(size=(n, 1)),
        is_e=is_e,
    )
    folds = px.make_folds(data, k, seed=seed)
    for sample, total in (("E", data.n_e), ("O", data.n_o)):
        chunks = [eval_indices(data, folds, j, sample) for j in range(k)]
        sizes = [c.shape[0] for c in chunks]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(chunks)
        assert np.unique(merged).shape[0] == total
    # The reference: each stratum's permutation chopped by hand, its
    # remainder to the lowest folds.
    rng, want = seeded_generator(seed), np.empty(n, dtype=np.int64)
    for mask in (is_e, ~is_e):
        idx = rng.permutation(np.flatnonzero(mask))
        base, rem = divmod(idx.shape[0], k)
        start = 0
        for j in range(k):
            want[idx[start:start + base + (j < rem)]] = j
            start += base + (j < rem)
    assert folds.fold_of.tobytes() == want.tobytes()


# ------------------------------------------------------- fold nuisances


def test_fit_fold_uses_complement_only(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=9)
    for k in range(2):
        train_e = train_view(data, folds, k, "E").indices
        eval_e = eval_indices(data, folds, k, "E")
        assert np.intersect1d(train_e, eval_e).shape[0] == 0
        assert train_e.shape[0] + eval_e.shape[0] == data.n_e
    nus = fit_fold(data, folds, 0, CFG)
    assert nus.h.kind == "outcome" and nus.q1.arm == 1


def test_fit_fold_deterministic(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=2)
    a = fit_fold(data, folds, 1, CFG)
    b = fit_fold(data, folds, 1, CFG)
    np.testing.assert_array_equal(a.h.coeffs, b.h.coeffs)
    np.testing.assert_array_equal(a.q0.coeffs, b.q0.coeffs)
    np.testing.assert_array_equal(a.e.coeffs, b.e.coeffs)


def _one_treated_unit_data():
    rng = np.random.default_rng(1)
    n = 40
    is_e = np.zeros(n, dtype=bool)
    is_e[:20] = True
    # Exactly one treated unit: some training complement sees only controls.
    a_e = np.zeros(20)
    a_e[0] = 1.0
    data = px.CombinedDataset.from_arrays(
        y=np.where(is_e, np.nan, rng.normal(size=n)),
        w=rng.normal(size=(n, 1)),
        z=np.where(is_e[:, None], np.nan, rng.normal(size=(n, 1))),
        s=rng.normal(size=(n, 1)),
        a=np.where(is_e, np.concatenate([a_e, np.zeros(20)]), np.nan),
        x=rng.normal(size=(n, 1)),
        is_e=is_e,
    )
    folds = px.make_folds(data, 2, seed=0)
    # Training for the treated unit's own fold excludes it entirely.
    return data, folds, int(folds.fold_of[0])


def test_single_arm_complement_raises_with_fold_index():
    data, folds, treated_fold = _one_treated_unit_data()
    with pytest.raises(DegenerateTreatmentError) as err:
        fit_fold(data, folds, treated_fold, CFG)
    assert f"fold {treated_fold}" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("cfg, fit", [
    (CFG, "propensity fit"),
    (replace(CFG, e_basis=px.BasisSpec(roles=("s",), standardize=True)), "propensity fit"),
    (replace(CFG, known_propensity=0.5), "pseudo-outcome regression"),
])
def test_single_arm_error_precedes_basis_fits(cfg, fit):
    # The data's s column has a non-finite sd, so fitting any basis that
    # standardizes s fails; the arms check still reports first, before
    # any basis is fitted.
    data, folds, treated_fold = _one_treated_unit_data()
    with pytest.raises(DegenerateTreatmentError,
                       match=f"fold {treated_fold}: {fit} needs both arms"):
        fit_fold(_with_huge_s(data), folds, treated_fold, cfg)


@pytest.mark.parametrize("name", ["psi", "g", "hbar_basis", "e_basis"])
def test_basis_evaluated_on_e_rows_may_not_read_z(name):
    # z is masked on E rows, where these bases are evaluated; an e_basis
    # is unused, and so accepted, under a known propensity.
    with pytest.raises(ValidationError, match=f"^{name}: role 'z' unavailable on E rows"):
        px.EstimatorConfig(**{name: px.BasisSpec(roles=("s", "z"))})
    if name == "e_basis":
        px.EstimatorConfig(e_basis=px.BasisSpec(roles=("z",)), known_propensity=0.5)


def _with_huge_s(data):
    # s = 1e200 on the first O row overflows the s column's sd.
    s = data.s.copy()
    s[np.flatnonzero(~data.is_e)[0], 0] = 1e200
    return px.CombinedDataset.from_arrays(y=data.y, w=data.w, z=data.z, s=s, a=data.a,
                                          x=data.x, is_e=data.is_e)


def _with_duplicate_z(data):
    # A repeated z column makes phi collinear, so a ridge-0 q solve is singular.
    return px.CombinedDataset.from_arrays(y=data.y, w=data.w, z=np.column_stack([data.z, data.z]),
                                          s=data.s, a=data.a, x=data.x, is_e=data.is_e)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("corrupt, cfg, error, message", [
    (_with_huge_s, CFG, NumericalError, "non-finite standardization of role 's'"),
    (_with_duplicate_z,
     replace(CFG, g=px.BasisSpec(roles=("w", "s", "x"), degree=2, standardize=True),
             ridge_q=0.0),
     SingularSystemError, "surrogate bridge: rank-deficient system"),
], ids=["standardization", "singular-q"])
def test_fold_numerical_error_names_fold(small_data, corrupt, cfg, error, message):
    # Every numerical failure inside a fold's fit keeps its class and
    # gains the fold index.
    data = corrupt(small_data[0])
    folds = px.make_folds(data, 3, seed=4)
    k = (int(folds.fold_of[np.flatnonzero(~data.is_e)[0]]) + 1) % 3  # trains on that O row
    with pytest.raises(error, match=f"^fold {k}: {message}") as err:
        fit_fold(data, folds, k, cfg)
    assert type(err.value) is error


# Every nuisance on its own basis: psi != g, b != phi, e_basis != hbar_basis.
DISTINCT_CFG = px.EstimatorConfig(
    psi=px.BasisSpec(roles=("w", "s", "x"), standardize=True),
    b=px.BasisSpec(roles=("z", "s", "x"), degree=2, standardize=True),
    phi=px.BasisSpec(roles=("z", "s", "x"), standardize=True),
    g=px.BasisSpec(roles=("w", "s", "x"), degree=2, standardize=True),
    e_basis=px.BasisSpec(roles=("x",)),
    hbar_basis=px.BasisSpec(roles=("x",), standardize=True),
)


@pytest.mark.parametrize("cfg, n_fits, n_transforms", [(CFG, 3, 1), (DISTINCT_CFG, 6, 2)])
def test_fold_fits_each_distinct_basis_once(small_data, monkeypatch, cfg, n_fits,
                                            n_transforms):
    # The fold reads every basis off its training R factors: one fit per
    # distinct spec per training sample, and no transform. The only O
    # bases the E cells carry are psi and g, and a spec shared by two
    # nuisances is one fitted basis.
    data, _ = small_data
    cells = px.fold_cells(data, px.make_folds(data, 3, seed=4), cfg)
    counts = {"transform": 0, "from_r": 0}
    transform, basis_from_r = px.FittedBasis.transform, px.estimators.basis_from_r

    def counting_transform(self, source):
        counts["transform"] += 1
        return transform(self, source)

    def counting_from_r(*args):
        counts["from_r"] += 1
        return basis_from_r(*args)

    monkeypatch.setattr(px.FittedBasis, "transform", counting_transform)
    monkeypatch.setattr(px.estimators, "basis_from_r", counting_from_r)
    nus = px.fit_fold_nuisances(cells, 1, cfg)
    assert counts == {"transform": 0, "from_r": n_fits}
    o_specs = {cfg.psi, cfg.b, cfg.phi, cfg.g}
    assert len({spec for sample, spec in cells.cols if sample == "E"} & o_specs) == n_transforms
    assert (nus.e.basis is nus.hbar.basis) is (cfg.e_basis == cfg.hbar_basis)
    assert nus.q0.basis is nus.q1.basis


def _direct_fold(data, folds, k, cfg):
    # The reference: fit_basis designs on the full training views, and
    # the solvers on those full designs.
    e, o = train_view(data, folds, k, "E"), train_view(data, folds, k, "O")
    if cfg.known_propensity is None:
        e_model = px.fit_propensity(*fit_basis(cfg.e_basis, e), e.a, cfg.clip_eps)
    else:
        e_model = PropensityModel.known(cfg.known_propensity, cfg.clip_eps)
    h, h_diag = solve_h(o, cfg.psi, cfg.b, cfg.ridge_h)
    hbar = px.fit_hbar(*fit_basis(cfg.hbar_basis, e), e.a, evaluate(h, e))
    (q0, q0_diag), (q1, q1_diag) = solve_q(o, e, cfg.phi, cfg.g, e_model, cfg.ridge_q)
    return px.NuisanceSet(e=e_model, h=h, hbar=hbar, q0=q0, q1=q1,
                          diagnostics=[h_diag, q0_diag, q1_diag])


def _assert_close(got, want, path=""):
    # Floats within rtol 1e-10 and atol 1e-12, everything else equal.
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and want and isinstance(want[0], float):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=path)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), path
    else:
        assert got == want, path


def _assert_fold_matches(nus, ref):
    for name in ("e", "h", "hbar", "q0", "q1"):
        _assert_close(getattr(nus, name).to_dict(), getattr(ref, name).to_dict(), name)


@pytest.mark.parametrize("cfg", [
    CFG, DISTINCT_CFG, replace(DISTINCT_CFG, known_propensity=0.5, ridge_q=0.0),
])
def test_fold_matches_one_basis_fit_per_nuisance(small_data, cfg):
    # Sharing fits inside the fold never crosses distinct specs: each
    # nuisance matches the one fitted from its own fit_basis calls.
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=4)
    _assert_fold_matches(fit_fold(data, folds, 1, cfg), _direct_fold(data, folds, 1, cfg))


def test_fit_memory_peak(confounded_cfg):
    # Each cell's columns are built from its own rows and freed once
    # factored; the propensity's E training design is the largest array.
    data, _ = px.generate(confounded_cfg, 10**5, 0.5, seed=1)
    folds = px.make_folds(data, 5, seed=1)
    fit_all_nuisances(data, folds, CFG)  # warm-up
    tracemalloc.start()
    try:
        fit_all_nuisances(data, folds, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.35 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@st.composite
def _configs(draw):
    def spec(roles):
        return px.BasisSpec(
            roles=roles, degree=draw(st.integers(1, 3)), interactions=draw(st.booleans()),
            intercept=draw(st.booleans()), standardize=draw(st.booleans()),
        )

    # psi and g on (w, s, x), b and phi on (z, s, x); each system's two
    # specs alike but for the roles, so neither is under-identified.
    h_spec, q_spec = spec(("w", "s", "x")), spec(("w", "s", "x"))
    return px.EstimatorConfig(
        psi=h_spec, b=replace(h_spec, roles=("z", "s", "x")),
        g=q_spec, phi=replace(q_spec, roles=("z", "s", "x")),
        e_basis=spec(("x",)), hbar_basis=spec(("x",)),
        known_propensity=draw(st.sampled_from([None, 0.5])),
    )


def _spec(roles, degree, intercept, standardize):
    return px.BasisSpec(roles=roles, degree=degree, interactions=True,
                        intercept=intercept, standardize=standardize)


@pytest.mark.filterwarnings("ignore:.*Gram condition:RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 5), seed=st.integers(0, 999), cfg=_configs())
# A discovered draw: MR is -31.85 and its two paths differ by 1.8e-11,
# as much as flipping the last bit of every w value moves either path.
@example(k=2, seed=100, cfg=px.EstimatorConfig(
    psi=_spec(("w", "s", "x"), 2, False, True), b=_spec(("z", "s", "x"), 2, False, True),
    g=_spec(("w", "s", "x"), 3, False, True), phi=_spec(("z", "s", "x"), 3, False, True),
    e_basis=_spec(("x",), 1, False, False), hbar_basis=_spec(("x",), 1, False, False),
))
def test_cell_fits_match_direct_fits(small_data, k, seed, cfg):
    # Every fold's nuisances from cell R factors match direct fits on the
    # fold's full training designs, and so do the estimates: within
    # 1e-12 relative to max(1, |tau|), a bound that grows with the
    # largest Gram condition beyond 1e8, since both fits then round at
    # that condition's scale.
    data, _ = small_data
    folds = px.make_folds(data, k, seed=seed)
    nus = fit_all_nuisances(data, folds, cfg)
    ref = [_direct_fold(data, folds, j, cfg) for j in range(k)]
    for got, want in zip(nus, ref):
        _assert_fold_matches(got, want)
    conds = [d.gram_condition for n in nus for d in n.diagnostics]
    scale = 1e-12 * max(1.0, max(np.inf if c is None else c for c in conds) / 1e8)
    cell_reps = estimate_with(data, folds, cfg, nus)
    direct_reps = estimate_with(data, folds, cfg, ref)
    for name, rep in cell_reps.items():
        tau = direct_reps[name].tau_hat
        assert abs(rep.tau_hat - tau) <= scale * max(1.0, abs(tau)), name


# ------------------------------------------------- held-out evaluation


@pytest.mark.parametrize("cfg, n_transforms", [
    (CFG, 4), (DISTINCT_CFG, 5), (replace(CFG, known_propensity=0.5), 4),
])
def test_held_out_evaluation_builds_each_design_once(small_data, monkeypatch, cfg,
                                                     n_transforms):
    # One design per distinct basis per (fold, sample), and every
    # evaluation equal to the nuisance's own.
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=4)
    nus = fit_all_nuisances(data, folds, cfg)
    counts = {"transform": 0}
    transform = px.FittedBasis.transform

    def counting_transform(self, source):
        counts["transform"] += 1
        return transform(self, source)

    monkeypatch.setattr(px.FittedBasis, "transform", counting_transform)
    ev = evaluate_nuisances(data, folds, nus)
    assert counts["transform"] == 3 * n_transforms
    monkeypatch.undo()
    rank = np.empty(data.n, dtype=np.int64)
    for mask in (data.is_e, ~data.is_e):
        rank[mask] = np.arange(mask.sum())
    for k, n in enumerate(nus):
        e_view = px.SampleView(data, eval_indices(data, folds, k, "E"), "E")
        o_view = px.SampleView(data, eval_indices(data, folds, k, "O"), "O")
        pe, po = rank[e_view.indices], rank[o_view.indices]
        assert (ev.e_hat[pe] == propensity(n.e, e_view)[0]).all()
        assert (ev.h_e[pe] == evaluate(n.h, e_view)).all()
        assert (ev.hbar1[pe] == evaluate(n.hbar, e_view, arm=1)).all()
        assert (ev.hbar0[pe] == evaluate(n.hbar, e_view, arm=0)).all()
        assert (ev.h_o[po] == evaluate(n.h, o_view)).all()
        assert (ev.q1[po] == evaluate(n.q1, o_view)).all()
        assert (ev.q0[po] == evaluate(n.q0, o_view)).all()


def test_non_finite_evaluation_names_fold_and_nuisance(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=4)
    nus = fit_all_nuisances(data, folds, CFG)
    # Coefficients of 1e308 overflow q1 on fold 1's held-out units.
    huge = replace(nus[1].q1, coeffs=np.full(nus[1].q1.coeffs.shape, 1e308))
    nus[1] = replace(nus[1], q1=huge)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="fold 1: non-finite held-out evaluation of q1"
    ):
        evaluate_nuisances(data, folds, nus)


def test_first_non_finite_evaluation_is_the_one_reported(small_data):
    # NaN evaluations in two folds and both samples: the error names the
    # first in fold order, E before O within a fold, and e, h, hbar on E
    # and h, q0, q1 on O; mending each in turn reveals the next.
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=4)
    nus = fit_all_nuisances(data, folds, CFG)
    bad = list(nus)

    def nan(model, field="coeffs"):
        return replace(model, **{field: np.full_like(getattr(model, field), np.nan)})

    bad[1] = replace(nus[1], hbar=nan(nus[1].hbar, "arm0_coeffs"), q0=nan(nus[1].q0))
    bad[2] = replace(nus[2], e=nan(nus[2].e), h=nan(nus[2].h))
    for expected, mend in (("fold 1: non-finite held-out evaluation of hbar", (1, "hbar")),
                           ("fold 1: non-finite held-out evaluation of q0", (1, "q0")),
                           ("fold 2: non-finite held-out evaluation of e", (2, "e")),
                           ("fold 2: non-finite held-out evaluation of h", (2, "h"))):
        with pytest.raises(NumericalError) as caught:
            evaluate_nuisances(data, folds, bad)
        assert str(caught.value) == expected
        k, name = mend
        bad[k] = replace(bad[k], **{name: getattr(nus[k], name)})
    evaluate_nuisances(data, folds, bad)


# ------------------------------------------------- estimator reductions


def _force(e=None, h=None, hbar=None, q=None):
    def transform(nus):
        return px.NuisanceSet(
            e=e(nus) if e else nus.e,
            h=h(nus) if h else nus.h,
            hbar=hbar(nus) if hbar else nus.hbar,
            q0=q(nus)[0] if q else nus.q0,
            q1=q(nus)[1] if q else nus.q1,
            diagnostics=nus.diagnostics,
        )

    return transform


def test_ob_or_zero_when_h_constant(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=5)
    nus = fit_all_nuisances(data, folds, CFG)

    e_view = px.SampleView(data, np.flatnonzero(data.is_e), "E")

    def refit_hbar(n):
        return px.fit_hbar(
            *fit_basis(CFG.hbar_basis, e_view), e_view.a,
            evaluate(constant_bridge(n.h, 7.0), e_view),
        )

    transform = _force(h=lambda n: constant_bridge(n.h, 7.0), hbar=refit_hbar)
    rep = estimate_with(data, folds, CFG, [transform(n) for n in nus], ("OB-OR",))["OB-OR"]
    assert rep.tau_hat == pytest.approx(0.0, abs=1e-10)


def test_ob_ipw_exact_cancellation(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=5)
    e_view = px.split_by_sample(data)[0]
    share = float(e_view.a.mean())
    transform = _force(
        e=lambda n: PropensityModel.known(share, clip_eps=0.001),
        h=lambda n: constant_bridge(n.h, 3.0),
    )
    nus = [transform(n) for n in fit_all_nuisances(data, folds, CFG)]
    rep = estimate_with(data, folds, CFG, nus, ("OB-IPW",))["OB-IPW"]
    assert rep.tau_hat == pytest.approx(0.0, abs=1e-12)


def test_ob_ipw_biased_at_clip_boundary(confounded_cfg):
    # Propensity glued to 0.01 under a 0.5 design: the harness must flag it.
    taus = []
    for r in range(20):
        data, oracle = px.generate(confounded_cfg, 4000, 0.5, seed=800 + r)
        folds = px.make_folds(data, 2, seed=r)
        transform = _force(e=lambda n: PropensityModel.known(0.011, clip_eps=0.01))
        nus = [transform(n) for n in fit_all_nuisances(data, folds, CFG)]
        rep = estimate_with(data, folds, CFG, nus, ("OB-IPW",))["OB-IPW"]
        taus.append(rep.tau_hat)
    taus = np.array(taus)
    bias = taus.mean() - 1.0
    se = taus.std(ddof=1) / np.sqrt(taus.shape[0])
    assert abs(bias) > 5.0 * se


def test_sb_zero_when_arms_equal(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=5)
    transform = _force(q=lambda n: (n.q1, n.q1))
    nus = [transform(n) for n in fit_all_nuisances(data, folds, CFG)]
    rep = estimate_with(data, folds, CFG, nus, ("SB",))["SB"]
    assert rep.tau_hat == 0.0


def test_sb_shift_moves_by_reweighting_mass_gap(small_data):
    # A constant outcome shift moves the estimate by exactly
    # c * (mean_O q1 - mean_O q0) over the evaluation units. Each
    # reweighting function normalizes to one over its own training
    # complement (see the solver-level normalization test), so the gap
    # is held-out noise, not a systematic offset.
    data, _ = small_data
    e_view = px.split_by_sample(data)[0]
    share = float(e_view.a.mean())
    cfg = px.EstimatorConfig(ridge_q=0.0, known_propensity=share)
    folds = px.make_folds(data, 2, seed=5)
    nus = fit_all_nuisances(data, folds, cfg)
    rep = estimate_with(data, folds, cfg, nus, ("SB",))["SB"]

    shifted = px.CombinedDataset.from_arrays(
        y=data.y + 11.0, w=data.w, z=data.z, s=data.s, a=data.a, x=data.x, is_e=data.is_e
    )
    rep_shift = estimate_with(shifted, folds, cfg, nus, ("SB",))["SB"]
    evals = evaluate_nuisances(data, folds, nus)
    mass_gap = float(np.mean(evals.q1 - evals.q0))
    assert rep_shift.tau_hat - rep.tau_hat == pytest.approx(11.0 * mass_gap, abs=1e-10)
    # and the mass gap itself is small held-out noise
    assert abs(mass_gap) < 0.02


def test_mr_reduces_to_e_part_when_q_arms_equal(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=6)
    nus = fit_all_nuisances(data, folds, CFG)
    transform = _force(q=lambda n: (n.q1, n.q1))
    transformed = [transform(n) for n in nus]
    rep = estimate_with(data, folds, CFG, transformed, ("MR",))["MR"]
    evals = evaluate_nuisances(data, folds, transformed)
    assert np.all(evals.mr_o_part == 0.0)
    assert rep.tau_hat == float(np.mean(evals.mr_e_part))


def test_mr_reduces_to_sb_when_h_and_hbar_zero(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=6)
    nus = fit_all_nuisances(data, folds, CFG)
    transform = _force(
        h=lambda n: constant_bridge(n.h, 0.0),
        hbar=lambda n: constant_hbar(n.hbar.basis, 0.0, 0.0),
    )
    transformed = [transform(n) for n in nus]
    reps = estimate_with(data, folds, CFG, transformed, ("MR", "SB"))
    assert reps["MR"].tau_hat == reps["SB"].tau_hat


@settings(max_examples=10, deadline=None)
@given(perm=st.integers(min_value=2, max_value=5).flatmap(lambda k: st.permutations(range(k))),
       seed=st.integers(min_value=0, max_value=999))
@example(perm=[2, 0, 3, 1], seed=13)
def test_fold_label_permutation_bit_identical(small_data, perm, seed):
    data, _ = small_data
    k = len(perm)
    folds = px.make_folds(data, k, seed=seed)
    perm = np.array(perm)
    permuted = px.FoldAssignment(
        k_folds=k, fold_of=perm[folds.fold_of], seed=folds.seed
    )
    r1 = px.estimate_all(data, folds, CFG)
    r2 = px.estimate_all(data, permuted, CFG)
    for name in r1:
        assert r1[name].tau_hat == r2[name].tau_hat
    assert r1["MR"].variance_hat == r2["MR"].variance_hat
    assert r1["MR"].ci == r2["MR"].ci


def test_record_order_invariance(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=17)
    rng = np.random.default_rng(0)
    perm = rng.permutation(data.n)
    shuffled = px.CombinedDataset.from_arrays(
        y=data.y[perm], w=data.w[perm], z=data.z[perm], s=data.s[perm],
        a=data.a[perm], x=data.x[perm], is_e=data.is_e[perm],
    )
    moved_folds = px.FoldAssignment(
        k_folds=3, fold_of=folds.fold_of[perm], seed=folds.seed
    )
    r1 = px.estimate_all(data, folds, CFG)
    r2 = px.estimate_all(shuffled, moved_folds, CFG)
    for name in r1:
        assert abs(r1[name].tau_hat - r2[name].tau_hat) < 1e-12


def test_ob_estimators_agree_under_known_randomization(confounded_cfg):
    taus_or, taus_ipw = [], []
    for r in range(25):
        data, _ = px.generate(confounded_cfg, 8000, 0.5, seed=400 + r)
        folds = px.make_folds(data, 2, seed=r)
        cfg = px.EstimatorConfig(known_propensity=confounded_cfg.p_treat)
        reps = px.estimate_all(data, folds, cfg)
        taus_or.append(reps["OB-OR"].tau_hat)
        taus_ipw.append(reps["OB-IPW"].tau_hat)
    diff = np.array(taus_or) - np.array(taus_ipw)
    se = diff.std(ddof=1) / np.sqrt(diff.shape[0])
    assert abs(diff.mean()) < 3.0 * max(se, 1e-6)


# ---------------------------------------------------- variance and CI


def test_mr_variance_signature(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 3, seed=6)
    nus = fit_all_nuisances(data, folds, CFG)
    rep = estimate_with(data, folds, CFG, nus, ("MR",))["MR"]
    # V = (N/N_E^2) sum_E [e-part - tau]^2 + (N/N_O^2) sum_O [o-part]^2,
    # rebuilt here from the raw held-out nuisance evaluations.
    ev = evaluate_nuisances(data, folds, nus)
    hbar_a = np.where(ev.a == 1.0, ev.hbar1, ev.hbar0)
    e_part = ((ev.a - ev.e_hat) * (ev.h_e - hbar_a) / (ev.e_hat * (1.0 - ev.e_hat))
              + ev.hbar1 - ev.hbar0)
    o_part = (ev.q1 - ev.q0) * (ev.y - ev.h_o)
    assert rep.tau_hat == pytest.approx(e_part.mean() + o_part.mean(), rel=1e-12)
    v = (data.n / data.n_e**2 * np.sum((e_part - rep.tau_hat) ** 2)
         + data.n / data.n_o**2 * np.sum(o_part**2))
    assert rep.variance_hat == pytest.approx(v, rel=1e-12)
    assert rep.variance_hat >= 0.0


def test_mr_variance_degenerate_zero(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=5)
    nus = fit_all_nuisances(data, folds, CFG)
    share = float(px.split_by_sample(data)[0].a.mean())
    transform = _force(
        e=lambda n: PropensityModel.known(share, clip_eps=0.001),
        h=lambda n: constant_bridge(n.h, 2.0),
        hbar=lambda n: constant_hbar(n.hbar.basis, 2.0, 2.0),
        q=lambda n: (n.q1, n.q1),
    )
    transformed = [transform(n) for n in nus]
    rep = estimate_with(data, folds, CFG, transformed, ("MR",))["MR"]
    # residual h - hbar(a, .) is identically zero and both contrasts vanish
    assert rep.tau_hat == 0.0
    assert rep.variance_hat == pytest.approx(0.0, abs=1e-20)


def test_confidence_interval_examples():
    lo, hi = px.confidence_interval(1.0, 4.0, 400, 0.05)
    assert (round(lo, 3), round(hi, 3)) == (0.804, 1.196)
    assert lo == pytest.approx(1.0 - 1.959963985 * 0.1, abs=1e-9)

    lo0, hi0 = px.confidence_interval(2.5, 0.0, 100, 0.05)
    assert lo0 == hi0 == 2.5

    lo1, hi1 = px.confidence_interval(0.0, 1.0, 1, 0.32)
    from proxate.stats import normal_quantile

    assert hi1 - lo1 == pytest.approx(2.0 * normal_quantile(0.84), abs=1e-12)


def test_confidence_interval_validation():
    with pytest.raises(ValidationError):
        px.confidence_interval(0.0, 1.0, 10, 0.0)
    with pytest.raises(ValidationError):
        px.confidence_interval(0.0, 1.0, 10, 1.0)
    with pytest.raises(ValidationError):
        px.confidence_interval(0.0, -1.0, 10, 0.05)


def test_report_invariants(small_data):
    data, _ = small_data
    folds = px.make_folds(data, 2, seed=5)
    reps = px.estimate_all(data, folds, CFG)
    rep = reps["MR"]
    lo, hi = rep.ci
    assert lo <= rep.tau_hat <= hi
    assert rep.variance_hat is not None
    width = hi - lo
    assert width == pytest.approx(
        2.0 * 1.959963985 * np.sqrt(rep.variance_hat / data.n), rel=1e-8
    )
    other = reps["OB-OR"]
    assert other.variance_hat is None and other.ci is None
    d = rep.to_dict()
    assert d["estimator"] == "MR" and d["k_folds"] == 2 and d["seed"] == 5


# ---------------------------------------------------- regression guards

# estimate_all on generate(confounded_config(), 2000, 0.5, seed=7) with
# make_folds(k=5, seed=0), recorded before the scalar per-record API was
# removed; any later refactor of the nuisance engine must reproduce them.
GOLDEN_TAU = {
    "OB-OR": 0.9324906774737894,
    "OB-IPW": 0.9478363949196077,
    "SB": 0.9668191199067274,
    "MR": 0.9606862860343374,
}
GOLDEN_MR_VARIANCE = 110.4866587645338


def test_golden_estimates(small_data):
    data, _ = small_data
    reps = px.estimate_all(data, px.make_folds(data, 5, seed=0), CFG)
    for name, tau in GOLDEN_TAU.items():
        assert abs(reps[name].tau_hat - tau) <= 1e-10, name
    assert abs(reps["MR"].variance_hat - GOLDEN_MR_VARIANCE) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(drawn=_configs())
def test_estimator_config_dict_round_trip(drawn):
    # from_dict inverts to_dict through JSON for every config record,
    # the basis specs and the CSV schema included.
    custom = px.EstimatorConfig(
        psi=px.BasisSpec(roles=("w", "s"), degree=2, interactions=True),
        hbar_basis=px.BasisSpec(roles=("x",), intercept=True, standardize=True),
        ridge_h=1e-3,
        ridge_q=0.0,
        clip_eps=0.05,
        known_propensity=0.4,
        alpha=0.1,
    )
    schema = px.CsvSchema(y="earn", w=("score0", "score1"), s="s_", e_label="EXP", o_label="OBS")
    for rec in (px.EstimatorConfig(), custom, drawn, drawn.psi, drawn.e_basis,
                px.CsvSchema(), schema):
        assert from_dict(type(rec), json.loads(json.dumps(rec.to_dict())), "config") == rec
