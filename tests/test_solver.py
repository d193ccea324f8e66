"""Coupled parabolic-elliptic stepping: exactness, conservation, decay."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from config_oracle import init_mode_messages
from diskvort import solver
from diskvort.cli import dispatch
from diskvort.fields import SpectralField, grid_size_problems, norm_at
from diskvort.semigroup import fit_decay_rate
from diskvort.solver import _initial_field as solver_initial_field
from diskvort.solver import _random_admissible
from diskvort.solver import (
    CFLViolation,
    DiagnosticsRow,
    MomentDriftError,
    NonFiniteState,
    RunConfig,
    SolverState,
    initial_state,
    measure_moment_drift,
    prepare,
    run,
    step,
    stokes_run,
)
from diskvort.spectrum import ModeIndex, table_size_problems
from transform_oracle import advect_reference, duhamel_reference, propagate, quadrature_drift


def total_field(state, table) -> SpectralField:
    """The total vorticity omega_0 + omega_B of a solver state."""
    return SpectralField(table, table.from_blocks(state.w0 + state.wb), "vorticity")


def small_cfg(**kw):
    base = dict(nu=0.1, K=4, J=4, dt=2e-3, t_final=0.2, init_seed=1)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_collects_all_errors():
    cfg = RunConfig(nu=-1.0, K=-2, J=0, dt=0.0, t_final=-3.0, output_every=0)
    errs = cfg.validate()
    joined = "\n".join(errs)
    for token in ("nu", "K", "J", "dt", "t_final", "output_every", "init_modes"):
        assert token in joined
    with pytest.raises(ValueError) as exc:
        prepare(cfg)
    assert "nu" in str(exc.value) and "dt" in str(exc.value)


def test_config_rejects_double_init():
    cfg = small_cfg(init_modes=(((0, 1, "cos"), 1.0),), init_seed=3)
    assert any("exactly one" in e for e in cfg.validate())


def test_config_rejects_nonmultiple_horizon():
    cfg = small_cfg(dt=3e-3, t_final=0.1)
    assert any("integer multiple" in e for e in cfg.validate())


@pytest.mark.parametrize(
    "dt, n, offset, rejected",
    [(1e-3, 1000, 0.995e-9, False), (1e-3, 1000, 1.005e-9, True), (0.1, 1, 0.995e-9, False), (0.1, 1, 1.005e-9, True)],
)
def test_config_horizon_tolerance_is_1e_9_of_the_step_count(dt, n, offset, rejected):
    # t_final / dt may miss an integer by 1e-9 of the count, or of 1 below one
    cfg = small_cfg(dt=dt, t_final=dt * n * (1.0 + offset))
    assert any("integer multiple" in e for e in cfg.validate()) == rejected


def test_config_rejects_out_of_table_mode():
    cfg = small_cfg(init_modes=(((7, 1, "cos"), 1.0),), init_seed=None)
    assert any("outside table" in e for e in cfg.validate())


@pytest.mark.parametrize(
    "field,value",
    [
        ("K", np.int64(4)),
        ("J", np.int32(4)),
        ("init_seed", np.int64(3)),
        ("nu", np.float32(0.1)),
        ("dt", np.float64(2e-3)),
        ("output_every", np.uint8(5)),
        ("n_radial", np.int64(20)),
        ("cfl", np.float32(0.5)),
        ("n_angular", np.int32(16)),
    ],
)
def test_config_accepts_numpy_scalars(field, value):
    cfg = small_cfg(**{field: value})
    assert cfg.validate() == []
    assert type(getattr(cfg, field)) is type(value.item())
    assert getattr(cfg, field) == value.item()
    prepare(cfg)


@pytest.mark.parametrize(
    "field,value",
    [
        ("K", True),
        ("J", True),
        ("K", np.True_),
        ("init_seed", True),
        ("output_every", True),
        ("nu", True),
        ("dt", False),
        ("t_final", True),
        ("init_seed", np.True_),
        ("cfl", np.True_),
    ],
)
def test_config_rejects_bools(field, value):
    errs = small_cfg(**{field: value}).validate()
    assert any(e.startswith(field) and repr(value) in e for e in errs), errs


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_radial", 40.5),
        ("n_angular", 26.7),
        ("n_radial", 40.0),
        ("n_radial", True),
        ("n_angular", np.True_),
        ("n_angular", "26"),
    ],
)
def test_config_rejects_non_integer_grid_counts(field, value):
    errs = small_cfg(**{field: value}).validate()
    assert any(e.startswith(field) and repr(value) in e for e in errs), errs
    with pytest.raises(ValueError, match=field):
        prepare(small_cfg(**{field: value}))


@pytest.mark.parametrize(
    "modes",
    [
        (((1, 1, "cos"), 1.0), ((1, 1, "cos"), 0.5)),
        (((2, 3, "sin"), 1.0), ((0, 1, "cos"), 0.2), ((2.0, 3, "sin"), 0.5)),
    ],
)
def test_config_rejects_duplicate_init_modes(modes):
    errs = small_cfg(init_modes=modes, init_seed=None).validate()
    assert any("given twice" in e for e in errs), errs


@pytest.mark.parametrize("mode", [(2.5, 1.7, "cos"), (2, 1.5, "sin"), (2.5, 1, "cos"), ("2", 1, "cos")])
def test_config_rejects_non_integer_mode_indices(mode):
    errs = small_cfg(init_modes=((mode, 1.0),), init_seed=None).validate()
    assert any("needs integer k and j" in e for e in errs), errs
    with pytest.raises(ValueError, match="needs integer"):
        prepare(small_cfg(init_modes=((mode, 1.0),), init_seed=None))


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(t_final=math.inf), "t_final must be finite, got inf"),
        (dict(nu=math.inf), "nu must be finite, got inf"),
        (dict(dt=math.inf), "dt must be finite, got inf"),
        (dict(dt=1e10, t_final=1.0), "t_final=1.0 is shorter than one step of dt=10000000000.0"),
        (dict(dt=1e-3, t_final=1e-12), "t_final=1e-12 is shorter than one step of dt=0.001"),
        (dict(dt=1e-300, t_final=1e300), "t_final=1e+300 over dt=1e-300 is too many steps to count"),
        (
            dict(init_modes=(((0, 1, "cos"), math.inf),), init_seed=None),
            "init mode (0,1,cos) has coefficient inf, not finite",
        ),
        (
            dict(init_modes=(((2, 1, "sin"), 0.5), ((0, 1, "cos"), math.nan)), init_seed=None),
            "init mode (0,1,cos) has coefficient nan, not finite",
        ),
    ],
    ids=["t_final-inf", "nu-inf", "dt-inf", "dt-past-t_final", "t_final-under-dt",
         "step-count-overflows", "coefficient-inf", "coefficient-nan"],
)
def test_config_rejects_runs_that_cannot_run(kw, message):
    # t_final = inf (or a step count past the floats) used to crash in
    # round(); the infinite values and the runs of zero steps passed, and
    # the latter finished "completed" at t = 0
    cfg = small_cfg(**kw)
    assert message in cfg.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        prepare(cfg)


@pytest.mark.parametrize(
    "modes, messages",
    [
        (
            (((-1, 1, "cos"), 1.0), ((9, 1, "cos"), math.inf), ((2, 1, "cos"), 1.0), ((2, 1, "cos"), 1.0)),
            [
                "init mode (-1,1,cos): angular wavenumber must be >= 0, got -1",
                "init mode (9,1,cos) has coefficient inf, not finite",
                "init mode (9,1,cos) outside table K=4 J=4",
                "init mode (2,1,cos) given twice",
            ],
        ),
        (
            (((0, 1, "sin"), None), ((1, 1, "cos"),), ((1, 2.5, "cos"), "a"), ((3, 5, "sin"), 0.5)),
            [
                "init mode (0,1,sin): k = 0 modes are radial; only 'cos' parity exists",
                "init mode (0,1,sin) has coefficient None, not a number",
                "init mode ((1, 1, 'cos'),) is not ((k, j, parity), coefficient)",
                "init mode (1,2.5,cos) needs integer k and j",
                "init mode (1,2.5,cos) has coefficient 'a', not a number",
                "init mode (3,5,sin) outside table K=4 J=4",
            ],
        ),
    ],
    ids=["index-coefficient-table-repeat", "parity-none-shape-float-index"],
)
def test_config_checks_every_init_mode(modes, messages):
    # each entry is checked on its own, so no bad entry hides a later one
    assert small_cfg(init_modes=modes, init_seed=None).validate() == messages


# index values: integers, bools, numpy integers, floats holding whole
# numbers, indices past int64, 2.5, and values that are no index at all
_INDEX = st.one_of(
    st.integers(-1, 6),
    st.booleans(),
    st.integers(-1, 6).map(np.int64),
    st.integers(0, 6).map(np.uint8),
    st.integers(-1, 6).map(float),
    st.sampled_from([2**70, -(2**70), 2.0**70, np.uint64(2**64 - 1)]),
    st.sampled_from([2.5, math.inf, math.nan, "2", None]),
)
_COEFF = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
    st.sampled_from([None, math.inf, -math.inf, math.nan, "a", "0.5", True, np.float32(0.5), 1j]),
)
_MODE = st.tuples(_INDEX, _INDEX, st.sampled_from(["cos", "sin", "tan", None, np.str_("sin")]))
# valid modes of a small table, so that slots meet, with finite and
# non-finite coefficients
_VALID = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(1, 3), st.sampled_from(["cos", "sin"])),
    st.one_of(st.floats(-1, 1), st.sampled_from([math.inf, -math.inf, math.nan])),
)
_ENTRY = st.one_of(
    st.tuples(_MODE, _COEFF),
    st.tuples(_MODE, _COEFF).map(list),
    # malformed: a bare mode, a short mode, a scalar, a string, None
    st.tuples(_MODE),
    st.tuples(st.tuples(_INDEX, _INDEX), _COEFF),
    st.sampled_from([None, 7, "ab", ((1, 1, "cos"), 1.0, 2.0)]),
)


@st.composite
def _init_modes(draw):
    entries = draw(st.lists(_VALID, max_size=5)) + draw(st.lists(_ENTRY, max_size=5))
    if entries:  # repeats of drawn entries, anywhere in the list
        entries += draw(st.lists(st.sampled_from(entries), max_size=3))
        entries = draw(st.permutations(entries))
    return draw(st.sampled_from([tuple(entries), entries]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    modes=st.one_of(_init_modes(), st.just(5)),
    K=st.one_of(st.integers(-1, 5), st.sampled_from([4.0, True, "4", 64, np.int64(3)])),
    J=st.one_of(st.integers(0, 5), st.sampled_from([2.0, None, np.int32(2)])),
)
def test_config_init_mode_messages_match_per_entry_oracle(modes, K, J):
    # the package's screen returns the oracle's per-entry messages, in its
    # order, between the table size and the grid size messages
    cfg = small_cfg(K=K, J=J, init_modes=modes, init_seed=None)
    want = (
        table_size_problems(cfg.K, cfg.J)
        + init_mode_messages(cfg.init_modes, cfg.K, cfg.J)
        + grid_size_problems(cfg.K, cfg.J, None, None)
    )
    assert cfg.validate() == want


def test_config_accepts_numpy_integer_mode_indices():
    modes = (((np.int64(2), np.int32(1), "sin"), 1.0), ((np.uint8(0), np.int64(3), "cos"), 0.5))
    cfg = small_cfg(init_modes=modes, init_seed=None)
    assert cfg.validate() == []
    ctx = prepare(cfg)
    total = total_field(initial_state(cfg, ctx), ctx.table)
    np.testing.assert_allclose(total.coeffs, per_mode_field(cfg, total.table).coeffs, atol=1e-14)


def test_large_prepare_builds_no_mode_index_and_one_profile_stack(monkeypatch):
    # the cold set-up at K = 32, J = 24 from all 1560 modes, counted, not
    # timed: the init modes are screened without a ModeIndex per valid
    # entry, and the Bessel stack runs for the zero scan, its four Newton
    # steps, the norms and the grid's one profile stack; the lift's
    # J_k(alpha) is the table's, not a second stack at the zeros
    from diskvort import specfun, spectrum

    K, J = 32, 24
    modes = tuple(
        ((k, j, p), 1.0 / (k + j))
        for k in range(K + 1)
        for j in range(1, J + 1)
        for p in (("cos",) if k == 0 else ("cos", "sin"))
    )
    built, stacks = [], []
    post_init, stack = ModeIndex.__post_init__, specfun._bessel_stack

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_stack(orders, x, **kw):
        stacks.append(len(orders))
        return stack(orders, x, **kw)

    monkeypatch.setattr(ModeIndex, "__post_init__", counting_post_init)
    monkeypatch.setattr(specfun, "_bessel_stack", counting_stack)
    monkeypatch.setattr(spectrum, "_bessel_stack", counting_stack)
    cfg = RunConfig(nu=0.01, K=K, J=J, dt=1e-3, t_final=1e-3, init_modes=modes)
    ctx = prepare(cfg)
    assert len(modes) == len(ctx.table) == 1560
    assert built == []
    assert len(stacks) == 7
    assert stacks[-2:] == [K + 1, K + 1]  # the norms, then the grid


# ---------------------------------------------------------------------------
# initial split


def test_initial_total_matches_requested():
    cfg = small_cfg(init_seed=11)
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(len(ctx.table)) / ctx.table.lam
    want = c / np.sqrt(np.sum(c**2))
    np.testing.assert_allclose(total_field(state, ctx.table).coeffs, want, atol=1e-14)
    assert state.steps == 0


def per_mode_field(cfg, table):
    """The requested initial vorticity assigned one mode at a time."""
    f = SpectralField.zeros(table)
    for (k, j, parity), coeff in cfg.init_modes:
        f.coeffs[table.position(ModeIndex(int(k), int(j), parity))] = float(coeff)
    return f


def unit_enstrophy_modes(K, J, seed):
    """Every mode of a (K, J) table, amplitudes falling like 1/lambda."""
    keys = [
        (k, j, parity)
        for k in range(K + 1)
        for j in range(1, J + 1)
        for parity in (("cos",) if k == 0 else ("cos", "sin"))
    ]
    amp = np.array([(np.pi * (j + 0.5 * k + 0.25)) ** -2 for k, j, _ in keys])
    c = np.random.default_rng(seed).standard_normal(len(keys)) * amp
    return tuple(zip(keys, (c / np.sqrt(np.sum(c * c))).tolist()))


@pytest.mark.parametrize(
    "K,J,modes",
    [
        (4, 4, (((0, 1, "cos"), 1.0),)),
        (4, 4, (((0, 3, "cos"), -0.25), ((3, 2, "sin"), 0.5), ((1, 4, "sin"), 1e-3))),
        (8, 8, unit_enstrophy_modes(8, 8, 2024)),
        (4, 12, (((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25))),
    ],
    ids=["k0", "sin", "k8-all-modes", "check10"],
)
def test_initial_field_matches_per_mode_assignment(K, J, modes):
    cfg = RunConfig(nu=0.1, K=K, J=J, dt=2e-3, t_final=0.2, init_modes=modes)
    ctx = prepare(cfg)
    want = per_mode_field(cfg, ctx.table).coeffs
    blocks = solver_initial_field(cfg, ctx.table)
    assert blocks.shape == (2, K + 1, J)
    assert np.array_equal(blocks, ctx.table.to_blocks(want))
    random = solver_initial_field(dataclasses.replace(cfg, init_modes=None, init_seed=J), ctx.table)
    assert not blocks[1, 0].any() and not random[1, 0].any()  # the k = 0 sine pad slot
    total = total_field(initial_state(cfg, ctx), ctx.table).coeffs
    np.testing.assert_allclose(total, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))


def test_initial_correction_nontrivial_for_nonradial():
    cfg = small_cfg(init_modes=(((0, 1, "cos"), 1.0), ((1, 1, "cos"), 0.5)), init_seed=None)
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    assert norm_at(SpectralField(ctx.table, ctx.table.from_blocks(state.wb), "vorticity"), 0) > 1e-10


# ---------------------------------------------------------------------------
# stepping


def test_radial_init_matches_exact_stokes():
    # advection of a radial field vanishes, so the run is exact heat flow
    nu = 0.1
    cfg = RunConfig(
        nu=nu, K=4, J=4, dt=1e-3, t_final=0.68,
        init_modes=(((0, 1, "cos"), 1.0),), output_every=100,
    )
    ctx = prepare(cfg)
    tr = run(cfg)
    lam = ctx.table.lambda_min
    n = ctx.table.position(ModeIndex(0, 1, "cos"))
    got = tr.states[-1].coeffs[n]
    want = np.exp(-nu * lam * 0.68)
    assert got == pytest.approx(want, rel=1e-9)


def test_self_convergence_at_least_first_order():
    # the elliptic track is refreshed with a one-step lag and a backward
    # difference, which caps the coupled scheme at first order
    def terminal(dt):
        cfg = RunConfig(
            nu=0.1, K=4, J=4, dt=dt, t_final=0.4,
            init_modes=(((0, 1, "cos"), 1.0), ((1, 1, "cos"), 0.5)),
        )
        ctx = prepare(cfg)
        s = initial_state(cfg, ctx)
        for _ in range(int(round(0.4 / dt))):
            s = step(s, cfg, ctx)
        return total_field(s, ctx.table).coeffs

    d1 = np.linalg.norm(terminal(4e-3) - terminal(2e-3))
    d2 = np.linalg.norm(terminal(2e-3) - terminal(1e-3))
    assert d1 / d2 > 1.7
    assert d2 < d1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: omega_B lags one step")
def test_self_convergence_second_order():
    # ETD2RK is second order; the Richardson orders of the final state
    # over three dt halvings must show it
    def final(dt):
        n = round(0.4 / dt)
        cfg = RunConfig(nu=0.1, K=8, J=8, dt=dt, t_final=0.4, init_seed=2024, output_every=n)
        return run(cfg).states[-1].coeffs

    u = [final(dt) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    gaps = [np.max(np.abs(a - b)) for a, b in zip(u, u[1:])]
    orders = [math.log2(g / h) for g, h in zip(gaps, gaps[1:])]
    assert min(orders) >= 1.9, orders


def test_moment_drift_over_thousand_steps():
    cfg = RunConfig(nu=0.1, K=4, J=4, dt=1e-3, t_final=1.0, init_seed=7, output_every=100)
    tr = run(cfg)
    worst = max(r.moment_drift for r in tr.diagnostics)
    assert worst <= 1e-8  # per unit time over T=1


def test_enstrophy_monotone():
    tr = run(small_cfg(t_final=0.5, output_every=10))
    ens = [r.enstrophy for r in tr.diagnostics]
    for a, b in zip(ens, ens[1:]):
        assert b <= a + 1e-10


def test_cfl_refusal():
    cfg = small_cfg(
        init_modes=(((1, 1, "cos"), 1e6),), init_seed=None, dt=1e-2, t_final=0.1
    )
    with pytest.raises(CFLViolation):
        run(cfg)


def test_moment_abort_with_tiny_tolerance(monkeypatch):
    monkeypatch.setattr(solver, "MOMENT_TOL", 1e-18)
    with pytest.raises(MomentDriftError, match=r"\(tolerance 1.0e-18\); state no longer admissible$"):
        run(small_cfg())


@pytest.mark.parametrize("scale, aborts", [(0.995, False), (1.005, True)])
def test_moment_abort_at_ten_times_the_tolerance(scale, aborts):
    # one harmonic moment of scale * 10 MOMENT_TOL = scale * 1e-7 on the
    # total, after 5 steps of dt = 0.002
    cfg = small_cfg()
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    row = ctx.moment_map[1, 2]
    w0 = state.w0.copy()
    w0[1, 2] += scale * 1e-7 * row / (row @ row)
    moved = dataclasses.replace(state, steps=5, w0=w0)
    assert measure_moment_drift(moved.w0 + moved.wb, ctx) == pytest.approx(scale * 1e-7, rel=1e-6)
    if aborts:
        with pytest.raises(MomentDriftError, match=r"reached 1.005e-07 at t=0.01 \(tolerance 1.0e-08\)"):
            step(moved, cfg, ctx)
    else:
        assert step(moved, cfg, ctx).steps == 6


@pytest.mark.parametrize("margin, refused", [(0.99, False), (1.01, True)])
def test_cfl_refusal_at_the_bound(margin, refused):
    # the Courant number dt |u|max sqrt(lam_max) against a cfl set around it
    cfg = small_cfg()
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    courant = cfg.dt * state.advected[2] * ctx.sqrt_lam_max
    bounded = dataclasses.replace(cfg, cfl=courant / margin)
    if refused:
        with pytest.raises(CFLViolation, match=f"= {courant:.3g} exceeds"):
            step(state, bounded, ctx)
    else:
        assert step(state, bounded, ctx).steps == 1


def test_moment_map_drift_equals_quadrature_drift():
    # on a radial grid this coarse the basis functions carry quadrature
    # moments of order 1e-2, so max |M c| is compared on numbers that are
    # not roundoff; on the default grid both sides are roundoff
    rng = np.random.default_rng(2)
    coarse = prepare(small_cfg(n_radial=6))
    for _ in range(3):
        omega = SpectralField(coarse.table, rng.standard_normal(len(coarse.table)), "vorticity")
        want = quadrature_drift(omega, coarse.grid)
        assert want > 1e-3
        blocks = coarse.table.to_blocks(omega.coeffs)
        assert measure_moment_drift(blocks, coarse) == pytest.approx(want, rel=1e-12)
    cfg = small_cfg()
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    for _ in range(5):
        state = step(state, cfg, ctx)
    drift = measure_moment_drift(state.w0 + state.wb, ctx)
    assert drift == pytest.approx(quadrature_drift(total_field(state, ctx.table), ctx.grid), abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_aborts(bad):
    cfg = small_cfg()
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    broken = SolverState(steps=0, w0=np.full_like(state.w0, bad), wb=state.wb)
    one_bad = state.w0.copy()
    one_bad[0, 1, 2] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteState):
            step(broken, cfg, ctx)
        with pytest.raises(NonFiniteState):
            step(SolverState(1, one_bad, state.wb), cfg, ctx)


def test_non_finite_update_aborts_at_its_step():
    # an elliptic map past the floats (E / nu overflows) passes the step's
    # checks on the finite state, and the update it makes is refused
    cfg = small_cfg(nu=0.05)
    ctx = prepare(cfg)
    bad = dataclasses.replace(ctx, elliptic_map=np.full_like(ctx.elliptic_map, np.inf))
    message = "^step from t=0 produced non-finite coefficients$"
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match=message) as exc:
        list(solver._integrate(cfg, bad, initial_state(cfg, ctx), lambda state: step(state, cfg, bad)))
    assert (exc.value.step, exc.value.t) == (0, 0.0)


@pytest.mark.parametrize("runner", [run, stokes_run])
def test_non_finite_initial_row_aborts(runner):
    # 1e300 squares past the floats: the run used to finish with energy = inf
    cfg = small_cfg(init_modes=(((0, 1, "cos"), 1e300),), init_seed=None)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match="^output row at t=0 is not finite: energy=inf") as exc:
        runner(cfg)
    assert (exc.value.step, exc.value.t) == (0, 0.0)


def test_non_finite_row_aborts_at_its_step():
    # an infinite forcing from t = 0.046 on: step 22 makes the state
    # non-finite, and the next output row, after step 30, stops the run
    cfg = small_cfg(output_every=10)
    ctx = prepare(cfg)
    g = _random_admissible(ctx.table, 5)
    forcing = lambda t: g * (math.inf if t > 0.045 else 0.0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match="^output row at t=0.06 is not finite") as exc:
        stokes_run(cfg, forcing=forcing, ctx=ctx)
    assert (exc.value.step, exc.value.t) == (30, 30 * cfg.dt)


@pytest.mark.parametrize("nu", [0.1, 0.01])
def test_run_matches_unscaled_kernel_oracle(monkeypatch, nu):
    # check 10's two-mode run on the kernel of pre-scaled grid rows, and
    # on the oracle kernel that scales per call: the rows and the final
    # state agree to rounding; the moment drift is rounding itself
    cfg = RunConfig(nu=nu, K=4, J=12, dt=0.002, t_final=0.5,
                    init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)), output_every=5)
    got = run(cfg)
    calls = []

    def oracle(*args, speed=True):
        calls.append(speed)
        return advect_reference(*args, speed=speed)

    monkeypatch.setattr(solver, "_advect", oracle)
    want = run(cfg)
    # the oracle ran both stages of every step; initial_state's call is the first step's first
    assert calls.count(True) == calls.count(False) == round(cfg.t_final / cfg.dt)
    for name in ("energy", "enstrophy", "palinstrophy_norm", "correction_norm"):
        a, b = (np.array([getattr(row, name) for row in t.diagnostics]) for t in (got, want))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=name)
    for t in (got, want):
        assert max(row.moment_drift for row in t.diagnostics) <= 1e-14
    scale = np.abs(want.states[-1].coeffs).max()
    np.testing.assert_allclose(got.states[-1].coeffs, want.states[-1].coeffs, rtol=0, atol=1e-12 * scale)


def test_run_equals_iterated_steps():
    cfg = small_cfg(init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)), init_seed=None)
    ctx = prepare(cfg)
    traj = run(cfg, ctx)
    state = initial_state(cfg, ctx)
    for _ in range(int(round(cfg.t_final / cfg.dt))):
        state = step(state, cfg, ctx)
    assert state.steps * cfg.dt == traj.times[-1]
    assert np.array_equal(traj.states[-1].coeffs, total_field(state, ctx.table).coeffs)


@pytest.mark.parametrize("nu", [0.1, 0.01])
def test_run_advects_twice_per_step_less_the_carried_first_stage(monkeypatch, nu):
    # initial_state advects the requested field for omega_B(0) and hands
    # that advection to the first step as its first stage: 2n over n steps,
    # of which the n second stages form no speed
    calls = []

    def counting(*args, speed=True):
        calls.append(speed)
        return advect(*args, speed=speed)

    advect = solver._advect
    monkeypatch.setattr(solver, "_advect", counting)
    cfg = small_cfg(nu=nu, t_final=0.02)
    run(cfg)
    n = round(cfg.t_final / cfg.dt)
    assert len(calls) == 2 * n and calls.count(False) == n


def test_first_step_on_carried_advection_equals_a_fresh_one():
    # the carried advection is that of the requested omega, which the
    # first step's omega_0 + omega_B equals to one rounding
    cfg = small_cfg(nu=0.01)
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    assert state.advected is not None
    got = step(state, cfg, ctx)
    want = step(dataclasses.replace(state, advected=None), cfg, ctx)
    assert got.advected is None
    for a, b in ((got.w0, want.w0), (got.wb, want.wb)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14 * np.abs(b).max())


# the k = 0 cosine, the k = 0 sine pad, and two more moment slots
INJECTED_SLOTS = ((0, 0), (1, 0), (0, 2), (1, 4))


@pytest.mark.parametrize("nu", [0.1, 0.01])
def test_non_finite_carried_moments_abort_the_step(nu):
    # inf, -inf, nan or an overflowing 1e308 in one harmonic moment of the
    # carried first-stage advection makes omega_B's new blocks E h / nu, or
    # their rate, not finite; the step's one scan, of the new omega_0,
    # sees it through the forcing.  In the sine pad E is 0, which leaves
    # 1e308 harmless; a non-finite pad moment still aborts
    cfg = small_cfg(nu=nu)
    ctx = prepare(cfg)
    state = initial_state(cfg, ctx)
    projected, moments, umax = state.advected
    for slot in INJECTED_SLOTS:
        for value in (math.inf, -math.inf, math.nan, 1e308):
            h = moments.copy()
            h[slot] = value
            injected = dataclasses.replace(state, advected=(projected, h, umax))
            with np.errstate(all="ignore"):
                if slot == (1, 0) and value == 1e308:
                    assert np.isfinite(step(injected, cfg, ctx).w0).all()
                    continue
                with pytest.raises(NonFiniteState, match=r"^step from t=0 produced non-finite coefficients$"):
                    step(injected, cfg, ctx)


def oracle_row(t, omega, omega_b, ctx):
    return DiagnosticsRow(
        t=t,
        energy=norm_at(omega, -1),
        enstrophy=norm_at(omega, 0),
        palinstrophy_norm=norm_at(omega, 1),
        moment_drift=measure_moment_drift(ctx.table.to_blocks(omega.coeffs), ctx),
        correction_norm=norm_at(omega_b, 0),
    )


@pytest.mark.parametrize("K,J", [(5, 7), (16, 16), (0, 9)])
def test_rows_equal_norm_at_oracle(K, J):
    # K=5, J=7: the eigen-sorted order interleaves wavenumbers, so a
    # weight or coefficient taken in block order would not match; (16, 16)
    # is the benchmark's Stokes table.  At K = 0 the two orders coincide,
    # and the flow is axisymmetric, so its advection and omega_B are
    # exactly zero.  Every row field but the unweighted correction_norm
    # must be norm_at's number to the last bit
    cfg = small_cfg(K=K, J=J, t_final=0.05, output_every=7)
    ctx = prepare(cfg)
    slots = ctx.table.from_blocks(np.arange(2 * (K + 1) * J, dtype=float).reshape(2, K + 1, J))
    assert np.any(np.diff(slots) < 0) == (K > 0)
    n_steps = round(cfg.t_final / cfg.dt)
    state, want, states = initial_state(cfg, ctx), [], []
    for i in range(n_steps + 1):
        if i:
            state = step(state, cfg, ctx)
        if i % cfg.output_every == 0 or i == n_steps:
            omega = total_field(state, ctx.table)
            omega_b = SpectralField(ctx.table, ctx.table.from_blocks(state.wb), "vorticity")
            assert (norm_at(omega_b, 0) > 0.0) == (K > 0)
            want.append(oracle_row(i * cfg.dt, omega, omega_b, ctx))
            states.append(omega.coeffs)
    traj = run(cfg, ctx)
    assert len(want) == 5
    for row, ref in zip(traj.diagnostics, want, strict=True):
        # correction_norm is one dot of omega_B's flat blocks, norm_at one
        # vecdot of the same squares in eigen order: at most 2.5 eps apart
        # over 600 random tables up to K = J = 32
        assert row.correction_norm == pytest.approx(ref.correction_norm, rel=1e-15, abs=0.0)
        assert dataclasses.replace(row, correction_norm=ref.correction_norm) == ref
    assert all(np.array_equal(a.coeffs, b) for a, b in zip(traj.states, states, strict=True))

    traj = stokes_run(cfg, ctx=ctx)
    zero = SpectralField.zeros(ctx.table)
    want = [oracle_row(t, omega, zero, ctx) for t, omega in zip(traj.times, traj.states)]
    assert len(want) == 5 and list(traj.diagnostics) == want


@pytest.mark.parametrize("runner", [run, stokes_run])
@pytest.mark.parametrize(
    "kw",
    [
        dict(dt=2e-3, t_final=0.2, output_every=7),
        # check 9's finest run, where summing dt ended at 0.9999999999999897
        dict(dt=2.5e-3, t_final=1.0, output_every=1),
        dict(dt=0.1, t_final=0.3, output_every=1),
    ],
    ids=["cadence-7", "check9-finest", "dt-0.1"],
)
def test_row_times_are_step_counts_times_dt(runner, kw):
    cfg = small_cfg(**kw)
    tr = runner(cfg, ctx=prepare(cfg))
    n_steps = round(cfg.t_final / cfg.dt)
    rows = sorted({*range(0, n_steps + 1, cfg.output_every), n_steps})
    want = np.arange(n_steps + 1)[rows] * cfg.dt
    np.testing.assert_array_equal(tr.times, want)
    np.testing.assert_array_equal([r.t for r in tr.diagnostics], want)


@pytest.mark.parametrize(
    "shift, path",
    [(0, "integrate"), (-1, "integrate"), (0, "cli"), (-1, "cli")],
    ids=["stuck", "steps-minus-1", "stuck-cli", "steps-minus-1-cli"],
)
def test_integrate_is_bounded_by_its_step_count(tmp_path, monkeypatch, shift, path):
    # an advance whose step count does not rise makes the stream refuse
    # the first due row at or before the last one: after one stuck step,
    # or 10 steps below the start at output_every = 10.  The counter stops
    # a loop that trusts the count to rise, which would never end.  The
    # CLI's run, under a stuck ``step``, writes the rows before it only
    cfg = small_cfg(t_final=0.05, output_every=10)
    n_steps, calls = round(cfg.t_final / cfg.dt), []

    def advance(state, *_):
        calls.append(state.steps)
        if len(calls) > 2 * n_steps:
            raise RuntimeError(f"{len(calls)} advances for {n_steps} steps")
        return SolverState(state.steps + shift, state.w0, state.wb)

    with pytest.raises(ValueError, match="^times must be strictly increasing$"):
        if path == "integrate":
            ctx = prepare(cfg)
            list(solver._integrate(cfg, ctx, initial_state(cfg, ctx), advance))
        else:
            monkeypatch.setattr(solver, "step", advance)
            ini = tmp_path / "run.ini"
            ini.write_text(
                "[domain]\nK = 4\nJ = 4\n[solver]\nnu = 0.1\ndt = 2e-3\nt_final = 0.05\n"
                "[init]\nkind = random\nseed = 1\n[output]\nevery = 10\n"
            )
            dispatch(["ns", "--config", str(ini), "--outdir", str(tmp_path / "out")])
    assert len(calls) == {0: 1, -1: 10}[shift]
    if path == "cli":
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0"]


def test_integrate_refuses_a_stream_that_stops_short():
    # an advance stuck between two rows, at step 3 of 25 with rows every 10
    # steps, makes 25 calls and no row after the first; the loop used to
    # end there without its last row, and a run returned one row at t = 0
    cfg = small_cfg(t_final=0.05, output_every=10)
    ctx = prepare(cfg)
    rows = solver._integrate(
        cfg, ctx, initial_state(cfg, ctx), lambda state: SolverState(min(state.steps + 1, 3), state.w0, state.wb)
    )
    assert next(rows)[0] == 0.0
    with pytest.raises(ValueError, match="^the step count stopped at 3 of 25$"):
        next(rows)


PAD_RUNNERS = {
    "run": lambda cfg, ctx: run(cfg, ctx),
    "stokes": lambda cfg, ctx: stokes_run(cfg, ctx=ctx),
    "forced-stokes": lambda cfg, ctx: stokes_run(
        cfg, forcing=lambda t: _random_admissible(ctx.table, 5) * math.cos(2.0 * t), ctx=ctx
    ),
}


@pytest.mark.parametrize("nu", [0.1, 0.01])
@pytest.mark.parametrize("runner", PAD_RUNNERS.values(), ids=PAD_RUNNERS.keys())
def test_pad_slot_is_zero_in_every_state(monkeypatch, runner, nu):
    # the context's factors read 1, dt and dt/2 in the k = 0 sine slot, and
    # a row drops that slot: only the zeros they multiply keep it empty
    states, integrate = [], solver._integrate

    def recording(cfg, ctx, state, advance):
        states.append(state)
        return integrate(cfg, ctx, state, lambda s: states.append(advance(s)) or states[-1])

    monkeypatch.setattr(solver, "_integrate", recording)
    cfg = small_cfg(nu=nu, t_final=0.04)
    ctx = prepare(cfg)
    assert (ctx.exp_factor[1, 0] == 1.0).all() and (ctx.phi1_dt[1, 0] == cfg.dt).all()
    runner(cfg, ctx)
    assert len(states) == 21
    for state in states:
        assert not state.w0[1, 0].any(), state.steps
        assert state.wb is None or not state.wb[1, 0].any(), state.steps


# the Navier-Stokes similarity omega -> c omega, nu -> c nu, t -> t / c:
# with c a power of two every factor, product and row maps exactly
SCALING_MODES = unit_enstrophy_modes(4, 4, 9)


@pytest.mark.parametrize("runner", [run, stokes_run])
@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scaling_relation(runner, c):
    cfg = RunConfig(nu=0.05, K=4, J=4, dt=2e-3, t_final=0.1, init_modes=SCALING_MODES, output_every=5)
    scaled = dataclasses.replace(
        cfg,
        nu=c * cfg.nu,
        dt=cfg.dt / c,
        t_final=cfg.t_final / c,
        init_modes=tuple((mode, c * coeff) for mode, coeff in SCALING_MODES),
    )
    base, got = runner(cfg), runner(scaled)
    assert np.array_equal(got.states[-1].coeffs, c * base.states[-1].coeffs)
    assert np.array_equal(got.times, base.times / c)
    for row, want in zip(got.diagnostics, base.diagnostics, strict=True):
        assert row.t == want.t / c
        for name in ("energy", "enstrophy", "palinstrophy_norm", "moment_drift", "correction_norm"):
            assert getattr(row, name) == c * getattr(want, name), (name, row.t)


# the reflection theta -> -theta, under which omega changes sign: the
# cos rows of the vorticity flip and the sin rows keep their sign.  The
# rounding floor over 300 random draws of modes and amplitudes: final
# coefficients 1.9e-15 of their max, norms and drift 1.1e-15 relative,
# correction_norm 1.1e-16 of the row's enstrophy (it is itself rounding
# when the advection's harmonic moments cancel: relative to its own value
# it moved by up to 0.19)
REFLECTION_RTOL = 2e-14
SYMMETRY_KEYS = [key for key, _ in unit_enstrophy_modes(4, 4, 0)]


@st.composite
def symmetry_modes(draw):
    """Some modes of the K = J = 4 table, amplitudes 1e-3 to 1 of either sign."""
    keys = draw(st.lists(st.sampled_from(SYMMETRY_KEYS), min_size=1, unique=True))
    return tuple((key, draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))) for key in keys)


@pytest.mark.parametrize("runner", [run, stokes_run])
@settings(max_examples=12, deadline=None)
@given(modes=symmetry_modes())
def test_reflection_relation(runner, modes):
    cfg = RunConfig(nu=0.05, K=4, J=4, dt=2e-3, t_final=0.1, init_modes=modes, output_every=5)
    mirrored = dataclasses.replace(cfg, init_modes=tuple(((k, j, p), -c if p == "cos" else c) for (k, j, p), c in modes))
    base, got = runner(cfg), runner(mirrored)
    table = base.states[-1].table
    sign = table.from_blocks(np.array([-1.0, 1.0])[:, None, None] * np.ones((2, table.K + 1, table.J)))
    want = sign * base.states[-1].coeffs
    assert np.max(np.abs(got.states[-1].coeffs - want)) <= REFLECTION_RTOL * np.max(np.abs(want))
    np.testing.assert_array_equal(got.times, base.times)
    for row, ref in zip(got.diagnostics, base.diagnostics, strict=True):
        for name in ("energy", "enstrophy", "palinstrophy_norm", "moment_drift"):
            assert abs(getattr(row, name) - getattr(ref, name)) <= REFLECTION_RTOL * getattr(ref, name), (name, row.t)
        assert abs(row.correction_norm - ref.correction_norm) <= REFLECTION_RTOL * ref.enstrophy, row.t


# the rotation theta -> theta + phi by a grid angle phi = 2 pi m / n_theta
# turns each k's cos/sin pair by k phi.  The rounding floor over 300
# random draws of modes, amplitudes and m: final coefficients 2.5e-15 of
# their max, norms 1.7e-15 relative, moment_drift 1.1e-15 and
# correction_norm 9.7e-17 of the row's enstrophy.  The drift is the
# largest cos or sin part of the moments, which a rotation mixes, so it
# is held to rounding of the enstrophy, not to itself.
ROTATION_RTOL = 2e-14


def turned(blocks: np.ndarray, angle: float) -> np.ndarray:
    """Blocks (2, K+1, J) of the field rotated by ``angle``: each k's
    cos/sin pair turned by k angle."""
    ka = angle * np.arange(blocks.shape[1])[:, None]
    c, s = np.cos(ka), np.sin(ka)
    return np.stack([c * blocks[0] - s * blocks[1], s * blocks[0] + c * blocks[1]])


def assert_rotation_commutes(runner, modes, m):
    """Rotating the init by the grid angle 2 pi m / n_theta rotates the
    final state by it and keeps every row's norms, drift and correction."""
    cfg = RunConfig(nu=0.05, K=4, J=4, dt=2e-3, t_final=0.1, init_modes=modes, output_every=5)
    ctx = prepare(cfg)
    table, angle = ctx.table, 2.0 * np.pi * m / ctx.grid.n_angular
    init = turned(solver_initial_field(cfg, table), angle)
    rotated = tuple(((k, j, p), float(init[("cos", "sin").index(p), k, j - 1])) for k, j, p in SYMMETRY_KEYS)
    # each run prepares its own context, so a defect planted in solver.prepare reaches both
    base, got = runner(cfg), runner(dataclasses.replace(cfg, init_modes=rotated))
    want = table.from_blocks(turned(table.to_blocks(base.states[-1].coeffs), angle))
    assert np.max(np.abs(got.states[-1].coeffs - want)) <= ROTATION_RTOL * np.max(np.abs(want))
    np.testing.assert_array_equal(got.times, base.times)
    for row, ref in zip(got.diagnostics, base.diagnostics, strict=True):
        for name in ("energy", "enstrophy", "palinstrophy_norm"):
            assert abs(getattr(row, name) - getattr(ref, name)) <= ROTATION_RTOL * getattr(ref, name), (name, row.t)
        for name in ("moment_drift", "correction_norm"):
            assert abs(getattr(row, name) - getattr(ref, name)) <= ROTATION_RTOL * ref.enstrophy, (name, row.t)


@pytest.mark.parametrize("runner", [run, stokes_run])
@settings(max_examples=12, deadline=None)
@given(modes=symmetry_modes(), m=st.integers(1, 64))
def test_rotation_relation(runner, modes, m):
    assert_rotation_commutes(runner, modes, m)


# the energy inequality: a viscous flow inside no-slip walls cannot gain
# energy, so no step's energy row may rise by more than rounding.  Over
# seeds 0-199 per nu, of E(0): at nu = 1e-1 and 1e-4 every step falls,
# by at least 1.4e-3 and 1.6e-6; at nu = 1e-8 177 runs rise, by up to
# 2.3e-7, and at nu = 1e-12 all 200 do, by up to 44.
ENERGY_ROUNDING = 1e-14  # of E(0)
TWO_TRACK_STATE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: omega_0 = omega - omega_B cancels an omega_B of size 1/nu in every step",
)


@pytest.mark.parametrize(
    "nu", [1e-1, 1e-4, pytest.param(1e-8, marks=TWO_TRACK_STATE), pytest.param(1e-12, marks=TWO_TRACK_STATE)]
)
# a seed has nothing to shrink to: a failing one is reported as drawn.
# Seed 0, the first one drawn, is an explicit example, so the strict
# xfails fail on it before any draw and Hypothesis writes no patch
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_energy_inequality(nu, seed):
    # unit-enstrophy init at dt = 1e-3: CFL numbers up to 0.005 (0.17 as
    # the nu = 1e-12 runs blow up), and the run's guard refuses any step
    # above cfg.cfl = 0.5
    traj = run(RunConfig(nu=nu, K=4, J=4, dt=1e-3, t_final=0.05, init_seed=seed, output_every=1))
    energy = np.array([row.energy for row in traj.diagnostics])
    assert np.max(np.diff(energy)) <= ENERGY_ROUNDING * energy[0]


def test_run_deterministic():
    a = run(small_cfg())
    b = run(small_cfg())
    np.testing.assert_array_equal(a.states[-1].coeffs, b.states[-1].coeffs)
    assert [r.enstrophy for r in a.diagnostics] == [r.enstrophy for r in b.diagnostics]


def test_diagnostics_columns_finite():
    tr = run(small_cfg())
    for r in tr.diagnostics:
        for v in (r.t, r.energy, r.enstrophy, r.palinstrophy_norm, r.moment_drift, r.correction_norm):
            assert np.isfinite(v)
    assert tr.diagnostics[0].t == 0.0
    assert tr.diagnostics[-1].t == pytest.approx(0.2)


def test_decay_rates_short_run():
    # informational variant of the reference-run criterion at small size:
    # late-window energy rate approaches nu*lambda_F from above
    cfg = RunConfig(nu=0.1, K=4, J=4, dt=2e-3, t_final=4.0, init_seed=5, output_every=25)
    tr = run(cfg)
    nu_lam = 0.1 * prepare(cfg).table.lambda_min
    energy = [(r.t, r.energy) for r in tr.diagnostics]
    fit = fit_decay_rate(energy)
    assert fit.rate >= 0.95 * nu_lam
    pal = [(r.t, r.palinstrophy_norm) for r in tr.diagnostics]
    fit_p = fit_decay_rate(pal)
    assert fit_p.rate >= 0.95 * 0.5 * nu_lam


def test_truncation_refinement():
    init = (((0, 1, "cos"), 1.0), ((1, 1, "cos"), 0.5), ((2, 1, "sin"), 0.3))
    rows = []
    for KJ in (4, 8):
        cfg = RunConfig(nu=0.1, K=KJ, J=KJ, dt=2e-3, t_final=1.0,
                        init_modes=init, init_seed=None, output_every=500)
        rows.append(run(cfg).diagnostics[-1])
    a, b = rows
    assert a.energy == pytest.approx(b.energy, rel=0.01)
    assert a.enstrophy == pytest.approx(b.enstrophy, rel=0.01)
    assert a.palinstrophy_norm == pytest.approx(b.palinstrophy_norm, rel=0.01)


# ---------------------------------------------------------------------------
# stokes runs


def test_stokes_matches_propagate():
    cfg = small_cfg(t_final=0.3, init_seed=9)
    ctx = prepare(cfg)
    tr = stokes_run(cfg)
    want = propagate(tr.states[0], cfg.nu, 0.3)
    np.testing.assert_allclose(tr.states[-1].coeffs, want.coeffs, rtol=1e-12)


def test_stokes_constant_forcing_steady_state():
    cfg = RunConfig(nu=0.2, K=4, J=4, dt=5e-3, t_final=8.0,
                    init_modes=(((0, 1, "cos"), 0.0),), output_every=200)
    ctx = prepare(cfg)
    force = 2.0 * SpectralField.from_mode(ctx.table, ModeIndex(1, 1, "cos"))
    tr = stokes_run(cfg, forcing=lambda t: force, ctx=ctx)
    n = ctx.table.position(ModeIndex(1, 1, "cos"))
    target = 2.0 / (cfg.nu * ctx.table.lam[n])
    assert tr.states[-1].coeffs[n] == pytest.approx(target, rel=1e-8)


def test_stokes_v1_decay_bound():
    cfg = small_cfg(t_final=0.5, init_seed=13, output_every=25)
    ctx = prepare(cfg)
    tr = stokes_run(cfg)
    w0 = norm_at(tr.states[0], 1)
    for t, s in zip(tr.times, tr.states):
        assert norm_at(s, 1) <= np.exp(-cfg.nu * ctx.table.lambda_min * t) * w0 * (1 + 1e-10)


@pytest.mark.parametrize("nu", [0.1, 0.01])
def test_forced_stokes_run_calls_forcing_once_per_time_point(nu):
    # a step's end blocks are the next step's start: n + 1 calls over n steps
    cfg = small_cfg(nu=nu, t_final=0.04, output_every=3)
    ctx = prepare(cfg)
    g = _random_admissible(ctx.table, 5)
    times = []

    def forcing(t):
        times.append(t)
        return g * math.cos(2.0 * t)

    stokes_run(cfg, forcing=forcing, ctx=ctx)
    assert times == [i * cfg.dt for i in range(round(cfg.t_final / cfg.dt) + 1)]


@pytest.mark.parametrize("defect", ["foreign-table", "stream-kind"], ids=lambda defect: f"callable-{defect}")
def test_stokes_run_rejects_incompatible_forcing(defect):
    cfg = small_cfg(t_final=0.01)
    ctx = prepare(cfg)
    if defect == "foreign-table":
        bad = SpectralField.zeros(prepare(cfg).table)
    else:
        bad = SpectralField(ctx.table, np.zeros(len(ctx.table)), "stream")
    with pytest.raises(ValueError, match="different tables|cannot combine kind"):
        stokes_run(cfg, forcing=lambda t: bad, ctx=ctx)


def test_stokes_run_rejects_a_forcing_that_is_not_a_field():
    cfg = small_cfg(t_final=0.01)
    ctx = prepare(cfg)
    with pytest.raises(TypeError, match="^expected SpectralField, got ndarray$"):
        stokes_run(cfg, forcing=lambda t: np.zeros(len(ctx.table)), ctx=ctx)


@pytest.mark.parametrize("runner", [run, stokes_run])
@pytest.mark.parametrize(
    "change",
    [
        dict(nu=0.2),
        dict(dt=1e-3),
        dict(nu=-0.1, dt=-2e-3),
        dict(K=8, J=8),
        dict(K=5),
        dict(J=5),
        dict(n_radial=24),
        dict(n_angular=16),
    ],
)
def test_run_rejects_context_of_other_nu_or_dt(runner, change):
    # the context holds exp and phi factors for one nu and dt, and the
    # table and grid of one K, J and grid count; on another table or grid
    # a run would draw its random init there and run silently
    ctx = prepare(small_cfg())
    with pytest.raises(ValueError, match="context prepared for"):
        runner(small_cfg(**change), ctx=ctx)


STOKES_GATE_CONFIGS = [
    dict(nu=0.1, K=16, J=16, dt=1e-3, t_final=0.2, init_seed=3),
    # check 9's three runs
    dict(nu=0.1, K=4, J=4, dt=1e-2, t_final=1.0, init_seed=9),
    dict(nu=0.1, K=4, J=4, dt=5e-3, t_final=1.0, init_seed=9),
    dict(nu=0.1, K=4, J=4, dt=2.5e-3, t_final=1.0, init_seed=9),
]


@pytest.mark.parametrize("forcing_kind", ["zero", "constant", "cos2t"])
@pytest.mark.parametrize("kw", STOKES_GATE_CONFIGS, ids=lambda kw: f"K{kw['K']}-dt{kw['dt']}")
def test_stokes_run_matches_duhamel_reference(kw, forcing_kind):
    # every row against the eigen-ordered ETD2RK step taking the forcing
    # at i dt and (i+1) dt
    cfg = RunConfig(output_every=1, **kw)
    ctx = prepare(cfg)
    g = _random_admissible(ctx.table, 5)
    zero = SpectralField.zeros(ctx.table)
    wave = lambda t: g * math.cos(2.0 * t)
    forcing, forcing_eval = {
        "zero": (None, lambda t: zero),
        "constant": (lambda t: g, lambda t: g),
        "cos2t": (wave, wave),
    }[forcing_kind]
    tr = stokes_run(cfg, forcing=forcing, ctx=ctx)
    n_steps = round(cfg.t_final / cfg.dt)
    assert len(tr) == n_steps + 1
    u = SpectralField(ctx.table, ctx.table.from_blocks(solver_initial_field(cfg, ctx.table)), "vorticity")
    np.testing.assert_array_equal(tr.states[0].coeffs, u.coeffs)
    for i in range(1, n_steps + 1):
        u = duhamel_reference(u, forcing_eval, cfg.nu, i - 1, cfg.dt)
        np.testing.assert_array_equal(tr.states[i].coeffs, u.coeffs)
