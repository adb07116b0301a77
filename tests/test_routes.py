"""Fast routes, each against its reference route.

Each test runs one fast route over cases of the registry in ``_cases.py``
and compares it with its reference: ``exact`` (bit for bit) or ``within``
an absolute or relative tolerance.  A new fast path adds a test here over
registry cases, not a class with its own case list.  One spy, at the end,
checks over the same registry that no build, cycle or feature score forms
an n x n array.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest

from szilard import (
    DensityMatrix,
    HardAssertionError,
    Operator,
    OscillatorWeight,
    PureState,
    build_transition_model,
    commutator_norm,
    compose_feedback_unitary,
    evaluate_features,
    free_energy,
    operator_norm,
    run_cycle,
    scenario_library,
    von_neumann_entropy,
    work_threshold,
)
from szilard.feedback import _register_form
from szilard.qop import EPS_ALG, _FactorState
import szilard.engine as engine_mod
import szilard.feedback as feedback_mod
import szilard.qop as qop_mod
import _cases
import _dense
from _oracles import harvest_works, superposed_post_work
from conftest import clear_memos
import test_feedback
from test_feedback import _dense_form, _dense_scheme, _energy_report

# ---------------------------------------------------------------------------
# comparisons


def _walk(got, want, leaf, where: str) -> None:
    """Apply ``leaf`` to every pair of leaves of two like structures: states
    and operators by their entries, dataclasses field by field."""
    if isinstance(want, (DensityMatrix, Operator)):
        leaf(got.entries, want.entries, where)
    elif isinstance(want, PureState):
        leaf(got.amplitudes, want.amplitudes, where)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            _walk(getattr(got, f.name), getattr(want, f.name), leaf, f"{where}.{f.name}")
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _walk(g, w, leaf, f"{where}[{i}]")
    else:
        leaf(got, want, where)


def _equal(g, w, where: str) -> None:
    assert np.array_equal(g, w) if isinstance(w, np.ndarray) else g == w, where


def exact(got, want, where: str = "value") -> None:
    """Bit for bit, leaf by leaf."""
    _walk(got, want, _equal, where)


def within(got, want, *, abs=None, rel=None, where: str = "value") -> None:
    """Numbers within ``pytest.approx(abs=abs, rel=rel)``, and with ``rel``
    0.0 exactly where the reference is 0.0; arrays entrywise within ``abs``;
    everything else exactly."""
    def leaf(g, w, where):
        if isinstance(w, np.ndarray):
            assert np.abs(g - w).max() <= abs, where
        elif isinstance(w, (float, complex)):
            assert g == pytest.approx(w, abs=abs, rel=rel), (where, g, w)
            assert rel is None or w != 0.0 or g == 0.0, (where, g)
        else:
            _equal(g, w, where)
    _walk(got, want, leaf, where)


# ---------------------------------------------------------------------------
# cases and shared steps

LIBRARY_AND_SCAN = (*_cases.LIBRARY, *_cases.SCAN)
SHIPPED = (*_cases.GOLDEN_DOCS, *_cases.SCAN)
NOT_ROTATED = tuple(c for c in SHIPPED if c != _cases.ROTATED)

# the default shape rule of the joint check's marginals, every factor-held
# marginal on the QR core, and none
RATIOS = (engine_mod._CORE_RATIO, 0, 10**9)


def _weight_states(config, result) -> list[DensityMatrix]:
    """The initial weight, each branch's and their average."""
    return [config.weight.initial, *(b.post_weight for b in result.branches),
            result.rho_w_after]


def _consistency(config, route, ratio=RATIOS[0], **marginals):
    """``(gap, deviation)`` of ``route`` on one cycle run at ``ratio``, with
    any mixture-built marginal overridden, and the cycle's report of them."""
    with mock.patch.object(engine_mod, "_CORE_RATIO", ratio):
        result = run_cycle(config)
        sigma_sd, gem, _ = engine_mod._measure(config)
        after = [marginals.get(name, getattr(result, name)) for name in
                 ("rho_s_after", "rho_w_after", "rho_d_after", "rho_r_after")]
        checked = route(config, sigma_sd, gem, config.weight.initial, *after)
    return (result.objectification_order_gap, result.marginal_deviation), checked


def _check_stroke(u, law) -> None:
    """A stroke held as planes is unitary as its entries are, and its
    conservation residual is within 1e-12 relative of the dense one, 0.0
    exactly where that is, and not below the dense spectral norm by more
    than the rounding of the SVD that computes that norm."""
    assert u._planes is not None
    unitary, residual = u.is_unitary, qop_mod._conservation_residual(u, law)
    assert unitary == qop_mod._is_unitary(u.entries)
    dense = qop_mod._diagonal_commutator_norm(u.entries, law)
    within(residual, dense, rel=1e-12)
    if dense != 0.0:
        spectral = float(np.linalg.norm(u.entries * (law[None, :] - law[:, None]), 2))
        assert residual >= spectral - 4 * np.spacing(spectral), (residual, spectral)


def _order_gap_bound(config) -> float:
    """The register's ``2 k^3 (1 + EPS_ALG) pi^2 o``."""
    *_, o, pi = config.records._register
    return 2 * len(config.records.outcomes) ** 3 * (1.0 + EPS_ALG) * pi**2 * o


# ---------------------------------------------------------------------------
# routes and their references


@pytest.mark.parametrize("case, tol", [
    *(pytest.param(case, 1e-12, id=case)
      for case in (*LIBRARY_AND_SCAN, _cases.WINDOW)),
    pytest.param(_cases.ROTATED, 1e-15, id=_cases.ROTATED),
])
def test_joint_check_is_reported_and_matches_the_dense_oracle(case, tol):
    """At every core side the cycle reports the factored check, which is
    within ``tol`` of the dense oracle, a route no side reaches."""
    for config in _cases.configs(case):
        dense = _consistency(config, _dense.joint_consistency)[1]
        for ratio in RATIOS:
            reported, checked = _consistency(config, engine_mod._joint_consistency, ratio)
            exact(reported, checked, f"{config.label} at {ratio}")
            within(checked, dense, abs=tol, where=f"{config.label} at {ratio}")


@pytest.mark.parametrize("case", LIBRARY_AND_SCAN)
def test_factored_branch_map_matches_the_dense_map(case):
    for config in _cases.configs(case):
        result = run_cycle(config)
        assert result.branches
        rho_w, h_w = config.weight.initial.entries, config.weight.hamiltonian.entries
        kt = config.thermo.kt
        for br in result.branches:
            w, s, r = _dense.conditional_feedback_map(
                config.feedback, br.outcome, config.weight.initial, br.pre_system,
                config.tau_r,
            )
            reservoir = br.post_reservoir
            within(
                (br.post_weight.entries, br.post_system.entries,
                 None if reservoir is None else reservoir.entries, br.work,
                 br.weight_entropy_change),
                (w, s, r,
                 _dense.free_energy(w, h_w, kt) - _dense.free_energy(rho_w, h_w, kt),
                 _dense.entropy(w) - _dense.entropy(rho_w)),
                abs=1e-12, where=f"{config.label} {br.outcome}",
            )


@pytest.mark.parametrize("case", (*LIBRARY_AND_SCAN, _cases.WINDOW))
def test_factor_held_weight_states_match_their_entries(case):
    """At both core sides, works, free energies and entropies of the weight
    states are within 1e-12 of the dense ones of their entries; a held
    state's entries, asked for, are ``X X^dag`` bit for bit and pass the
    public constructor."""
    for config in _cases.configs(case):
        h_w, ctx = config.weight.hamiltonian, config.thermo
        f0 = _dense.free_energy(config.weight.initial.entries, h_w.entries, ctx.kt)
        for ratio in RATIOS[1:]:
            with mock.patch.object(engine_mod, "_CORE_RATIO", ratio):
                result = run_cycle(config)
            for br in result.branches:
                f = _dense.free_energy(br.post_weight.entries, h_w.entries, ctx.kt)
                within(br.work, f - f0, abs=1e-12, where=config.label)
            for rho in _weight_states(config, result):
                m = rho.entries
                if isinstance(rho, _FactorState):
                    x = rho._carried_factor[0]
                    exact(m, x @ x.conj().T, config.label)
                    DensityMatrix(m)
                within((free_energy(rho, h_w, ctx), von_neumann_entropy(rho)),
                       (_dense.free_energy(m, h_w.entries, ctx.kt), _dense.entropy(m)),
                       abs=1e-12, where=config.label)


@pytest.mark.parametrize(
    "case", (_cases.WINDOW, "reservoir_circumvention dim_R=4", *_cases.SCAN)
)
def test_default_rule_takes_the_marginal_core_on_the_window_only(case):
    core = engine_mod._outer_difference_norm
    for config in _cases.configs(case):
        with mock.patch.object(engine_mod, "_outer_difference_norm", wraps=core) as spy:
            run_cycle(config)
        rows = [c.args[0].shape[0] for c in spy.call_args_list]
        taken = config.weight.hamiltonian.dim in rows
        assert taken == (config.label == "example_II"), config.label


def _recorder(real, states: list):
    def build(m):
        state = real(m)
        states.append(state)
        return state
    return staticmethod(build)


@pytest.mark.parametrize("case", LIBRARY_AND_SCAN)
def test_private_states_pass_the_public_constructor(case):
    """The states the cycle and the score build privately come with no
    public construction, and the public constructor's spectra of their
    entries agree: bit for bit from the dense path, from a factor's singular
    values below 1e-12."""
    for config in _cases.configs(case):
        derived, from_factor = [], []
        with contextlib.ExitStack() as stack:
            for name, states in (("_derived", derived), ("_from_factor", from_factor)):
                real = getattr(DensityMatrix, name)
                stack.enter_context(
                    mock.patch.object(DensityMatrix, name, _recorder(real, states))
                )
            init = stack.enter_context(mock.patch.object(
                DensityMatrix, "__init__", autospec=True, side_effect=DensityMatrix.__init__
            ))
            evaluate_features(run_cycle(config), config)
        assert derived and from_factor and init.call_count == 0, config.label
        for s in derived:
            exact(s._spectrum, DensityMatrix(s.entries)._spectrum, config.label)
        for s in from_factor:
            spectrum = DensityMatrix(s.entries)._spectrum
            assert np.abs(s._spectrum - spectrum).max() < 1e-12, config.label


@pytest.mark.parametrize("case", (*_cases.MANY_DRAWS, *_cases.MEMO_HITS))
def test_memoised_model_matches_a_fresh_build(case):
    """The engine's model, however obtained, against one built from the
    same table by ``build_transition_model``."""
    for config in _cases.configs(case):
        m = config.measurement
        fresh = build_transition_model(
            m.target, m.pointer, m.demon_initial, m.transitions, (config.h_s, config.h_d)
        )
        assert fresh is not m
        twin = dataclasses.replace(config, measurement=fresh)
        exact((m.premeasurement, config.certification, run_cycle(config)),
              (fresh.premeasurement, twin.certification, run_cycle(twin)), config.label)


def _features_or_refusal(result, config):
    """The feature report, or on example_I the message of the exclusion
    assertion: at q = 1 it starts excited, and its one branch reports all
    three features, which that assertion refuses."""
    try:
        return evaluate_features(result, config)
    except HardAssertionError as exc:
        if config.label != "example_I":
            raise
        return str(exc)


@pytest.mark.parametrize("name", _cases.SCENARIOS)
def test_memo_hit_matches_a_build_from_cleared_memos(name, cleared_memos):
    """At each q, an engine built on a memoised structure against one built
    from cleared memos."""
    scenario, params = _cases.LIBRARY_PARAMS[name]
    takes_q = "q" in inspect.signature(engine_mod._SCENARIOS[scenario]).parameters

    def facts(config):
        result = run_cycle(config)
        return config.rho_s, config.certification, result, _features_or_refusal(result, config)

    for extra in [{"q": q} for q in (0.0, 0.2, 0.5, 0.73, 1.0)] if takes_q else [{}]:
        clear_memos()
        template = scenario_library(scenario, **params)
        hit = scenario_library(scenario, **params, **extra)
        assert hit is not template and hit.certification is template.certification
        got = facts(hit)
        clear_memos()
        fresh = scenario_library(scenario, **params, **extra)
        assert fresh.certification is not hit.certification
        assert fresh.weight is not hit.weight
        exact(got, facts(fresh), f"{name} {extra}")


def test_window_branch_works_match_the_closed_form():
    for config in _cases.configs("example_II N=1000 q=0.3 hit"):
        works = [b.work for b in run_cycle(config).branches]
        assert works
        want = superposed_post_work(config.weight.levels, 1.0, 1.0)
        within(works, [want] * len(works), abs=1e-9)


def test_harvest_branch_works_match_the_closed_form():
    for config in _cases.configs("entropy_harvest x5"):
        rw = np.diag(config.weight.initial.entries).real
        hw = np.diag(config.weight.hamiltonian.entries).real
        p = float(rw[np.nonzero(rw > 1e-12)[0][0]])
        works = {b.outcome: b.work for b in run_cycle(config).branches}
        want = harvest_works(p, float(hw[1] - hw[0]), config.thermo.temperature)
        within([works["+"], works["-"]], list(want), abs=1e-9)


@pytest.mark.parametrize("case", NOT_ROTATED)
def test_register_route_matches_the_check_of_a_composed_v(case):
    """The register route's report is the composed-V check's, bit for bit,
    and it is the build's certificate."""
    for config in _cases.configs(case):
        register = _register_form(config.feedback, config.records)
        exact(register, _dense_form(config.feedback, config.records), config.label)
        exact(config.certification.feedback_form, register, config.label)


@pytest.mark.parametrize("case", SHIPPED)
def test_plane_certificates_match_the_dense_route(case):
    """Every stroke, and the energy report of the scheme, against a plain
    copy of the strokes' entries; the build keeps the planes' report."""
    for config in _cases.configs(case):
        hs = (config.weight.hamiltonian, config.h_s)
        law = qop_mod._additive_hamiltonian(
            *(hs if config.h_r is None else hs + (config.h_r,))
        )
        assert law.ndim == 1
        for _, u in config.feedback.branch_unitaries:
            _check_stroke(u, law)
        got = _energy_report(config.feedback, config)
        want = _energy_report(_dense_scheme(config.feedback), config)
        assert got.passed is want.passed, config.label
        exact(got.pointer_group_commutators, want.pointer_group_commutators, config.label)
        (labels, norms), (want_labels, want_norms) = (
            zip(*r.branch_commutators) for r in (got, want)
        )
        exact(labels, want_labels, config.label)
        within(norms, want_norms, rel=1e-12, where=config.label)
        exact(config.certification.feedback_energy, got, config.label)


def test_random_plane_strokes_match_the_element_wise_loop():
    for u, law, loop in _cases.configs("random plane strokes"):
        exact(u.entries, loop)
        _check_stroke(u, law)


def test_library_strokes_built_from_planes_match_the_element_wise_loops():
    for u, loop in _cases.configs("library strokes"):
        exact(u.entries, loop)


@pytest.mark.parametrize("case", SHIPPED)
def test_weights_own_the_facts_the_build_reads(case):
    """Both weight kinds own the facts the build reads, built once and equal
    to their closed forms."""
    for config in _cases.configs(case):
        w = config.weight
        assert isinstance(w.hamiltonian, Operator) and isinstance(w.initial, DensityMatrix)
        assert w.hamiltonian is w.hamiltonian and w.initial is w.initial
        if isinstance(w, OscillatorWeight):
            exact((w.scale, w.hamiltonian.entries, w.initial.entries),
                  (w.omega, np.diag(w.omega * np.arange(w.dim)),
                   w.initial_state.density().entries), config.label)
        else:
            ev = np.linalg.eigvalsh(w.hamiltonian.entries)
            assert w.scale == float(ev.max() - ev.min()), config.label
        dr = 1 if config.h_r is None else config.h_r.dim
        exact((w.initial.dim, config.work_floor, config.feedback.branch_dim),
              (w.hamiltonian.dim, work_threshold(w.scale, config.thermo),
               w.hamiltonian.dim * config.rho_s.dim * dr), config.label)


@pytest.mark.parametrize("case", NOT_ROTATED)
def test_order_gap_is_exactly_zero_on_a_zero_one_register(case):
    for config in _cases.configs(case):
        assert config.records._zero_one_diagonals is not None, config.label
        assert _order_gap_bound(config) == 0.0, config.label
        assert run_cycle(config).objectification_order_gap == 0.0, config.label


def test_order_gap_of_the_rotated_register_is_its_residual_bound():
    for config in _cases.configs(_cases.ROTATED):
        projs = [p.entries for _, _, p in config.records.outcomes]
        assert np.abs(projs[0] @ projs[1]).max() > 0.0 and config.conforming
        assert config.records._zero_one_diagonals is None
        gap = run_cycle(config).objectification_order_gap
        assert gap == _order_gap_bound(config)
        assert 0.0 < gap < 1e-12


def test_composed_v_is_the_kron_sum_and_the_entrywise_sum():
    """V from the register's controls, against the sum of ``U_x (x) P_x``
    and the sum of ``U_x P_x[a, b]`` over the nonzero ``P_x[a, b]``, each
    added in scheme order, bit for bit; a stroke held as planes forms no
    entries."""
    for i, (scheme, records) in enumerate(_cases.configs("composed schemes")):
        v = compose_feedback_unitary(scheme, records).entries
        assert not v.flags.writeable
        units = scheme.branch_unitaries
        assert not any("entries" in vars(u) for _, u in units if u._planes is not None)
        kron, entrywise = np.zeros_like(v), np.zeros_like(v)
        t = entrywise.reshape(scheme.branch_dim, records.dim, scheme.branch_dim, records.dim)
        for label, u in units:
            p = records.projector_for(label).entries
            kron += np.kron(u.entries, p)
            for a, b in zip(*np.nonzero(p)):
                t[:, a, :, b] += u.entries * p[a, b]
        exact(v, kron, f"scheme {i}")
        exact(v, entrywise, f"scheme {i}")


@pytest.mark.parametrize("case", _cases.COMMUTATORS)
def test_commutator_norm_matches_the_dense_commutator(case):
    """Within 1e-12 relative of ``operator_norm(A @ B - B @ A)``, and 0.0
    exactly when both are diagonal."""
    for a, b in _cases.configs(case):
        got = commutator_norm(a, b)
        within(got, operator_norm(a @ b - b @ a), rel=1e-12, where=f"n={a.shape[0]}")
        assert case != "diagonal A and B" or got == 0.0


@pytest.mark.parametrize("case", (*_cases.SCAN, *_cases.MANY_DRAWS))
def test_energy_certificate_commutators_match_the_kron_route(case):
    """Each branch commutator of the build's energy certificate, taken
    against the diagonal law, within 1e-12 relative of the commutator
    against the ``np.kron``-formed additive Hamiltonian, and 0.0 exactly
    where that is."""
    for i, config in enumerate(_cases.configs(case)):
        got = [c for _, c in config.certification.feedback_energy.branch_commutators]
        want = test_feedback.TestEnergyCheck._kron_commutators(
            config.feedback, config.weight.hamiltonian, config.h_s, config.h_r
        )
        within(got, want, rel=1e-12, where=f"draw {i}")


RESERVOIRS = (
    *(c for c in (*_cases.LIBRARY, *_cases.MEMO_HITS) if c.startswith("reservoir")),
    "reservoir_circumvention",
)


@pytest.mark.parametrize("case", RESERVOIRS)
def test_chain_relative_entropy_matches_the_dense_reference(case):
    """The reservoir chain's ``K_B T S(tau' || tau_R)``, read from the
    Gibbs form of ``tau_R``, within 1e-12 of the term from both states'
    ``eigh``."""
    for config in _cases.configs(case):
        result = run_cycle(config)
        assert len(result.reservoir_chains) == len(result.branches) == 2
        for br, (x, chain) in zip(result.branches, result.reservoir_chains):
            want = config.thermo.kt * _dense.relative_entropy(
                br.post_reservoir.entries, config.tau_r.entries
            )
            within(chain.rel_entropy_term, want, abs=1e-12, where=f"branch {x}")


# ---------------------------------------------------------------------------
# the spy


def test_no_build_cycle_or_score_forms_an_n_squared_array(monkeypatch, cleared_memos):
    """From empty memos, no window at N = 120 or 1000 built again at a
    second q, golden document or scan draw composes V, checks it densely,
    takes a QR of the joint dimension, or forms a stroke's entries or a held
    initial or branch weight's, in its build, cycle or score; every branch
    weight is held, and the windows' weight states stay factors throughout.
    Asked for afterwards, each stroke's entries are the element-wise loop's
    matrix and each window state's are ``X X^dag``, bit for bit."""
    calls = []
    for name in ("compose_feedback_unitary", "check_feedback_form"):
        for module in (feedback_mod, engine_mod):
            monkeypatch.setattr(
                module, name, lambda *a, _n=name, **k: calls.append(_n), raising=False
            )
    qr = mock.Mock(wraps=np.linalg.qr)
    monkeypatch.setattr(np.linalg, "qr", qr)
    windows = [
        lambda n=n: [scenario_library("example_II", N=n, q=q) for q in (0.5, 0.3)]
        for n in (120, 1000)
    ]
    cycles = []
    for build in (*windows, *(_cases.CASES[case] for case in SHIPPED)):
        qr.reset_mock()
        for config in build():
            result = run_cycle(config)
            evaluate_features(result, config)
            joint = config.feedback.branch_dim * config.records.dim
            assert not [c for c in qr.call_args_list if c.args[0].shape[0] == joint]
            cycles.append((config, result))
    windows = cycles[:4]
    assert windows[1][0].weight is windows[0][0].weight  # a memo hit
    assert windows[3][0].weight is windows[2][0].weight
    assert calls == []
    assert {c.records._zero_one_diagonals is None for c, _ in cycles} == {False, True}
    for config, result in cycles:
        strokes = [u for _, u in config.feedback.branch_unitaries]
        assert all(u._planes is not None for u in strokes), config.label
        # entropy_harvest shares one stroke between its outcomes, so every
        # stroke is checked before any entries are read
        assert not any("entries" in vars(u) for u in strokes), config.label
        assert all(isinstance(b.post_weight, _FactorState) for b in result.branches), (
            config.label
        )
        held = [s for s in _weight_states(config, result)[:-1] if isinstance(s, _FactorState)]
        assert not any("entries" in vars(rho) for rho in held), config.label
    for config, result in windows:
        states = _weight_states(config, result)
        assert len(states) == 4 and all(isinstance(rho, _FactorState) for rho in states)
        assert not any("entries" in vars(rho) for rho in states)
    for config, result in cycles:
        for _, u in config.feedback.branch_unitaries:
            want = _dense.plane_stroke(u.dim, *u._planes)
            assert np.array_equal(u.entries.view(float), want.view(float))
    for config, result in windows:
        for rho in _weight_states(config, result):
            x = rho._carried_factor[0]
            assert np.array_equal(rho.entries, x @ x.conj().T)
