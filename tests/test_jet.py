"""The constraint jet against the per-entry expressions it replaced.

Each determinant route once formed its own gradient/Hessian contractions,
one entry at a time, on separate gradient and Hessian arrays.  Those
expressions are kept here as the reference: every table the jet caches,
and every report the routes build from it, must equal them bit for bit.
Each residual is divided by the plain product of norms of its own degree,
never by that product floored at 1.
"""

from itertools import product

import numpy as np
import pytest

from detmin.kahler import TwinHarmonicPair, twin_harmonic_suite
from detmin.levelset import (ConstraintSystem, conjecture_evidence,
                             identity_suite, on_variety_contractions,
                             sample_on_variety)
from detmin.linalg import ConstraintJet, derived_rng, max_abs


def _separate(jet):
    """Values, gradients and Hessians of ``jet`` as separate arrays."""
    return ([float(c) for c in jet.values], [g.copy() for g in jet.grads],
            [h.copy() for h in jet.hessians])


def _per_entry(jet):
    """Gradient Gram, products, sandwiches, Hessian products, norms and
    sandwich scales, one entry at a time."""
    _, g, h = _separate(jet)
    k = len(g)
    gnorm = [np.linalg.norm(v) for v in g]
    hnorm = [np.linalg.norm(m) for m in h]
    grad_gram = np.empty((k, k))
    products = np.empty((k, k, g[0].size))
    hessian_products = np.empty((k, k))
    for a, b in product(range(k), repeat=2):
        grad_gram[a, b] = g[a] @ g[b]
        products[a, b] = g[a] @ h[b]
        hessian_products[a, b] = (h[a] * h[b]).sum()
    sandwiches = np.empty((k, k, k))
    scale = np.empty((k, k, k))
    for a, b, c in product(range(k), repeat=3):
        sandwiches[a, b, c] = g[a] @ h[b] @ g[c]
        scale[a, b, c] = gnorm[a] * hnorm[b] * gnorm[c]
    return {"grad_gram": grad_gram, "grad_norms": np.array(gnorm),
            "hessian_norms": np.array(hnorm),
            "laplacians": np.array([float(np.trace(m)) for m in h]),
            "products": products, "sandwiches": sandwiches,
            "hessian_products": hessian_products, "sandwich_scale": scale}


def _assert_tables_equal(jet):
    for name, want in _per_entry(jet).items():
        got = getattr(jet, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def _levelset_reference(jet, n):
    """The identity, conjecture and on-variety contraction residuals of a
    level-set jet, by the 8-sandwich loop, the trace expressions and the
    32-einsum four-term loop."""
    chi, g, h = _separate(jet)
    gnorm = [np.linalg.norm(v) for v in g]
    hnorm = [np.linalg.norm(m) for m in h]

    def rel(err, al, be, ga):
        return abs(err) / (gnorm[al] * hnorm[be] * gnorm[ga])

    square = np.array([
        rel(g[k] @ h[k] @ g[k] - 0.5 * chi[k] * (h[k] * h[k]).sum(), k, k, k)
        for k in range(2)])
    tr12 = (h[0] * h[1]).sum()
    mixed = np.array([rel(g[1] @ h[0] @ g[1] - 0.5 * tr12 * chi[1], 1, 0, 1),
                      rel(g[0] @ h[1] @ g[0] - 0.5 * tr12 * chi[0], 0, 1, 0)])

    lhs = float(g[1] @ h[0] @ g[0])
    tr11, tr22 = float((h[0] * h[0]).sum()), float((h[1] * h[1]).sum())
    den = gnorm[1] * hnorm[0] * gnorm[0]
    printed = abs(lhs - (0.25 * chi[1] * tr12 + 0.25 * chi[0] * tr22)) / den
    swapped = abs(lhs - (0.25 * chi[1] * tr11 + 0.25 * chi[0] * tr12)) / den

    hess4 = [m.reshape(n + 1, n, n + 1, n) for m in h]
    gmat = [v.reshape(n + 1, n) for v in g]
    contractions = np.empty((2, 2, 2))
    four_term = np.empty((2, 2, 2))
    for al, be, ga in product(range(2), repeat=3):
        contractions[al, be, ga] = rel(g[al] @ h[be] @ g[ga], al, be, ga)
        t1 = np.einsum("likj,li,kj->", hess4[be], gmat[al], gmat[ga])
        t2 = np.einsum("likj,kj,li->", hess4[be], gmat[al], gmat[ga])
        t3 = np.einsum("likj,lj,ki->", hess4[be], gmat[al], gmat[ga])
        t4 = np.einsum("likj,ki,lj->", hess4[be], gmat[al], gmat[ga])
        four_term[al, be, ga] = rel(t1 + t2 - t3 - t4, al, be, ga)
    return square, mixed, (printed, swapped), contractions, four_term


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_levelset_reads_the_per_entry_contractions(n):
    rng = derived_rng(900 + n)
    system = ConstraintSystem(n)
    for _ in range(20):
        off = system.evaluate(rng.normal(size=(n + 1, n)))
        on = sample_on_variety(system, rng)
        for jet in (off, on):
            _assert_tables_equal(jet)
            square, mixed, conj, contractions, four_term = \
                _levelset_reference(jet, n)
            ids = identity_suite(jet)
            assert np.array_equal(ids.square, square)
            assert np.array_equal(ids.mixed, mixed)
            assert not ids.harmonicity.any()
            ev = conjecture_evidence(jet)
            assert (ev.printed_residual, ev.swapped_residual) == conj
            rep = on_variety_contractions(jet)
            assert np.array_equal(rep.contractions, contractions)
            assert np.array_equal(rep.four_term, four_term)


def _twin_reference(jet):
    """The twin suite's residuals by its expectations loop, the table
    indexed [a, b, c] like the sandwiches (0 for u, 1 for v)."""
    (u, v), (gu, gv), (hu, hv) = _separate(jet)
    gn, hn = np.linalg.norm(gu), np.linalg.norm(hu)
    pair_vector = max_abs(gu @ hu - gv @ hv) / (gn * hn)
    pair_cross = max_abs(gu @ hv + gv @ hu) / (gn * hn)
    rho = float(gu @ hu @ gu) / u
    rho_alt = float(gv @ hv @ gv) / v
    g, h = (gu, gv), (hu, hv)
    expectations = [
        ((0, 0, 0), rho * u), ((1, 1, 0), rho * u),
        ((0, 0, 1), rho * v), ((1, 1, 1), rho * v),
        ((0, 1, 0), -rho * v), ((1, 0, 0), rho * v),
        ((1, 0, 1), -rho * u), ((0, 1, 1), rho * u),
    ]
    gnorm = [gn, np.linalg.norm(gv)]
    hnorm = [hn, np.linalg.norm(hv)]
    table = np.empty((2, 2, 2))
    for (a, b, c), want in expectations:
        table[a, b, c] = (abs(float(g[a] @ h[b] @ g[c]) - want)
                          / (gnorm[a] * hnorm[b] * gnorm[c]))
    return (abs(gu @ gu - gv @ gv) / (gu @ gu), abs(gu @ gv) / (gu @ gu),
            pair_vector, pair_cross, table, rho, rho_alt)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twin_suite_reads_the_per_entry_contractions(n):
    rng = derived_rng(910 + n)
    pair = TwinHarmonicPair(n)
    done = 0
    while done < 20:
        point = rng.normal(size=pair.ambient_dim)
        if min(abs(c) for c in pair.values(point)) <= 0.05:
            continue
        jet = pair.evaluate(point)
        _assert_tables_equal(jet)
        gap, orth, vector, cross, table, rho, rho_alt = _twin_reference(jet)
        rep = twin_harmonic_suite(jet)
        assert (rep.grad_norm_gap, rep.grad_orthogonality) == (gap, orth)
        assert (rep.pair_vector, rep.pair_cross) == (vector, cross)
        assert np.array_equal(rep.contraction_table, table)
        assert (rep.rho, rep.rho_alt) == (rho, rho_alt)
        assert not rep.harmonic.any()
        done += 1


def test_a_jet_of_three_constraints():
    # the stacked shapes follow k, not the pair the routes use
    rng = derived_rng(920)
    k, dim = 3, 7
    point, values = rng.normal(size=dim), rng.normal(size=k)
    grads, sym = rng.normal(size=(k, dim)), rng.normal(size=(k, dim, dim))
    jet = ConstraintJet(point, values, grads, sym + sym.transpose(0, 2, 1))
    _assert_tables_equal(jet)
    assert jet.grad_gram.shape == jet.hessian_products.shape == (k, k)
    assert jet.products.shape == (k, k, dim)
    assert jet.sandwiches.shape == jet.sandwich_scale.shape == (k, k, k)
    # symmetric Hessians: (g_a H_b) g_c = (g_c H_b) g_a up to rounding;
    # the Gram and tr(H_a H_b) are symmetric exactly
    assert np.allclose(jet.sandwiches, jet.sandwiches.transpose(2, 1, 0))
    assert np.array_equal(jet.grad_gram, jet.grad_gram.T)
    assert np.array_equal(jet.hessian_products, jet.hessian_products.T)
