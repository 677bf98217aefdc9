"""Acceptance suite: one test per contracted criterion, each printing a
PASS/FAIL line with its measured numbers (run with ``pytest -v -s`` to see
them live).
"""

import itertools
import math
import random

from mops import (
    brute_force_cactus,
    build_parity_instance,
    connected_components,
    enumerate_triangles,
    exact_max_outerplanar,
    gen_diamond_family,
    gen_random,
    gen_random_maximal_outerplanar,
    gen_tight_family,
    graph_new,
    is_outerplanar,
    matroid_parity_max,
    max_triangular_cactus,
    outerplane_embedding,
    pairs_form_forest,
    run_sts,
    validate_sts_structure,
)
from _builders import complete_graph, cycle_graph


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_corpus(count: int, max_n: int, seed_base: int):
    sizes = list(range(4, max_n + 1))
    probs = [0.3, 0.5, 0.8]
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = probs[(i // len(sizes)) % len(probs)]
        yield gen_random(n, p, seed_base + i)


def test_criterion_1_phase1_exactness():
    instances = list(_random_corpus(500, 9, 100_000))
    instances += [complete_graph(4), complete_graph(5)]
    instances += [gen_tight_family(q) for q in (3, 5, 7)]
    mismatches = 0
    for idx, g in enumerate(instances):
        if max_triangular_cactus(g, seed=idx).r != brute_force_cactus(g).r:
            mismatches += 1
    _report(
        "criterion 1 (phase-1 exactness)",
        mismatches == 0,
        f"{len(instances)} instances, {mismatches} mismatches",
    )


def test_criterion_2_ratio_guarantee():
    instances = list(_random_corpus(1002, 8, 200_000))
    instances += [complete_graph(4), complete_graph(5), cycle_graph(4)]
    violations = 0
    exact_count = 0
    for idx, g in enumerate(instances):
        opt = exact_max_outerplanar(g).opt
        exact_count += 1
        sol = run_sts(g, seed=idx)
        if 10 * sol.m < 7 * opt:
            violations += 1
    _report(
        "criterion 2 (7/10 ratio guarantee)",
        exact_count >= 1000 and violations == 0,
        f"{exact_count} instances with exact optimum, {violations} violations",
    )


def test_criterion_3_tight_family_reproduction():
    expected_ratio = {3: 9 / 12, 5: 16 / 22, 7: 23 / 32}
    ratios = []
    ok = True
    notes = []
    for q in (3, 5, 7):
        g = gen_tight_family(q)
        ok &= g.n == 3 * q and g.m == 5 * q - 3 and is_outerplanar(g)
        ok &= max_triangular_cactus(g, seed=q).r == q // 2
        sol = run_sts(g, adversarial=True)
        ok &= sol.m == 3 * q - 1 + q // 2
        ratio = sol.m / g.m
        ok &= abs(ratio - expected_ratio[q]) < 1e-9
        ratios.append(ratio)
        notes.append(f"q={q}: {sol.m}/{g.m}")
    ok &= ratios[0] > ratios[1] > ratios[2] > 0.7
    _report(
        "criterion 3 (tight family reproduction)",
        ok,
        "; ".join(notes) + f"; decreasing toward 0.7: {ratios}",
    )


def test_criterion_4_structural_validity():
    instances = list(_random_corpus(200, 9, 300_000))
    instances += [gen_tight_family(q) for q in (3, 5, 7)]
    instances += [gen_diamond_family(k).graph for k in range(4)]
    instances += [gen_random_maximal_outerplanar(5 + i % 8, 300_500 + i) for i in range(30)]
    bad = 0
    for idx, g in enumerate(instances):
        sol = run_sts(g, seed=idx)
        out = graph_new(g.n, sol.edges)
        k = max(connected_components(g)) + 1
        if not (
            validate_sts_structure(out)
            and is_outerplanar(out)
            and sol.m == (g.n - k) + sol.r + sol.c
        ):
            bad += 1
    _report(
        "criterion 4 (structural validity)",
        bad == 0,
        f"{len(instances)} outputs checked, {bad} invalid",
    )


def test_criterion_5_cactus_vs_inner_triangles():
    failures = 0
    for i in range(200):
        n = 4 + i % 9  # 4..12
        g = gen_random_maximal_outerplanar(n, 400_000 + i)
        t = outerplane_embedding(g).t
        r = brute_force_cactus(g).r
        if r < math.ceil(t / 2) or t > 2 * r:
            failures += 1
    _report(
        "criterion 5 (cactus covers half the inner triangles)",
        failures == 0,
        f"200 maximal outerplanar instances, {failures} failures",
    )


def test_criterion_6_parity_soundness():
    tested = 0
    failures = 0
    i = 0
    while tested < 60 and i < 2000:
        g = gen_random(4 + i % 4, 0.55, 500_000 + i)
        i += 1
        triangles = enumerate_triangles(g)
        if not 1 <= len(triangles) <= 6:
            continue
        inst = build_parity_instance(g, triangles)
        best = 0
        for size in range(len(triangles), 0, -1):
            if any(
                pairs_form_forest(inst, sub)
                for sub in itertools.combinations(range(len(triangles)), size)
            ):
                best = size
                break
        chosen = matroid_parity_max(inst, seed=i)
        if len(chosen) != best or not pairs_form_forest(inst, chosen):
            failures += 1
        tested += 1
    _report(
        "criterion 6 (matroid-parity soundness)",
        tested >= 50 and failures == 0,
        f"{tested} instances with <= 6 pairs, {failures} failures",
    )


def test_criterion_7_diamond_family():
    ok = True
    notes = []
    for k in range(4):
        inst = gen_diamond_family(k)
        ok &= inst.graph.n == 3 * 2**k
        ok &= len(inst.h_edges) == 2 * 3 * 2**k - 3
        if k >= 1:
            ok &= len(inst.d_vertices) == 1 + 3 * 2 ** (k - 1)
        notes.append(
            f"k={k}: n={inst.graph.n}, |H|={len(inst.h_edges)}, |V(D)|={len(inst.d_vertices)}"
        )
    _report("criterion 7 (diamond family generator)", ok, "; ".join(notes))
