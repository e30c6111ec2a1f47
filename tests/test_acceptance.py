"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 1 is implemented exactly as stated and is expected to fail: with
epsilon=1.0 the calibrated radii cannot exceed epsilon/2 (the evolved-ball
diameter at t=0 is already 2*delta), and balls that small centered on a
12^3 grid of the given box cover a fraction of a percent of the attractor,
so complete length-20 encodings of random points effectively do not exist.
The test hunts for them with a generous budget and reports the measured
completeness. The shadowing machinery itself is validated on the
LinearDiagonal pipeline and on the orbit-seeded Lorenz cover of run 4.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_RESULTS,
    brute_force_cells,
    brute_force_words,
    dense,
    from_counts,
    layout_oracle,
    make_markov_tensors,
    output_digests,
    traced_peak,
)
from segdyn import (
    Cover,
    IntegratorConfig,
    LinearDiagonal,
    Lorenz,
    Partition,
    QuantitySpec,
    advance,
    advance_many,
    ball_successors,
    build_segments,
    calibrate_deltas,
    collocate,
    encode_many,
    enumerate_admissible,
    expanding_to_depth,
    jacobian_norms,
    ks_entropy,
    max_difference,
    metric_entropy,
    minimal_cover,
    reachable_bounds,
    row_sensitivity,
    sample_itineraries,
    segment_envelope,
)
from segdyn._rng import derive_rng
from segdyn.artifacts import load_manifest, read_json
from segdyn.cli import main as cli_main
from segdyn.config import load_config
from segdyn.cover import BoxDomain, cover_from_json
from segdyn.flow import sample_path
from segdyn.segments import load_library
from segdyn.symbolic import reconstruct_pseudo_orbit
from segdyn.transitions import (
    transitions_from_itineraries, transitions_from_json, transitions_to_json,
)
from test_walker import ref_shadowing_errors

REPO_ROOT = Path(__file__).resolve().parents[1]
LORENZ_CONFIG = REPO_ROOT / "configs" / "lorenz.json"


def record(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_RESULTS.append(f"criterion {criterion:2d}: {verdict} - {detail}")
    if not passed:
        pytest.fail(f"criterion {criterion}: {detail}")


# ---------------------------------------------------------------- run 1 ----

@pytest.fixture(scope="module")
def run1(tmp_path_factory):
    """The literal criterion-1 configuration, driven through the CLI."""
    out = tmp_path_factory.mktemp("lorenz_run1")
    for stage in ("calibrate", "segments", "shadow"):
        rc = cli_main([stage, "--config", str(LORENZ_CONFIG), "--out", str(out)])
        assert rc == 0, f"stage {stage} exited with {rc}"
    cfg = load_config(LORENZ_CONFIG, overrides={"output_dir": str(out)})
    cover = cover_from_json(read_json(out / "cover.json"))
    return {
        "config": cfg,
        "outdir": out,
        "cover": cover,
        "partition": Partition(cover=cover),
        "library": load_library(out / "library"),
        "shadow": read_json(out / "shadow_report.json"),
    }


# ---------------------------------------------------------------- run 4 ----

@pytest.fixture(scope="module")
def run4():
    """Orbit-seeded Lorenz cover: cells cover the attractor well enough for
    long encodings, which the transition-consistency criteria need."""
    model = Lorenz()
    cfg = IntegratorConfig(step=0.005)
    horizon, epsilon, cap, seed = 0.25, 8.0, 0.8, 2026
    rng = np.random.default_rng(seed)
    x = rng.uniform([-15.0, -20.0, 5.0], [15.0, 20.0, 40.0], size=(32, 3))
    x = advance_many(model, x, 10.0, cfg)
    snaps = []
    for _ in range(600):
        x = advance_many(model, x, 0.12, cfg)
        snaps.append(x.copy())
    cloud = np.concatenate(snaps)
    candidates = cloud[:16000]
    fresh_pool = cloud[16640:]

    deltas = calibrate_deltas(model, candidates, horizon, epsilon, cfg,
                              boundary_samples=8, delta_max=cap,
                              time_samples=9, seed=seed)
    order = np.argsort(-deltas, kind="stable")
    cover = minimal_cover(candidates[order], deltas[order], candidates)
    partition = Partition(cover=cover)
    lib = build_segments(model, cover, horizon, 11, cfg, epsilon=epsilon)

    _, itins = sample_itineraries(model, partition, horizon, 2, 200, cfg,
                                  rng_seed=seed)
    tm, tensors = transitions_from_itineraries(itins, partition.n_cells, (2, 3))

    covered = fresh_pool[partition.assign_many(fresh_pool) > 0]
    assert covered.shape[0] >= 1000, "fresh pool too sparse for 1000 encoded orbits"
    fresh = covered[:1000]
    words = encode_many(model, partition, fresh, 20, horizon, cfg)
    return {
        "model": model, "cfg": cfg, "horizon": horizon, "epsilon": epsilon,
        "seed": seed, "partition": partition, "library": lib,
        "tm": tm, "tensors": tensors,
        "fresh": fresh, "words": words,
    }


# ------------------------------------------------------------- criteria ----

def test_criterion_01_epsilon_shadowing_lorenz_grid(run1):
    cfg = run1["config"]
    partition, lib = run1["partition"], run1["library"]
    model, icfg = cfg.model, cfg.integrator
    epsilon = lib.epsilon

    # the CLI shadow stage already verified every encodable prefix
    shadow = run1["shadow"]
    assert shadow["max_error"] is None or shadow["max_error"] <= epsilon + 1e-6

    # hunt for complete length-20 encodings: the CLI-drawn starts plus a few
    # seeded samples inside every ball
    rng = derive_rng(cfg.rng_seed, 99)
    per_ball = 3
    centers = np.repeat(partition.cover.centers, per_ball, axis=0)
    radii = np.repeat(partition.cover.radii, per_ball)
    dirs = rng.normal(size=centers.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    extra = centers + (radii * rng.random(len(radii)) ** (1 / 3))[:, None] * dirs
    extra = extra[partition.assign_many(extra) > 0]
    words = encode_many(model, partition, extra, 20, cfg.horizon, icfg)
    lengths = np.array([0 if w is None else len(w) for w in words])
    complete_idx = [i for i, w in enumerate(words) if w is not None and w.complete]
    n_shadow_complete = shadow["complete_orbits"]
    total_complete = len(complete_idx) + n_shadow_complete
    total_tried = len(words) + shadow["orbits"]

    if total_complete >= 100:
        pseudos = [reconstruct_pseudo_orbit(lib, words[i]) for i in complete_idx]
        errors = ref_shadowing_errors(model, extra[complete_idx], pseudos, icfg)
        shadow_errors = [r["error"] for r in shadow["per_orbit"] if r["complete"]]
        worst = max([*errors, *shadow_errors])
        record(1, worst <= epsilon + 1e-6,
               f"epsilon-shadowing on the 12^3 Lorenz grid: max error {worst:.4g} "
               f"vs epsilon {epsilon} over {total_complete} complete encodings")
    else:
        record(1, False,
               f"only {total_complete}/{total_tried} sampled starts have complete "
               f"length-20 encodings (need 100); longest prefix {lengths.max()} "
               f"windows, mean {lengths.mean():.2f}. With epsilon=1.0 every "
               f"calibrated radius is <= 0.5, and balls that small on a 12^3 grid "
               f"of this box cover well under 1% of the attractor, so 20-window "
               f"survival is effectively impossible; the shadowing bound itself "
               f"holds on every encodable prefix (max error "
               f"{shadow['max_error']:.4g} <= {epsilon})")


def test_criterion_02_closed_form_flow_oracle():
    model = LinearDiagonal(rates=[1.0])
    icfg = IntegratorConfig(step=1e-3)
    worst = max(abs(advance(model, [1.0], t, icfg)[0] - np.exp(-t))
                for t in (0.25, 0.5, 1.0, 1.37, 2.0))
    err_h = abs(advance(model, [1.0], 1.0, IntegratorConfig(step=0.1))[0] - np.exp(-1))
    err_h2 = abs(advance(model, [1.0], 1.0, IntegratorConfig(step=0.05))[0] - np.exp(-1))
    ratio = err_h / err_h2
    ok = worst <= 1e-8 and 8.0 <= ratio <= 32.0
    record(2, ok, f"LinearDiagonal endpoint error {worst:.3g} (<= 1e-8); "
                  f"step-halving error ratio {ratio:.2f} (16 +/- 2x)")


def test_criterion_03_partition_correctness(run1):
    cfg = run1["config"]
    partition = run1["partition"]
    cover = partition.cover
    rng = derive_rng(cfg.rng_seed, 98)
    pts = cfg.domain.sample(rng, 100_000)
    got = partition.assign_many(pts)

    expected = np.zeros(len(pts), dtype=np.int64)
    multiplicity = np.zeros(len(pts), dtype=np.int64)
    r2 = cover.radii ** 2
    for start in range(0, len(pts), 2048):
        chunk = pts[start:start + 2048]
        d2 = ((chunk[:, None, :] - cover.centers[None, :, :]) ** 2).sum(axis=-1)
        member = d2 <= r2[None, :]
        any_later = np.zeros(chunk.shape[0], dtype=bool)
        exp_chunk = np.zeros(chunk.shape[0], dtype=np.int64)
        mult_chunk = np.zeros(chunk.shape[0], dtype=np.int64)
        for n in range(cover.n_balls - 1, -1, -1):
            in_cell = member[:, n] & ~any_later
            mult_chunk += in_cell
            exp_chunk[in_cell] = n + 1
            any_later |= member[:, n]
        expected[start:start + 2048] = exp_chunk
        multiplicity[start:start + 2048] = mult_chunk

    agree = np.array_equal(got, expected)
    disjoint = bool(np.all(multiplicity <= 1))
    grid = collocate(cfg.domain, cfg.resolution)
    covered = bool(np.all(partition.assign_many(grid) > 0))
    record(3, agree and disjoint and covered,
           f"assign_cell matches the direct definition on 100000 points "
           f"(agree={agree}, disjoint={disjoint}, all {len(grid)} collocation "
           f"centers covered={covered})")


def test_lorenz_grid_assignment_stays_within_a_small_memory_bound(run1):
    # 2^18 points in the balls of the 12^3 cover, as many as one round of the
    # transition-start sampler draws: the grid answers them 4,096 at a time,
    # so past the 2 MiB of cell ids only one block's tables are held, where
    # answering every point at once peaked at 26 MiB; measured 2.7 MiB
    partition = run1["partition"]
    cover = partition.cover
    rng = np.random.default_rng(18)
    n = 1 << 18
    ball = rng.integers(cover.n_balls, size=n)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = cover.centers[ball] + (cover.radii[ball] * rng.random(n) ** (1 / 3))[:, None] * u
    partition.assign_many(pts[:1])  # the grid is built on first use
    cells, peak = traced_peak(lambda: partition.assign_many(pts))
    assert peak < 8 * 2 ** 20
    assert np.all(cells > 0)
    assert np.array_equal(cells[::64], brute_force_cells(pts[::64], cover.centers, cover.radii))


def test_orbit_cover_grid_index_matches_brute_force(run4):
    # the orbit-seeded cover has a wide radius spread; the grid keeps buckets
    # of two median radii and answers exactly as the brute-force scan
    partition = run4["partition"]
    cover = partition.cover
    assert cover.n_balls >= 128
    assert partition._grid.width == 2.0 * np.median(cover.radii)
    rng = np.random.default_rng(4)
    pts = np.concatenate([run4["fresh"],
                          rng.uniform([-25.0, -30.0, -5.0], [25.0, 30.0, 50.0], (20_000, 3))])
    assert np.array_equal(partition.assign_many(pts),
                          brute_force_cells(pts, cover.centers, cover.radii))


def _edges(indptr, successors) -> set:
    """The (cell, successor) pairs, 1-based, of CSR successor arrays."""
    rows = np.repeat(np.arange(1, len(indptr)), np.diff(indptr))
    return set(zip(rows.tolist(), np.asarray(successors).tolist()))


def test_orbit_cover_enclosure_holds_gamma_and_fresh_orbits(run4):
    # the image-ball enclosure at slack 1 holds every sampled transition and
    # every window-to-window step of the fresh orbits' encodings
    partition, lib = run4["partition"], run4["library"]
    rho = jacobian_norms(run4["model"], partition.cover.centers, run4["horizon"], run4["cfg"])
    enclosure = _edges(*ball_successors(lib, partition, rho))
    tm = run4["tm"]
    gamma = _edges(tm.indptr, tm.indices + 1)
    assert len(gamma) > 10_000 and gamma <= enclosure
    pairs = [(a, b) for w in run4["words"] if w is not None for a, b in zip(w.word, w.word[1:])]
    outside = sum(pair not in enclosure for pair in pairs)
    assert len(pairs) > 10_000 and outside == 0, f"{outside} of {len(pairs)} pairs outside"


@pytest.fixture(scope="module")
def run1_outputs(run1):
    """run 1's output directory after the stages it does not run itself: every
    stage of configs/lorenz.json has run there, bounds exiting 2 (no
    admissible word of length 20 starts at its start cell)."""
    out = run1["outdir"]
    for stage in ("transitions", "encode", "enumerate", "entropy", "bounds", "report"):
        rc = cli_main([stage, "--config", str(LORENZ_CONFIG), "--out", str(out)])
        assert rc == (2 if stage == "bounds" else 0), f"stage {stage} exited with {rc}"
    return out


# every output of configs/lorenz.json but manifest.json, which holds wall
# times; bounds writes no file; the library's files re-pinned when
# segments.npy replaced segments.csv and library.json gained the times; every
# JSON file but the empty enumeration re-pinned when lists of scalars went on
# one line, cover.json became a centers table and radii, and transitions.json
# dropped escape_fractions and unsupported_rows
LORENZ_DIGESTS = {
    "cover.json": "e8f517cda42c239019bb2fe7579449b1cda79ef7506eff5947e04232319cf3c3",
    "enclosure.json": "92affbbfc7e44f8458e2629bb6c71fa0e850879b5c5d3e81f477789cdf3a7595",
    "entropy.json": "1c2ecaf7005fd18948deb23a474b6eee463d4e527f00df54ee8407146f63ed5e",
    "enumeration.json": "bcac4df571baf7011768687d490e7c0dd55b3b85e18b0cfea3f11ebf266617d5",
    "library/library.json": "4b87c74887315826fb0d07f03369510840acc3988e3fda76b0b25fb693cab5fd",
    "library/segments.npy": "053dc4ae1fd87c2806425722256c5a32d018281c66c5d2dd7d6cd0e65c8a8a99",
    "max_difference.csv": "f2c5023c9c8ecb0ebc8dfa78bbae60b2f5a746a0f4717182e8de0b27a956ad27",
    "report.json": "4ff21cab352e39dd33a131ad17546764dad54aa6da33ce71245be6124642cf43",
    "shadow_report.json": "b7f5d93488d7b23b5c907d6af4afedefcd226e298e736739884b451429c2cd30",
    "tensors.json": "e5525fb82e75ea7c4613d95065ca415e33aebc357f3054a73aacbb17976f90b8",
    "transitions.json": "ba01c9d2342ee959a7d999674f08302cdc7732642ecac4b73e9bd24ac120f98e",
    "words.json": "870918d426cd1b04cf149a2bfbe2f670bbeb0d7d87b85d1aac4aed8bc25390b8",
}


def test_bundled_lorenz_outputs_keep_their_bytes(run1_outputs):
    found = output_digests(run1_outputs)
    assert sorted(found) == sorted(LORENZ_DIGESTS)
    changed = [name for name, digest in LORENZ_DIGESTS.items() if found[name] != digest]
    assert not changed, f"outputs whose bytes differ: {changed}"


def test_every_json_file_of_the_bundled_lorenz_run_has_the_layout(run1_outputs):
    files = sorted(run1_outputs.rglob("*.json"))
    assert len(files) == len([n for n in LORENZ_DIGESTS if n.endswith(".json")]) + 1
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert text == layout_oracle(json.loads(text)), path.name


def test_lorenz_grid_enclosure_holds_gamma(run1_outputs):
    out = run1_outputs
    tm = transitions_from_json(read_json(out / "transitions.json"))
    doc = read_json(out / "enclosure.json")
    assert _edges(tm.indptr, tm.indices + 1) <= _edges(doc["indptr"], doc["successors"])
    summary = load_manifest(out)["stages"]["transitions"]["summary"]["transitions"]
    assert summary["enclosure_misses"] == 0


def test_criterion_04_transition_consistency(run4):
    tm, tensors = run4["tm"], run4["tensors"]
    gamma = dense(tm) > 0
    landed = tm.landed
    sums = dense(tm, tm.p).sum(axis=1)
    rows_ok = bool(np.all(np.abs(sums[landed > 0] - 1.0) <= 1e-9)
                   and np.all(sums[landed == 0] == 0.0))

    by_order = {t.order: t for t in tensors}
    # explicit row membership: `in` on an ndarray tests elements, not rows
    pairs = set(map(tuple, by_order[2].tuples.tolist()))
    closure_ok = all(tuple(t[:-1]) in pairs for t in by_order[3].tuples.tolist())

    _, itins = sample_itineraries(run4["model"], run4["partition"], run4["horizon"], 1,
                                  200, run4["cfg"], rng_seed=run4["seed"])
    tm2, _ = transitions_from_itineraries(itins, run4["partition"].n_cells)
    doc_a = json.dumps(transitions_to_json(tm, run4["seed"], 200), sort_keys=True)
    doc_b = json.dumps(transitions_to_json(tm2, run4["seed"], 200), sort_keys=True)
    determinism_ok = doc_a == doc_b

    pairs = violations = 0
    for w in run4["words"]:
        if w is None:
            continue
        for a, b in zip(w.word, w.word[1:]):
            pairs += 1
            if not gamma[a - 1, b - 1]:
                violations += 1
    rate = violations / max(pairs, 1)
    viol_ok = rate < 0.01 and pairs > 1000

    record(4, rows_ok and closure_ok and determinism_ok and viol_ok,
           f"rows stochastic={rows_ok}, prefix closure exact={closure_ok}, "
           f"seed determinism byte-exact={determinism_ok}, fresh-orbit Gamma "
           f"violations {violations}/{pairs} = {100 * rate:.3f}% (< 1%)")


def test_criterion_05_enumeration_oracle():
    rng = np.random.default_rng(123)
    fixtures = [
        ("identity N=30", np.eye(30, dtype=bool), 7, 4),
        ("full N=5", np.ones((5, 5), dtype=bool), 1, 5),
        ("golden-mean", np.array([[0, 1], [1, 1]], dtype=bool), 2, 6),
        ("random sparse N=12", rng.random((12, 12)) < 0.25, 3, 5),
        ("random sparse N=30", rng.random((30, 30)) < 0.12, 11, 3),
    ]
    failures = []
    for name, gamma, n0, m in fixtures:
        for length in range(1, m + 1):
            res = enumerate_admissible(from_counts(gamma), n0, length, cap=200_000)
            brute = brute_force_words(gamma, n0, length)
            if set(map(tuple, res.words.tolist())) != brute:
                failures.append(f"{name} m={length}: word sets differ")
            brute_reach = {s for w in brute for s in w}
            if res.reachable != brute_reach:
                failures.append(f"{name} m={length}: reachable sets differ")
    golden = np.array([[0, 1], [1, 1]], dtype=bool)
    fib = [len(enumerate_admissible(from_counts(golden), 2, m).words) for m in range(1, 7)]
    if fib != [1, 2, 3, 5, 8, 13]:
        failures.append(f"golden-mean counts {fib} are not Fibonacci")
    record(5, not failures,
           "enumeration equals brute force on all fixtures; golden-mean counts "
           "follow the Fibonacci recurrence" if not failures else "; ".join(failures))


def test_criterion_06_entropy_closed_forms():
    checks = []
    checks.append(abs(metric_entropy(np.full(7, 1 / 7)) - np.log(7)) <= 1e-12)
    checks.append(metric_entropy(np.array([1.0, 0.0, 0.0])) == 0.0)
    perm = from_counts([[0, 1], [1, 0]])
    checks.append(ks_entropy(perm).unweighted == 0.0)
    n = 6
    uniform = ks_entropy(from_counts(np.ones((n, n))))
    checks.append(abs(uniform.unweighted - n * np.log(n)) <= 1e-12)
    checks.append(abs(uniform.stationary_weighted - np.log(n)) <= 1e-12)
    record(6, all(checks),
           f"H(uniform)=log N, H(point mass)=0, H_mu(permutation)=0, "
           f"H_mu(uniform 1/N): {uniform.unweighted:.6f} = N log N as printed and "
           f"{uniform.stationary_weighted:.6f} = log N stationary-weighted")


def test_criterion_07_max_difference_oracle():
    model = LinearDiagonal(rates=[1.0])
    icfg = IntegratorConfig(step=1e-3)
    cover = Cover(centers=np.array([[0.0], [1.0]]), radii=np.array([0.5, 0.5]))
    lib = build_segments(model, cover, 1.0, 21, icfg)
    md = max_difference(lib)
    worst = np.abs(md - np.exp(-lib.times)).max()
    record(7, worst <= 1e-8,
           f"M_d(t) matches e^-t at every sample, max deviation {worst:.3g}")


def _containment_check(run, tm, label):
    model, icfg = run["model"], run["cfg"]
    lib, words, fresh = run["library"], run["words"], run["fresh"]
    horizon = run["horizon"]
    env = segment_envelope(lib, QuantitySpec(kind="energy"))
    complete = [(i, w) for i, w in enumerate(words)
                if w is not None and w.complete]
    if not complete:
        return True, 0, "no complete encodings (vacuous)"
    idx = [i for i, _ in complete]
    m = len(complete[0][1])
    n_grid = m * (lib.n_times - 1) + 1
    _, states = sample_path(model, fresh[idx], m * horizon, n_grid, icfg)
    energies = QuantitySpec(kind="energy").evaluate(states)
    box = BoxDomain(lower=[-25.0, -30.0, -5.0], upper=[25.0, 30.0, 50.0])
    slack = QuantitySpec(kind="energy").lipschitz_slack(
        box.max_norm() + lib.epsilon, lib.epsilon)
    bad = 0
    for row, (i, w) in enumerate(complete):
        rb = reachable_bounds(env, tm, w.word[0], m)
        lo, hi = rb.lo - slack, rb.hi + slack
        if energies[row].min() < lo or energies[row].max() > hi:
            bad += 1
    return bad == 0, len(complete), f"{bad} of {len(complete)} orbits out of bounds"


def test_criterion_08_quantity_containment(run1, run4):
    # the acceptance run (run 1): complete encodings do not exist there, so
    # the check is vacuous; run 4 provides the meaningful containment test
    cfg = run1["config"]
    model, icfg = cfg.model, cfg.integrator
    partition = run1["partition"]
    rng = derive_rng(cfg.rng_seed, 97)
    probe = cfg.domain.sample(rng, 50_000)
    probe = probe[partition.assign_many(probe) > 0][:200]
    words1 = encode_many(model, partition, probe, 20, cfg.horizon, icfg) if len(probe) else []
    run1_complete = sum(1 for w in words1 if w is not None and w.complete)

    ok4, n4, detail4 = _containment_check(run4, run4["tm"], "run4")
    record(8, ok4,
           f"run 1: {run1_complete} complete encodings (vacuous if 0); "
           f"run 4: energy of every complete encoded orbit within "
           f"[q_lo - eps_Q, q_hi + eps_Q] over {n4} orbits ({detail4})")


def test_criterion_09_commutation(run1, run4):
    model, icfg = run4["model"], run4["cfg"]
    partition, horizon = run4["partition"], run4["horizon"]
    words, fresh = run4["words"], run4["fresh"]
    idx = [i for i, w in enumerate(words) if w is not None and w.complete]
    shifted_starts = advance_many(model, fresh[idx], horizon, icfg)
    shifted_words = encode_many(model, partition, shifted_starts, 19, horizon, icfg)
    mismatches = 0
    for i, sw in zip(idx, shifted_words):
        if sw is None or not sw.complete or sw.word != words[i].word[1:]:
            mismatches += 1
    # run 1 has no complete encodings (criterion 1), so its half is vacuous
    record(9, mismatches == 0,
           f"left shift of the encoding equals the encoding of the time-T image "
           f"for all {len(idx)} complete run-4 orbits ({mismatches} mismatches); "
           f"run 1 vacuous (no complete encodings)")


def test_criterion_10_predicate_verdicts():
    identity = np.eye(2)
    full = np.ones((2, 2))
    golden = np.array([[0, 1], [1, 1]])
    rs = (row_sensitivity(from_counts(identity)),
          row_sensitivity(from_counts(full)),
          row_sensitivity(from_counts(golden)))
    ex = (expanding_to_depth(make_markov_tensors(identity, 3), 2).expanding_up_to_depth,
          expanding_to_depth(make_markov_tensors(full, 3), 2).expanding_up_to_depth,
          expanding_to_depth(make_markov_tensors(golden, 3), 2).expanding_up_to_depth)
    ok = rs == (False, True, False) and ex == (False, True, True)
    record(10, ok,
           f"identity -> row_sensitivity={rs[0]}/expanding={ex[0]}; full shift -> "
           f"{rs[1]}/{ex[1]}; golden-mean -> row_sensitivity={rs[2]} (single-entry "
           f"row) and expanding to depth 3 with m_max=2: {ex[2]}")
