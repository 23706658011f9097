"""End-to-end checks over the shipped guarantees.

Each test covers one numbered check and prints a single verdict line.
Shared expensive work (the optimizer trial corpus) is built once and
reused by checks 4, 5 and 6; its build time is billed to check 4.
"""

import random
import time
from contextlib import contextmanager

from util import oracle_is_normal, random_system, two_token_l_path

from cubeplan.cubepaths import (
    NORMALIZE,
    STOP_ON_LENGTH,
    ShrinkStats,
    from_edge_path,
    is_normal,
    oracle_shortest,
    random_edge_path,
    shrink_cube_path,
    time_geodesic,
)
from cubeplan.fileformat import (
    parse_path,
    parse_system_file,
    serialize,
    serialize_path,
)
from cubeplan.shape import (
    REASON_OBSTACLE,
    build_shape_complex,
    lift_path,
    random_shape_path,
)
from cubeplan.statecomplex import build_complex, check_link_condition
from cubeplan.systems import (
    HEX_TRAP_STATE,
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    SystemFile,
    agv_grid_fixture,
    arm_system,
    arm_word_complex,
    complete_graph,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    sliding_ring_fixture,
    word_edges,
)
from cubeplan.topology import (
    betti_mod2,
    euler_characteristic,
    f_vector,
    greedy_collapse,
    is_closed_surface,
    is_orientable_surface,
)
from cubeplan.cubepaths import validate

TRIANGLE = frozenset([(0, 0), (1, 0), (0, 1)])


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"check {num:2d}: FAIL  {label}")
        raise
    print(f"check {num:2d}: PASS  {label}")


# ---------------------------------------------------------------- check 1


def test_check_01_two_tokens_on_k5_form_a_closed_nonorientable_surface():
    with verdict(1, "two tokens on K5: f-vector (10,30,15), chi -5, closed, nonorientable"):
        t0 = time.monotonic()
        sf = graph_agv_system(complete_graph(5), 2)
        cx = build_complex(sf.system, sf.seeds)
        assert f_vector(cx) == (10, 30, 15)
        assert euler_characteristic(cx) == -5
        assert is_closed_surface(cx)
        assert not is_orientable_surface(cx)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- check 2


def _corner_state_sets(cx, vid_to_state):
    """Cube fingerprints as frozensets of corner states, per dimension."""
    out = []
    for dim in range(cx.max_dim + 1):
        fingerprints = set()
        for rec in cx.cells(dim):
            fingerprints.add(frozenset(vid_to_state[v] for v in rec.corners))
        out.append(frozenset(fingerprints))
    return out


def test_check_02_arm_complex_matches_the_letter_word_model():
    with verdict(2, "arm N=2..6 agrees with the word model; contractible; N=5 has one 3-cube"):
        t0 = time.monotonic()
        for n in range(2, 7):
            sf = arm_system(n)
            cx = build_complex(sf.system, sf.seeds)
            wx = arm_word_complex(n)
            assert f_vector(cx) == f_vector(wx), f"N={n}"
            assert cx.n_cells(0) == 2 ** n

            arm_states = {rec.corners[0]: rec.base for rec in cx.cells(0)}
            word_states = {
                rec.corners[0]: word_edges(rec.base, n) for rec in wx.cells(0)
            }
            assert _corner_state_sets(cx, arm_states) == _corner_state_sets(wx, word_states), f"N={n}"

            betti = betti_mod2(cx)
            assert betti == (1,) + (0,) * (len(betti) - 1), f"N={n}"
            remaining = greedy_collapse(cx)
            assert remaining[0] == 1 and sum(remaining) == 1, f"N={n}"
            if n == 5:
                assert f_vector(cx)[3] == 1
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- check 3


def test_check_03_link_condition_separates_local_from_trapped_systems():
    with verdict(3, "link condition: clean on local systems, flags the constrained trap"):
        t0 = time.monotonic()
        clean = [
            graph_agv_system(complete_graph(5), 2),
            arm_system(2),
            arm_system(4),
            arm_system(6),
            agv_grid_fixture(3, 4),
            sliding_ring_fixture(1, 1),
            SystemFile(hex_pivot_system(VARIANT_CHANGING, cells=hex_ball(2)), (TRIANGLE,)),
            hex_connectivity_trap(constrained=False),
        ]
        for sf in clean:
            cx = build_complex(sf.system, sf.seeds)
            report = check_link_condition(cx)
            assert report.ok and not report.violations

        trap = hex_connectivity_trap(constrained=True)
        cx = build_complex(trap.system, trap.seeds)
        report = check_link_condition(cx)
        assert not report.ok
        assert len(report.violations) >= 1
        assert any(state == HEX_TRAP_STATE for state, _ in report.violations)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


# ------------------------------------------------- shared optimizer corpus

_CACHE = {}


def _optimizer_trials():
    """200 seeded random paths with their shrink history, shortest form,
    normal form and an independent breadth-first oracle length."""
    if "trials" not in _CACHE:
        t0 = time.monotonic()
        fixtures = []
        for name, sf in (
            ("arm3", arm_system(3)),
            ("arm4", arm_system(4)),
            ("grid33", agv_grid_fixture(3, 3)),
            ("grid24", agv_grid_fixture(2, 4)),
        ):
            cx = build_complex(sf.system, sf.seeds)
            fixtures.append((name, sf, cx))
        rng = random.Random(20260816)
        trials = []
        for name, sf, cx in fixtures:
            for _ in range(50):
                moves = random_edge_path(sf.system, sf.seeds[0], rng.randint(5, 30), rng)
                path = from_edge_path(sf.seeds[0], moves, sf.system)
                sweeps = []
                cur = path
                while True:
                    nxt = shrink_cube_path(cur)
                    changed = nxt != cur
                    sweeps.append((cur.potential, nxt.potential, changed))
                    if not changed:
                        break
                    cur = nxt
                trials.append(
                    {
                        "fixture": name,
                        "path": path,
                        "short": time_geodesic(path, STOP_ON_LENGTH),
                        "normal": cur,
                        "sweeps": sweeps,
                        "oracle": oracle_shortest(cx, path.start, path.end),
                    }
                )
        _CACHE["fixtures"] = fixtures
        _CACHE["trials"] = trials
        _CACHE["build_secs"] = time.monotonic() - t0
    return _CACHE["trials"]


# ---------------------------------------------------------------- check 4


def test_check_04_shortened_paths_hit_the_breadth_first_oracle_length():
    with verdict(4, "200 random paths: STOP_ON_LENGTH length equals the BFS oracle exactly"):
        trials = _optimizer_trials()
        assert len(trials) == 200
        for t in trials:
            assert t["short"].start == t["path"].start
            assert t["short"].end == t["path"].end
            assert t["short"].length == t["oracle"], (
                f"{t['fixture']}: got {t['short'].length}, oracle {t['oracle']}"
            )
        assert _CACHE["build_secs"] < 60.0, f"took {_CACHE['build_secs']:.2f}s"


# ---------------------------------------------------------------- check 5


def test_check_05_normal_forms_are_canonical_and_fixed_points_match():
    with verdict(5, "normal forms unique per endpoint pair; fixed points equal is_normal and its set oracle on 500 paths"):
        trials = _optimizer_trials()
        groups = {}
        for t in trials:
            assert is_normal(t["normal"])
            assert t["normal"].start == t["path"].start
            assert t["normal"].end == t["path"].end
            key = (t["fixture"], t["normal"].start, t["normal"].end)
            groups.setdefault(key, []).append(t["normal"])
        collisions = 0
        for forms in groups.values():
            for other in forms[1:]:
                collisions += 1
                assert other == forms[0]
        # the corpus must actually exercise uniqueness, not vacuously pass
        assert collisions >= 10

        rng = random.Random(5)
        fixtures = _CACHE["fixtures"]
        for i in range(500):
            name, sf, cx = fixtures[i % len(fixtures)]
            moves = random_edge_path(sf.system, sf.seeds[0], rng.randint(0, 12), rng)
            path = from_edge_path(sf.seeds[0], moves, sf.system)
            fixed = shrink_cube_path(path) == path
            # the set oracle keeps the check independent of the sweep's coding
            assert fixed == is_normal(path) == oracle_is_normal(path)


# ---------------------------------------------------------------- check 6


def test_check_06_potential_strictly_decreases_and_shrinking_is_idempotent():
    with verdict(6, "every path-changing shrink lowers the potential; outputs are fixed points"):
        trials = _optimizer_trials()
        changing = 0
        for t in trials:
            for before, after, changed in t["sweeps"]:
                if changed:
                    changing += 1
                    assert after < before
                else:
                    assert after == before
            assert t["short"].length <= t["path"].length
            assert t["normal"].length <= t["path"].length
            assert shrink_cube_path(t["normal"]) == t["normal"]
            assert time_geodesic(t["normal"], NORMALIZE) == t["normal"]
        assert changing > 0


# ---------------------------------------------------------------- check 7


def test_check_07_sweep_work_on_the_l_path_grows_quadratically():
    with verdict(7, "L-path sweep iterations track c*N^2 within 2x for N up to 320"):
        sizes = (40, 80, 160, 320)
        iterations = {}
        seconds = {}
        for n in sizes:
            path = two_token_l_path(n)
            stats = ShrinkStats()
            t0 = time.monotonic()
            out = time_geodesic(path, NORMALIZE, stats)
            seconds[n] = time.monotonic() - t0
            assert out.length == n // 2
            assert is_normal(out)
            iterations[n] = stats.iterations
        c = iterations[sizes[0]] / sizes[0] ** 2
        for n in sizes:
            lo, hi = c * n * n / 2, c * n * n * 2
            assert lo <= iterations[n] <= hi, (
                f"N={n}: {iterations[n]} iterations outside [{lo:.0f}, {hi:.0f}]"
            )
        assert seconds[320] < 10.0, f"N=320 took {seconds[320]:.2f}s"


# ---------------------------------------------------------------- check 8


def test_check_08_shuttle_rings_carry_one_essential_loop():
    with verdict(8, "shuttle rings (1,1) and (2,3): mod-2 Betti numbers (1,1,0)"):
        for p, q in ((1, 1), (2, 3)):
            sf = sliding_ring_fixture(p, q)
            cx = build_complex(sf.system, sf.seeds)
            betti = betti_mod2(cx)
            padded = tuple(betti) + (0,) * (3 - len(betti))
            assert padded[:3] == (1, 1, 0), f"ring ({p},{q}): {betti}"

            v_formula = 4 * (p * q + 1) + 2 * (p + q)
            e_formula = 8 * (p * q + 1) - 2 * (p + q)
            v, e = cx.n_cells(0), cx.n_cells(1)
            tag = "match" if (v, e) == (v_formula, e_formula) else "differ"
            print(
                f"ring ({p},{q}): vertices {v} vs closed form {v_formula}, "
                f"edges {e} vs closed form {e_formula} ({tag})"
            )


# ---------------------------------------------------------------- check 9


def test_check_09_shape_quotient_builds_and_paths_lift_or_fail_cleanly():
    with verdict(9, "hex shape quotient: 9 squares, link ok; 50 lifts succeed; a wall blocks with step+reason"):
        system = hex_pivot_system(VARIANT_PRESERVING)
        cx = build_shape_complex(system, [TRIANGLE])
        assert cx.n_cells(2) == 9
        assert check_link_condition(cx).ok

        big = hex_pivot_system(VARIANT_PRESERVING, cells=hex_ball(40))
        for i in range(50):
            path = random_shape_path(system, TRIANGLE, 12, random.Random(1000 + i))
            res = lift_path(path, (0, 0), big)
            assert res.ok, f"lift {i} failed at {res.fail_step}: {res.reason}"
            assert validate(res.path).ok
            assert res.path.length == path.length

        # Pin a wall on one pivot's landing cell so the lift must stop
        # exactly there with the obstacle reason.
        found = False
        for seed in range(7, 40):
            path = random_shape_path(system, TRIANGLE, 12, random.Random(seed))
            if path.length < 3:
                continue
            free = lift_path(path, (0, 0), big)
            assert free.ok
            concrete = free.path
            supports = [
                frozenset().union(*(a.support for a in step))
                for step in concrete.steps
            ]
            for k in range(concrete.length - 1, 0, -1):
                act = next(iter(concrete.steps[k]))
                (target,) = act.dst_occ - act.src_occ
                # earlier steps must not brush the wall cell, or the lift
                # would stop before reaching step k
                earlier = frozenset().union(*supports[:k])
                if target in concrete.start or target in earlier:
                    continue
                walled = hex_pivot_system(
                    VARIANT_PRESERVING,
                    cells=hex_ball(40),
                    obstacles=((target, 0),),
                )
                res = lift_path(path, (0, 0), walled)
                assert not res.ok
                assert res.fail_step == k, f"failed at {res.fail_step}, wall at {k}"
                assert res.reason == REASON_OBSTACLE
                found = True
                break
            if found:
                break
        assert found, "no trial exposed an isolated landing cell to wall off"


# ---------------------------------------------------------------- check 10


def test_check_10_system_files_and_move_scripts_round_trip():
    with verdict(10, "100 random system files and 100 move scripts survive serialize/parse"):
        for i in range(100):
            sf = random_system(random.Random(i))
            assert parse_system_file(serialize(sf)) == sf

        fixtures = (
            arm_system(4),
            agv_grid_fixture(3, 3),
            sliding_ring_fixture(1, 1),
            graph_agv_system(complete_graph(5), 2),
        )
        rng = random.Random(99)
        for i in range(100):
            sf = fixtures[i % len(fixtures)]
            moves = random_edge_path(sf.system, sf.seeds[0], rng.randint(1, 25), rng)
            path = from_edge_path(sf.seeds[0], moves, sf.system)
            assert parse_path(serialize_path(path, sf.system), sf.system) == path
