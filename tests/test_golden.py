"""Golden digests of every builtin complex and of the shape fixtures.

A digest does not depend on how cells are keyed: it covers the
f-vector, the truncation flag, each cell's corner states and each
cell's facets, every facet given by its own corner states.  Every
complex also pins the sha256 of its ``export_complex`` text, which
prints each cell's name as read at its base corner, so that listing
stays byte-stable.  Any change to the builder that alters one of these
values changes the complex.  The 6-module connected hex quotients, the
pinned complexes under a non-local constraint, pin their link
violations too.

The command line is pinned the same way: the sha256 of the stdout and
stderr of a fixed sequence of CLI runs, with their exit codes.
"""

import hashlib

import pytest

from cubeplan.cli import _build, build_parser, main
from cubeplan.fileformat import export_complex
from cubeplan.shape import build_shape_complex
from cubeplan.statecomplex import check_link_condition, state_key
from cubeplan.systems import (
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    hex_pivot_system,
)

from util import NOT_PLACEMENTS, sliding_squares_system

TRIANGLE = frozenset([(0, 0), (1, 0), (0, 1)])


def complex_digest(cx) -> str:
    """sha256 over the corner-state sets of every cell and its facets."""

    def corners(rec):
        return tuple(sorted(state_key(cx.vertex_state(v)) for v in rec.corners))

    h = hashlib.sha256()
    for k in range(cx.max_dim + 1):
        rows = sorted(
            (
                corners(rec),
                tuple(sorted(corners(cx.cell(k - 1, f)) for f in rec.facets)),
            )
            for rec in cx.cells(k)
        )
        h.update(repr((k, rows)).encode())
    return h.hexdigest()


def cell_counts(cx) -> tuple:
    """The f-vector, read without the full-complex check of ``f_vector``."""
    return tuple(cx.n_cells(k) for k in range(cx.max_dim + 1))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha("")


# CLI arguments -> (f-vector, truncated, complex digest, export digest)
BUILTINS = {
    ("agv-k5", "--n", "2"): (
        (10, 30, 15), False,
        "175d3514507ce4222ba634108b255a51938801e9e4cfbcb44d743d05986c3bbc",
        "bddeb2d011abce31cb69a3ebf8ad7cde23464d05a6e1bced12dc8d23f6729469",
    ),
    ("agv-grid",): (
        (12, 17, 6), False,
        "9f610b678c508494b2f7acf3aec48cb9a43af8f15f15899ef99fa9c5cd52fda1",
        "ede6e76b5d028db6140c7df57fbdcfeb70ad3e63730dc982811b1955c456c188",
    ),
    ("arm", "--n", "4"): (
        (16, 20, 5), False,
        "aac8718a6fa76817e4ec4cb65884f31985285257ca7d1ad7ed8f84f14ef683e7",
        "5ce0bc45652a253cfeffdab5181d69ed923e8d95fe5f1f1464716e1d83d637a5",
    ),
    ("arm", "--n", "6"): (
        (64, 112, 56, 7), False,
        "1eb7613fac0c60bcb2ca3a3e56c004fac1226e920ef336b9822687ec7d304a55",
        "8442f936184a7f0ba3ee710bd344d093a5e7adfff1b4221b6b970a93170a3a14",
    ),
    ("sliding-ring", "--p", "1", "--q", "1"): (
        (12, 12), False,
        "cf625b4eff12047b4c26a595277a63d659eed26c0a57679cee739e425ccb2e19",
        "a70a1909190f4e6758fd6bba7bdf68b00d9ffd2c6a879474b3bc1ec199410d8e",
    ),
    ("sliding-ring", "--p", "2", "--q", "3"): (
        (38, 46, 8), False,
        "1d71a96835dedc9e2a028a7b9621a69c783e98c642bac8ca8e3ca94839afc755",
        "e87ece6312ab9ccbfae0d83674ebf4462a9e6a69251092451b788947be403ecd",
    ),
    ("hex", "--radius", "2"): (
        (579, 1152, 69), False,
        "1fae48fb24f42662f1cd9577407bece2d0ffe6aa28186f3046943159adf7338d",
        "e0fe065c4165ad136f8e5e318af9338d6780762fb7b1a21e8bc71a7b08b4e1ba",
    ),
    ("hex", "--radius", "2", "--variant", "preserving"): (
        (21, 36, 9), False,
        "956d5e5afc0010c6a22f344bc81ed6bab7cf93c7f86eb3bfd9c445ada1c3142f",
        "bd5a0bc80371966221ae7af7a3e0d904a2404b8b79fe99bfc6d9e30302f32998",
    ),
    ("hex-trap",): (
        (48, 192, 234, 74), False,
        "41594448338b109cc23474285ef6950755a3c52a0f17cc822b671d60b17d51ed",
        "e110a2f7b1eeaddecf377f3fe5521c6712bcedc7096a9c8b833d546454a5f50d",
    ),
    ("hex-trap-free",): (
        (64, 288, 432, 216), False,
        "b2c23d375dab5bb8b59762fb705427627f3d92795e3f96359a2afa307af7c9fb",
        "31cd2ad0b8de656f0b082deea72bb3be910259c0311b4cd22db3b66416afa38c",
    ),
}


def build_builtin(argv):
    return _build(build_parser().parse_args(["stats", "--builtin", *argv]))


@pytest.mark.parametrize("argv", sorted(BUILTINS), ids=" ".join)
def test_builtin_complexes_match_their_golden_digests(argv):
    fvec, truncated, digest, export = BUILTINS[argv]
    cx = build_builtin(argv)
    assert cell_counts(cx) == fvec
    assert cx.truncated is truncated
    assert complex_digest(cx) == digest
    assert sha(export_complex(cx)) == export


def shape_fixture(name):
    if name == "triangle":
        return build_shape_complex(hex_pivot_system(VARIANT_PRESERVING), [TRIANGLE])
    if name == "domino":
        return build_shape_complex(
            sliding_squares_system(2, None),
            [frozenset([(0, 0), (1, 0)]), frozenset([(0, 0), (0, 1)])],
        )
    if name == "truncated":
        return build_shape_complex(
            hex_pivot_system(VARIANT_CHANGING), [TRIANGLE], cap=15
        )
    assert name == "five-modules"
    return build_shape_complex(
        hex_pivot_system(VARIANT_PRESERVING), [frozenset((i, 0) for i in range(5))]
    )


# fixture -> (f-vector, truncated, complex digest, export digest)
SHAPES = {
    "domino": (
        (2,), False,
        "76765e46349e3d5d892f1154039e6148d42bd60e33ace0416e5467815c659184",
        "e1002b6c23f989bf837bf92fca92632d7a7e6a335dda97bd9d8d3a65e97a18d8",
    ),
    "five-modules": (
        (186, 414, 231, 12), False,
        "13c5cb93f5fade8235f03313201e0283cd4f5c30bcb979ff8004f7956851f2c2",
        "7b69c81c635be207b5c8d0c7d6055ddc38337b42eba821285b3255be76f18cd7",
    ),
    "triangle": (
        (11, 24, 9), False,
        "f2d65b1ca22eb13613cbf0bdc4975be3b846fcafdb09015d8435f0353c7d2f04",
        "c8654909f39308555acbad9885b0c9c2a5961a9aee9adbc7f80b89448d294609",
    ),
    "truncated": (
        (15, 38, 9), True,
        "927c5fdd486f8bcdecc7f15747b93896632c9c51a7e97df4d42583da1b17eed0",
        "17e89006e698684efd63b04335233470f8caed1761ab7786f837077268e64bda",
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_complexes_match_their_golden_digests(name):
    fvec, truncated, digest, export = SHAPES[name]
    cx = shape_fixture(name)
    assert cell_counts(cx) == fvec
    assert cx.truncated is truncated
    assert complex_digest(cx) == digest
    assert sha(export_complex(cx)) == export


# the 6-module connected hex quotient, a non-local one, per variant ->
# (f-vector, export digest, number of link violations, digest of
# ``violations_text``)
CONNECTED_SIX = {
    VARIANT_PRESERVING: (
        (813, 1878, 1185, 144),
        "0d10b11303f4bcfe2398bd252126fd3334a0b4f22f6bac89e0373ace118a1eca",
        0, EMPTY,
    ),
    VARIANT_CHANGING: (
        (814, 4326, 5847, 1806, 42),
        "8030a8c3382497150c90c38d2fc721172d749e97654884e5ed21cb2a3ea12134",
        144, "88898845f16b7f83afa5adfc4e013f69bb95383d0fe315f38ec6b9bb0ed20647",
    ),
}


def violations_text(report) -> str:
    """One line per violation: the state's cells, then each action's
    generator, offset and direction."""
    return "".join(
        f"{state_key(state)!r} {tuple((a.gid, a.offset, a.direction) for a in acts)!r}\n"
        for state, acts in report.violations
    )


@pytest.mark.parametrize("variant", sorted(CONNECTED_SIX))
def test_connected_hex_quotients_match_their_golden_pins(variant):
    """The quotient under the connected constraint from six modules:
    the changing variant fails the link condition, as a non-local
    constraint may, and its violations are pinned with its export."""
    fvec, export, count, violations = CONNECTED_SIX[variant]
    seed = frozenset([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)])
    system = hex_pivot_system(variant, None, constraint_name="connected")
    cx = build_shape_complex(system, [seed])
    assert cell_counts(cx) == fvec
    assert sha(export_complex(cx)) == export
    report = check_link_condition(cx)
    assert (report.ok, len(report.violations)) == (count == 0, count)
    assert sha(violations_text(report)) == violations


AGV_K5 = ("--builtin", "agv-k5", "--n", "2")
ARM = ("--builtin", "arm", "--n", "6")
HEX_PRESERVING = ("--builtin", "hex", "--variant", "preserving")
HEX_SHAPES = (*HEX_PRESERVING, "--unbounded", "--shapes")
MISSING_EDGE = "token-on-a-missing-edge"

# run name -> (CLI arguments, exit code, sha256 of stdout, sha256 of
# stderr), run in this order; an argument "@NAME" is a file holding the
# stdout of run NAME, or the script of ``NOT_PLACEMENTS[NAME]``
CLI_RUNS = {
    "homology-agv-k5": (
        ("homology", *AGV_K5),
        0, "ef7afacca90cebaa790ef58b55ee79a0c4cdf53302231fcca079e216b6d65c92", EMPTY,
    ),
    "homology-sliding-ring": (
        ("homology", "--builtin", "sliding-ring", "--p", "2", "--q", "3"),
        0, "f0b773ee9a7bb4679f8c500bd229ec8715759cb9daf02903ef2de98a0e009e3e", EMPTY,
    ),
    "check-npc-hex-trap": (
        ("check-npc", "--builtin", "hex-trap"),
        0, "235930788170856f8e3cd0119e59800fdc2812bbc7ed3df84ade48f764d85448", EMPTY,
    ),
    "check-npc-hex": (
        ("check-npc", "--builtin", "hex", "--radius", "2"),
        0, "a12b7cb43c9d9134b5bb1b35e9096b66775d9e92e7611d1cc92b02edd6782a87", EMPTY,
    ),
    "stats-hex-shapes": (
        ("stats", *HEX_SHAPES, "--cap", "200"),
        0, "9ab9db400bda3adc0eaaf7180a845160d2a639e1500d14403a1160b87abfb27e", EMPTY,
    ),
    "random-path-agv-k5": (
        ("random-path", *AGV_K5, "--length", "40", "--rng-seed", "5"),
        0, "4da05fe0276d9671c2833e644192fd22f1e846082bd32885e7ae25f42857fac7", EMPTY,
    ),
    "optimize-agv-k5": (
        ("optimize", *AGV_K5, "--in", "@random-path-agv-k5"),
        0, "5be96fcaed9a1393aff18a3698c7c2feb142926387d8140d9d0cde8e9fa0eaae", EMPTY,
    ),
    "normalize-agv-k5": (
        ("normalize", *AGV_K5, "--in", "@random-path-agv-k5"),
        0, "270161575b801c03d6e80f3d1af56c62dc9e05d441b4684aa058464d1bf6a4b8", EMPTY,
    ),
    "random-path-arm": (
        ("random-path", *ARM, "--length", "80", "--rng-seed", "2"),
        0, "93a32b4d2c1aee6390c0bc46ada520f4273f5c644737f88b3123fccaf6ba8dfb", EMPTY,
    ),
    "optimize-arm": (
        ("optimize", *ARM, "--in", "@random-path-arm"),
        0, "4ff466ed3601a98f851f9ec2c5d8369d433b70e19e9eea516a638643f65369d9", EMPTY,
    ),
    "normalize-arm": (
        ("normalize", *ARM, "--in", "@random-path-arm"),
        0, "afcad20b183e4a261c163bacee1cbef3e2464a19a84eda2de3a704c313098105", EMPTY,
    ),
    "export-agv-grid": (
        ("export", "--builtin", "agv-grid", "--what", "system"),
        0, "cb577be29a883fe5b8887506ed5d40dbc1564f4f04c19859c792f88861e5e821", EMPTY,
    ),
    "random-path-hex-shapes": (
        ("random-path", *HEX_SHAPES, "--length", "6", "--rng-seed", "1"),
        0, "2e4bb6a08148cbed7fe51b906427849fa21f32e4541253e796e9cff8b2fa4493", EMPTY,
    ),
    "lift-hex": (
        ("lift", *HEX_PRESERVING, "--radius", "6", "--in", "@random-path-hex-shapes",
         "--base", "(1,1)"),
        0, "9f147abc633adffe8f39cfdfd18b2423082a63ab6c97b6fe44e106e14f3101bc", EMPTY,
    ),
    "optimize-not-an-embedding": (
        ("optimize", *NOT_PLACEMENTS[MISSING_EDGE][0], "--in", f"@{MISSING_EDGE}"),
        1, EMPTY,
        "de3c4d804f2fbdebcffcbd81bc5b786b0cd499eaf15d28d148057c048d5dd37e",
    ),
}


def test_cli_outputs_match_their_golden_digests(capsys, tmp_path):
    (tmp_path / MISSING_EDGE).write_text(NOT_PLACEMENTS[MISSING_EDGE][2])
    got = {}
    for name, (argv, *_) in CLI_RUNS.items():
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code = main(argv)
        out, err = capsys.readouterr()
        (tmp_path / name).write_text(out)
        got[name] = (code, sha(out), sha(err))
    assert got == {name: tuple(run[1:]) for name, run in CLI_RUNS.items()}
