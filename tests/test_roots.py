import hashlib

import pytest

from conftest import EuclideanRootSystem
from cstarflips.lie.roots import (
    MAX_RANK,
    IllegalTypeError,
    _cartan_matrix,
    _half_norms,
    _root_table,
    build_root_system,
    fundamental_cocharacter,
    grading,
)


def negate(vector):
    return tuple(-x for x in vector)


LEGAL = [(t, n) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(low, MAX_RANK + 1)] \
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


# sha256 of repr((coords, labels, coroots)) over the positive roots, in index
# order: every legal type at rank <= 8, the exceptional types, and A-D at the
# rank cap.
TABLE_DIGESTS = {
    ("A", 1): "6afbf83b8a4eb6821e252b4c2c17cb6dc4ed89c1608b02c29c1e660e7510655f",
    ("A", 2): "eeca061e82f8dca804daf0a4486dce9e36074150a2c552e6499894727803b9e9",
    ("A", 3): "8bd920b26dc311eb2cb75b9ff50acd83eb2485174aa69750ab105b7cdc775c52",
    ("A", 4): "e7c1934f39f16416eac8a76c500fb06d1c7f7ed75758f9a1f89e52f9915a384a",
    ("A", 5): "a256bc4003c0485d4e0ce8c469bb4dac7785a99a82708acb5fd88ccef03ad5c7",
    ("A", 6): "dc78fa78e7c07bc139aba7575c54b0bffad346687c3f924fc77952f450c25554",
    ("A", 7): "1af69fbfcc35f158e8fca86b509617932ac2b6522fbb52f26f394e204fece1aa",
    ("A", 8): "eca8a131bc1d01c3c3882dcac6ddfa82627d60cc0b15b90c79e70725aa0de65a",
    ("B", 2): "8bab0b76b43d3c5ca9d8c2f9fdf0422653f41ab7baaef4530e828b329caa3038",
    ("B", 3): "ad2df2680a286c43e5e88d30856e8ac4e468502ef34ce9839aa662e8de929040",
    ("B", 4): "d8e922f0aaa2c106ad9029611479c8d09a98de7524349147dec5d072fdf926fe",
    ("B", 5): "2cb2732859701842cee233d2c21458c98a761174bc3068d217f148ff1d9b9f50",
    ("B", 6): "f5e77e4acf782c2d0fe73e6b053f5ef6fb9f172da9764f8006616c6282d7be9c",
    ("B", 7): "edd814e059d05517786e7fe7d8a714be88e2f2c42ab2463c0cc80033b5f12fa3",
    ("B", 8): "0f4852fa6ba33b65c14ef49fab85fd7b68f225a5e594c5c4ad1295feb44b0002",
    ("C", 2): "ccebbf60e92637dabb684a21829ecb7839f231ff20191cdc562e43da620e35bb",
    ("C", 3): "a88ff2b5044e3742ebdfb2af455f794a90edf1f986ef000237a85a1225c494d9",
    ("C", 4): "3a2a1f6dcf940bf727953fc9e19b79b0595bbb27a1d78f64f7679e5ca499223e",
    ("C", 5): "d3b164929a9d9df3b356f9c9cb8ca32733a2faa2d440c8c0634c5e250dddbaa1",
    ("C", 6): "30a4ffb76a57bdf3b75c0c578f77fd550deb80c3dc7d3e680b7021b2c76a7d9a",
    ("C", 7): "878b73b6033e33cd8059f6a044d82d2c082dcca026bce6d6f2925f697dfdf5f1",
    ("C", 8): "76a93f5d8125460eb9d62ab01ebdb1704a7bcce8c9fc50a05cecf359db5532ab",
    ("D", 3): "4f689ad925b086400c9ba47ad92cd75b316662a9e4b5332d70668c87ca84f4fb",
    ("D", 4): "1a036652d73ada53614e4bfbb64d24219c21dd0470b8bb5dcf43c65c784e3ffd",
    ("D", 5): "ec5963db0cfdc5d9037295197d6c60bb32106e075967a0053eda5f2c7d4dccf0",
    ("D", 6): "73a46dae46f5075938870eb14979ab04d852b5941ba032a7c002383f9bce4b7f",
    ("D", 7): "a8de5265ae1d8c1076492db318f0e2736d48ff24dd93adb13532f7421b43a023",
    ("D", 8): "245c2e13448c9370af945ae9607340315fa6e7cfaa284ad16f180e6f16983123",
    ("E", 6): "59235a3d6c0ebd747b768c9a38be0e13a21ebbdf0d99d473f98dbaef6d33084b",
    ("E", 7): "9798bc81d16390194b93db14b7e75437d9789cfdb092f397edd067ffb1dd81b6",
    ("E", 8): "bd8693b5b895af7d239a303445b866a9f8b9691cc6e09ef2504274dea9517915",
    ("F", 4): "9819e579f3bd4fe460e021be55e9ef3c843a70c3478e832604485ceb54308b0b",
    ("G", 2): "af8a89c1998d1cddde854d4a2a9341ff36c346bf4707ffc9d42172e906f6ad5c",
    ("A", 32): "de204ac5655f5eb489e639296cdf0e7fef576e54dca4f1ef89a8789b918d364e",
    ("B", 32): "342d32369ba029fc1c4360a4726845abd2c6a2cb9de937d99a09b74e7310fbce",
    ("C", 32): "d1fe15a1789e0c6010491e3da793b279b0d1d5caaf117d5cd398c20829f0b673",
    ("D", 32): "6aa6542babd468171b4f5a3d07568f5e8447a678d951a980cde40c382ded6019",
}


@pytest.mark.parametrize("dynkin_type,rank", list(TABLE_DIGESTS))
def test_positive_roots_pinned(dynkin_type, rank):
    """The positive roots, their Dynkin labels and coroots, index for index."""
    datum = build_root_system(dynkin_type, rank)
    part = (datum.coords, datum.labels, datum.coroots)
    assert hashlib.sha256(repr(part).encode()).hexdigest() == TABLE_DIGESTS[dynkin_type, rank]


class TestRootCounts:
    @pytest.mark.parametrize(
        "dynkin_type,rank,count",
        [
            ("A", 3, 6),
            ("A", 7, 28),
            ("B", 4, 16),
            ("C", 3, 9),
            ("D", 5, 20),
            ("E", 6, 36),
            ("E", 7, 63),
            ("E", 8, 120),
            ("F", 4, 24),
            ("G", 2, 6),
        ],
    )
    def test_positive_root_count(self, dynkin_type, rank, count):
        assert build_root_system(dynkin_type, rank).n_positive == count

    def test_g2_two_lengths(self):
        assert len(set(_half_norms(build_root_system("G", 2).cartan_matrix))) == 2

    def test_adn_simply_laced(self):
        assert len(set(_half_norms(build_root_system("A", 4).cartan_matrix))) == 1
        assert len(set(_half_norms(build_root_system("D", 4).cartan_matrix))) == 1

    def test_illegal(self):
        with pytest.raises(IllegalTypeError):
            build_root_system("E", 5)
        with pytest.raises(IllegalTypeError):
            build_root_system("H", 3)

    def test_closure_of_a_non_finite_matrix_stops(self):
        """E8 with node 2 moved from node 4 to node 5 is the affine E7
        diagram, whose closure never ends: it stops past E8's 120 roots."""
        cartan = [list(row) for row in _cartan_matrix("E", 8)]
        cartan[1][3] = cartan[3][1] = 0
        cartan[1][4] = cartan[4][1] = -1
        with pytest.raises(IllegalTypeError, match="more than 120 positive roots"):
            _root_table(cartan, 120)


class TestRealization:
    @pytest.mark.parametrize("dynkin_type,rank", LEGAL)
    def test_cartan_matrix_from_diagram(self, dynkin_type, rank):
        """The Cartan matrix written from the Dynkin diagram is the one of the
        Euclidean realization, and the half norms derived from it are
        proportional to the squared lengths of the simple roots."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        cartan = _cartan_matrix(dynkin_type, rank)
        assert cartan == euclid.cartan_matrix
        d = _half_norms(cartan)
        assert all(d[i] * euclid.norms[0] == d[0] * euclid.norms[i] for i in range(rank))

    @pytest.mark.parametrize(
        "dynkin_type,rank", [(t, n) for t, n in LEGAL if n <= 8 or t in "EFG"]
    )
    def test_roots_match_realization(self, dynkin_type, rank):
        """Root for root: the realization's positive roots, in simple-root
        coordinates, are the root system's, and so is every root's coroot,
        a negative root's being the negation of its positive one's."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        # before the roots: a wrong matrix may not close to a finite system
        assert _cartan_matrix(dynkin_type, rank) == euclid.cartan_matrix
        datum = build_root_system(dynkin_type, rank)
        assert datum.cartan_matrix == euclid.cartan_matrix
        assert {euclid.coords(a) for a in euclid.positive_roots} == set(datum.coords)
        coroots = dict(zip(datum.coords, datum.coroots))
        coroots.update({negate(c): negate(v) for c, v in coroots.items()})
        assert {euclid.coords(a): euclid.coroot(a) for a in euclid.roots} == coroots


class TestPairings:
    @pytest.mark.parametrize("dynkin_type,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
    def test_weight_coroot_pairing_identity(self, dynkin_type, rank):
        """Fundamental weights pair with simple coroots as the identity, so
        Dynkin labels are coordinates in them; the labels of every positive
        root, and their negation for its negative, are its pairings with the
        simple coroots."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        for i in range(rank):
            for j in range(rank):
                value = euclid.coroot_pairing(euclid.fundamental_weights[i], j + 1)
                assert value == (1 if i == j else 0)
        datum = build_root_system(dynkin_type, rank)
        for coords, labels in zip(datum.coords, datum.labels):
            for sign in (1, -1):
                beta = euclid.combine([sign * c for c in coords])
                assert tuple(euclid.coroot_pairing(beta, j + 1) for j in range(rank)) == \
                    tuple(sign * x for x in labels)

    @pytest.mark.parametrize("dynkin_type,rank", [("A", 4), ("B", 3), ("G", 2)])
    def test_simple_root_cocharacter_pairing(self, dynkin_type, rank):
        """Simple roots pair with fundamental cocharacters as the identity,
        in the root system and in the realization."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        datum = build_root_system(dynkin_type, rank)
        for j in range(rank):
            cochar = fundamental_cocharacter(rank, j + 1)
            pairings = datum.pairings(cochar)
            for i in range(rank):
                value = euclid.pairing(euclid.simple_roots[i], cochar)
                assert pairings[i] == value == (1 if i == j else 0)

    def test_root_coords_integral(self):
        """The F4 realization, with half-integer vectors, has integral
        simple-root coordinates, and they are the root system's."""
        euclid = EuclideanRootSystem("F", 4)
        coords = [euclid.coords(a) for a in euclid.positive_roots]
        assert all(c.denominator == 1 for cs in coords for c in cs)
        assert set(coords) == set(build_root_system("F", 4).coords)


class TestGrading:
    def test_a_type_always_short(self):
        for n in range(1, 6):
            datum = build_root_system("A", n)
            for k in range(1, n + 1):
                assert grading(datum, fundamental_cocharacter(n, k)).is_short

    def test_doubled_cocharacter_not_short(self):
        datum = build_root_system("A", 2)
        assert not grading(datum, (2, 0)).is_short

    def test_b3_node2_not_short(self):
        datum = build_root_system("B", 3)
        assert not grading(datum, fundamental_cocharacter(3, 2)).is_short

    @pytest.mark.parametrize(
        "dynkin_type,rank,short_nodes",
        [
            ("B", 4, {1}),
            ("C", 4, {4}),
            ("D", 5, {1, 4, 5}),
            ("E", 6, {1, 6}),
            ("E", 7, {7}),
        ],
    )
    def test_short_node_sets(self, dynkin_type, rank, short_nodes):
        datum = build_root_system(dynkin_type, rank)
        got = {
            k
            for k in range(1, rank + 1)
            if grading(datum, fundamental_cocharacter(rank, k)).is_short
        }
        assert got == short_nodes

    @pytest.mark.parametrize("dynkin_type,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6)])
    def test_dims_symmetric_and_total(self, dynkin_type, rank):
        datum = build_root_system(dynkin_type, rank)
        for k in range(1, rank + 1):
            g = grading(datum, fundamental_cocharacter(rank, k))
            assert sum(d for _, d in g.graded_dims) == datum.dim_lie_algebra
            for m, d in g.graded_dims:
                assert g.dim(-m) == d

    def test_a_type_level_one_dim(self):
        """The degree-one piece of the node-k grading of A_n has dimension
        k(n+1-k)."""
        for n in range(2, 8):
            datum = build_root_system("A", n)
            for k in range(1, n + 1):
                g = grading(datum, fundamental_cocharacter(n, k))
                assert g.dim(1) == k * (n + 1 - k)
