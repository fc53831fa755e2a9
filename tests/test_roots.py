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

LEGAL = [(t, n) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(low, MAX_RANK + 1)] \
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


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
        assert build_root_system(dynkin_type, rank).table.n_positive == count

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
        coordinates, are the table's, and so is every root's coroot."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        # before the table: a wrong matrix may not close to a finite system
        assert _cartan_matrix(dynkin_type, rank) == euclid.cartan_matrix
        datum = build_root_system(dynkin_type, rank)
        table = datum.table
        assert datum.cartan_matrix == euclid.cartan_matrix
        assert {euclid.coords(a) for a in euclid.positive_roots} == set(table.coords[: table.n_positive])
        assert {euclid.coords(a): euclid.coroot(a) for a in euclid.roots} == dict(zip(table.coords, table.coroots))


class TestPairings:
    @pytest.mark.parametrize("dynkin_type,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
    def test_weight_coroot_pairing_identity(self, dynkin_type, rank):
        """Fundamental weights pair with simple coroots as the identity, so
        Dynkin labels are coordinates in them; the table's labels of every
        root are its pairings with the simple coroots."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        for i in range(rank):
            for j in range(rank):
                value = euclid.coroot_pairing(euclid.fundamental_weights[i], j + 1)
                assert value == (1 if i == j else 0)
        table = build_root_system(dynkin_type, rank).table
        for coords, labels in zip(table.coords, table.labels):
            beta = euclid.combine(coords)
            assert tuple(euclid.coroot_pairing(beta, j + 1) for j in range(rank)) == labels

    @pytest.mark.parametrize("dynkin_type,rank", [("A", 4), ("B", 3), ("G", 2)])
    def test_simple_root_cocharacter_pairing(self, dynkin_type, rank):
        """Simple roots pair with fundamental cocharacters as the identity,
        in the table and in the realization."""
        euclid = EuclideanRootSystem(dynkin_type, rank)
        table = build_root_system(dynkin_type, rank).table
        for j in range(rank):
            cochar = fundamental_cocharacter(rank, j + 1)
            pairings = table.pairings(cochar)
            for i in range(rank):
                value = euclid.pairing(euclid.simple_roots[i], cochar)
                assert pairings[i] == value == (1 if i == j else 0)

    def test_root_coords_integral(self):
        """The F4 realization, with half-integer vectors, has integral
        simple-root coordinates, and they are the table's."""
        euclid = EuclideanRootSystem("F", 4)
        table = build_root_system("F", 4).table
        coords = [euclid.coords(a) for a in euclid.positive_roots]
        assert all(c.denominator == 1 for cs in coords for c in cs)
        assert set(coords) == set(table.coords[: table.n_positive])


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
