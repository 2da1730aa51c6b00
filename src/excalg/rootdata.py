"""Abstract root systems generated from Cartan matrices, Dynkin types read
from the shape of the diagram, integer gradings by a node, cyclic gradings
by a node of the extended diagram, the dimension formulas of the
exceptional series, and line-family combinatorics read from the diagram.

Roots live in the simple-root basis as integer tuples and are generated by
closing the simple roots under the simple reflections, so the same code
serves every type.  The cyclic degree rule is "coefficient of the chosen
node modulo its mark"; the extended node itself carries mark 1 and yields
the trivial grading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Root = Tuple[int, ...]


def cartan_matrix(family: str, rank: int) -> List[List[int]]:
    """Cartan matrix A[i][j] = <alpha_i, alpha_j-check> in the standard
    (Bourbaki) numbering."""
    family = family.upper()
    n = rank

    def chain(n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
            if i + 1 < n:
                a[i][i + 1] = -1
                a[i + 1][i] = -1
        return a

    if family == "A" and n >= 1:
        return chain(n)
    if family == "B" and n >= 2:
        a = chain(n)
        a[n - 2][n - 1] = -2  # last root short
        return a
    if family == "C" and n >= 2:
        a = chain(n)
        a[n - 1][n - 2] = -2  # last root long
        return a
    if family == "D" and n >= 3:
        a = chain(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 3][n - 1] = -1
        a[n - 1][n - 3] = -1
        a[n - 2][n - 1] = 0
        a[n - 1][n - 2] = 0
        return a
    if family == "E" and n in (6, 7, 8):
        # chain 1-3-4-5-...-n with node 2 attached to node 4
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
        bonds = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, n)]
        for (i, j) in bonds:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
        return a
    if family == "F" and n == 4:
        return [
            [2, -1, 0, 0],
            [-1, 2, -2, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ]
    if family == "G" and n == 2:
        return [[2, -1], [-3, 2]]
    raise ValueError(f"no finite type {family}{rank}")


EXPECTED_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    cartan: tuple  # rows of the Cartan matrix
    roots: frozenset  # all roots in simple-root coordinates
    highest_root: Root
    marks: tuple  # coefficients of the highest root per node

    @property
    def type_name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dimension(self) -> int:
        return len(self.roots) + self.rank

    def symmetrizer(self) -> List[Fraction]:
        """d_i with d_i a_ij = d_j a_ji; d is proportional to the squared
        root lengths."""
        n = self.rank
        d: List[Optional[Fraction]] = [None] * n
        d[0] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if i == j or self.cartan[i][j] == 0:
                        continue
                    if d[i] is not None and d[j] is None:
                        # d_j a_ji = d_i a_ij with d proportional to length^2
                        d[j] = d[i] * Fraction(self.cartan[j][i], self.cartan[i][j])
                        changed = True
        if any(x is None for x in d):
            raise ValueError("disconnected diagram; symmetrizer per component only")
        low = min(d)
        return [x / low for x in d]

    def short_nodes(self) -> List[int]:
        """1-based nodes whose simple root is strictly short."""
        d = self.symmetrizer()
        top = max(d)
        return [i + 1 for i, x in enumerate(d) if x < top]


def _is_positive(root: Root) -> bool:
    for c in root:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate all roots by closing the simple roots under the simple
    reflections s_j(a) = a - <a, alpha_j-check> alpha_j."""
    a = cartan_matrix(family, rank)
    n = rank
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for r in frontier:
            pair = [sum(r[i] * a[i][j] for i in range(n)) for j in range(n)]
            for j in range(n):
                s = list(r)
                s[j] -= pair[j]
                s = tuple(s)
                if s not in roots:
                    roots.add(s)
                    fresh.append(s)
        frontier = fresh
    expected = EXPECTED_ROOT_COUNT[family.upper()](rank)
    if len(roots) != expected:
        raise AssertionError(
            f"{family}{rank}: generated {len(roots)} roots, expected {expected}"
        )
    positives = [r for r in roots if _is_positive(r)]
    highest = max(positives, key=lambda r: (sum(r), r))
    # the highest root dominates every positive root coefficientwise
    for r in positives:
        if any(h < c for h, c in zip(highest, r)):
            raise AssertionError("highest root is not coefficientwise maximal")
    return RootSystem(
        family.upper(),
        rank,
        tuple(tuple(row) for row in a),
        frozenset(roots),
        highest,
        tuple(highest),
    )


# -- gradings -------------------------------------------------------------------


@dataclass
class GradingReport:
    kind: str  # "Z" or "Zm"
    node: int
    modulus: Optional[int]  # None for Z-gradings
    dims: Dict[int, int]  # degree -> dimension, Cartan counted in degree 0
    zero_part_type: Optional[str] = None

    def dims_list(self) -> List[Tuple[int, int]]:
        return sorted(self.dims.items())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "modulus": self.modulus,
            "dims": {str(k): v for k, v in sorted(self.dims.items())},
            "zero_part_type": self.zero_part_type,
        }


def z_grading(rs: RootSystem, node: int) -> GradingReport:
    """Grading by the coefficient of the chosen simple root; the zero part
    is the Cartan plus the roots avoiding the node."""
    if not (1 <= node <= rs.rank):
        raise ValueError("node out of range")
    dims: Dict[int, int] = {0: rs.rank}
    for r in rs.roots:
        deg = r[node - 1]
        dims[deg] = dims.get(deg, 0) + 1
    return GradingReport(
        "Z", node, None, dims, zero_part_type=deleted_node_type(rs, [node])
    )


def zm_grading(rs: RootSystem, node: int) -> GradingReport:
    """Grading by the node's coefficient modulo its mark on the extended
    diagram; node 0 is the extending node (mark 1, trivial grading)."""
    if node == 0:
        total = rs.dimension
        return GradingReport("Zm", 0, 1, {0: total})
    if not (1 <= node <= rs.rank):
        raise ValueError("node out of range")
    m = rs.marks[node - 1]
    dims: Dict[int, int] = {0: rs.rank}
    for r in rs.roots:
        deg = r[node - 1] % m
        dims[deg] = dims.get(deg, 0) + 1
    return GradingReport("Zm", node, m, dims)


def deleted_node_type(rs: RootSystem, nodes: Sequence[int]) -> str:
    """Dynkin type of the diagram after deleting the listed 1-based nodes,
    e.g. "B3" or "A2+A1", named by :func:`diagram_type`."""
    keep = [i for i in range(rs.rank) if i + 1 not in nodes]
    return diagram_type([[rs.cartan[i][j] for j in keep] for i in keep])


def diagram_type(a: Sequence[Sequence[int]]) -> str:
    """Dynkin type of a Cartan matrix given by int rows, e.g. "A2+A1"; "0"
    for the empty matrix.

    Each connected component is named from its shape: the bond
    multiplicities a_ij a_ji, which end of a double bond is short
    (|a_ij| = 2 means alpha_j is short), and the arm lengths at a branch
    node.  C2 is reported as B2 and D3 as A3.  Any other shape (a cycle,
    two branch nodes, two multiple bonds, a bond of 4 or more) raises
    ValueError."""
    n = len(a)
    for i in range(n):
        if a[i][i] != 2 or any(a[i][j] > 0 or bool(a[i][j]) != bool(a[j][i])
                               for j in range(n) if j != i):
            raise ValueError("not a Cartan matrix")
    nbrs = {i: [j for j in range(n) if j != i and a[i][j]] for i in range(n)}
    names, left = [], set(range(n))
    while left:
        comp = _reach(nbrs, min(left), set())
        left -= comp
        names.append(_component_type(a, comp, nbrs))
    return "+".join(sorted(names)) or "0"


def _component_type(a, comp: set, nbrs: Dict[int, List[int]]) -> str:
    n = len(comp)
    bonds = {(i, j): a[i][j] * a[j][i] for i in comp for j in nbrs[i] if i < j}
    multiple = [ij for ij, m in bonds.items() if m > 1]
    branches = [i for i in comp if len(nbrs[i]) > 2]
    if len(bonds) != n - 1 or max(bonds.values(), default=1) > 3:
        raise ValueError("diagram has a cycle or a bond of 4 or more")
    if len(multiple) + len(branches) > 1:
        raise ValueError("diagram has two branch nodes or multiple bonds")
    if branches:
        b = branches[0]
        arms = sorted(len(_reach(nbrs, j, {b})) for j in nbrs[b])
        if len(arms) == 3 and arms[:2] == [1, 1]:
            return f"D{n}"
        if arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
            return f"E{n}"
    elif not multiple:
        return f"A{n}"
    elif bonds[multiple[0]] == 3 and n == 2:
        return "G2"
    elif bonds[multiple[0]] == 2:
        i, j = multiple[0]
        long_, short = (i, j) if a[i][j] == -2 else (j, i)
        shorts = len(_reach(nbrs, short, {long_}))
        if shorts == 1:
            return f"B{n}"
        if shorts == n - 1:
            return f"C{n}"
        if n == 4:
            return "F4"
    raise ValueError("component is not of finite type")


def _reach(nbrs: Dict[int, List[int]], start: int, avoid: set) -> set:
    """The nodes reached from start without passing through avoid."""
    seen, stack = {start} | avoid, [start]
    while stack:
        for k in nbrs[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return seen - avoid


# -- dimension formulas of the exceptional series --------------------------------


@dataclass(frozen=True)
class SeriesDimensions:
    a: int
    x1: int
    v1: int
    x2: int
    v2: int
    x3: int
    v3: int
    x4: int
    v4: int

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "dim_X1": self.x1,
            "dim_V1": self.v1,
            "dim_X2": self.x2,
            "dim_V2": self.v2,
            "dim_X3": self.x3,
            "dim_V3": self.v3,
            "dim_X4": self.x4,
            "dim_V4": self.v4,
        }


def magic_dimension_formulas(a: int) -> SeriesDimensions:
    """The dimension record of the four geometric rows at parameter a; the
    last entry is the rational-function formula 2(3a+7)(5a+8)/(a+4)."""
    if a not in (0, 1, 2, 4, 8, 6):
        raise ValueError("a must be one of 0, 1, 2, 4, 8 (6 for the half row)")
    v4 = Fraction(2 * (3 * a + 7) * (5 * a + 8), a + 4)
    if v4.denominator != 1:
        raise AssertionError("series dimension is not integral")
    return SeriesDimensions(
        a,
        2 * a - 1,
        3 * a + 2,
        2 * a,
        3 * a + 3,
        3 * a + 3,
        6 * a + 8,
        6 * a + 9,
        int(v4),
    )


# -- line families from the diagram ------------------------------------------------


@dataclass(frozen=True)
class ShadowReport:
    node: int
    incidence_nodes: tuple
    homogeneous: bool


def shadow_lines(rs: RootSystem, node: int) -> ShadowReport:
    """The node set defining the family of lines on the Grassmannian of the
    chosen node: its neighbors in the diagram.  The family is flagged
    non-homogeneous when the chosen simple root is short in a multiply
    laced diagram."""
    if not (1 <= node <= rs.rank):
        raise ValueError("node out of range")
    i = node - 1
    neighbors = tuple(
        j + 1 for j in range(rs.rank) if j != i and rs.cartan[i][j] != 0
    )
    homogeneous = node not in rs.short_nodes()
    return ShadowReport(node, neighbors, homogeneous)
